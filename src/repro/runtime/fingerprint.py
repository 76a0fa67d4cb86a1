"""Canonical content fingerprints for scenarios and instances.

A fingerprint is a SHA-256 digest of a *canonical form* built from the
DSL serializer: every schema relation, view rule, mapping, constraint
and fact is rendered to its one-line DSL text, the lines of each section
are sorted, and the sections are hashed as a JSON document with sorted
keys.  Two scenarios that differ only in declaration order therefore
fingerprint identically, and — because the parser round-trips the
serializer — ``parse(serialize(s))`` fingerprints identically to ``s``.

The fingerprint deliberately ignores :attr:`MappingScenario.name`: it is
display metadata the DSL does not even carry, and content addressing
must identify identical *work*, not identical labels.

Limitations (inherited from the DSL): functional-dependency metadata on
relations has no DSL syntax and does not contribute, and labeled nulls
in instances are rendered by their label (instances fed to the pipeline
are null-free anyway).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.core.scenario import MappingScenario
from repro.datalog.program import ViewProgram
from repro.dsl.serializer import (
    serialize_dependency,
    serialize_relation,
    serialize_rule,
)
from repro.logic.terms import Null
from repro.relational.instance import Instance
from repro.relational.schema import Schema

__all__ = [
    "canonical_scenario",
    "canonical_instance",
    "fingerprint_scenario",
    "fingerprint_instance",
    "fingerprint_task",
]


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _schema_lines(schema: Schema) -> List[str]:
    lines = [serialize_relation(relation) for relation in schema]
    lines.sort()
    return [f"schema {schema.name}"] + lines


def _view_lines(program: Optional[ViewProgram]) -> List[str]:
    if program is None:
        return []
    return sorted(serialize_rule(rule) for rule in program)


def _value_text(value: object) -> str:
    # serialize_fact raises on labeled nulls (they have no DSL syntax);
    # fingerprints must accept any instance, so nulls render by label.
    if isinstance(value, Null):
        return f"?{value}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    return str(value)


def canonical_scenario(scenario: MappingScenario) -> Dict[str, List[str]]:
    """The order-insensitive canonical form the fingerprint hashes."""
    return {
        "source_schema": _schema_lines(scenario.source_schema),
        "target_schema": _schema_lines(scenario.target_schema),
        "source_views": _view_lines(scenario.source_views),
        "target_views": _view_lines(scenario.target_views),
        "mappings": sorted(
            serialize_dependency(m) for m in scenario.mappings
        ),
        "constraints": sorted(
            serialize_dependency(c) for c in scenario.target_constraints
        ),
    }


def canonical_instance(instance: Instance) -> List[str]:
    """Sorted fact lines — insertion order never matters."""
    return sorted(
        f"{relation}({','.join(map(_value_text, row))})"
        for relation in instance.relations()
        for row in instance.rows(relation)
    )


def fingerprint_scenario(scenario: MappingScenario) -> str:
    """Content address of a scenario (hex SHA-256)."""
    return _digest(canonical_scenario(scenario))


def fingerprint_instance(instance: Instance) -> str:
    """Content address of an instance (hex SHA-256)."""
    return _digest(canonical_instance(instance))


def fingerprint_task(
    scenario: MappingScenario,
    instance: Optional[Instance] = None,
    scenario_fingerprint: Optional[str] = None,
    **params: object,
) -> str:
    """Content address of one unit of batch work.

    Combines the scenario, the (optional) source instance and any
    pipeline parameters that change the output (e.g.
    ``unfold_source_premises``), so records keyed by it are comparable
    across runs.  Pass ``scenario_fingerprint`` when the caller already
    computed it (the executor does) to avoid re-canonicalizing.
    """
    payload = {
        "scenario": scenario_fingerprint or fingerprint_scenario(scenario),
        "instance": fingerprint_instance(instance) if instance is not None else "",
        "params": {k: params[k] for k in sorted(params)},
    }
    return _digest(payload)
