"""Relational schemas: typed relations, keys and functional dependencies.

A :class:`Schema` is a named collection of :class:`Relation` declarations.
Key and functional-dependency declarations are convenience metadata: the
mapping semantics only ever sees dependencies, so :meth:`Relation.key_egd`
and :meth:`Schema.constraint_egds` compile the declarations into egds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ArityError, SchemaError, UnknownRelationError
from repro.logic.atoms import Atom, Conjunction, Equality
from repro.logic.dependencies import Dependency, egd
from repro.logic.terms import Null, Term, Variable
from repro.relational.types import DataType, check_term, check_value

__all__ = ["Attribute", "Relation", "FunctionalDependency", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """A named, typed column."""

    name: str
    dtype: DataType = DataType.ANY

    def __str__(self) -> str:
        return f"{self.name} {self.dtype}"


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``determinants -> dependents`` by attribute name."""

    determinants: Tuple[str, ...]
    dependents: Tuple[str, ...]

    def __init__(self, determinants: Sequence[str], dependents: Sequence[str]) -> None:
        object.__setattr__(self, "determinants", tuple(determinants))
        object.__setattr__(self, "dependents", tuple(dependents))
        if not self.determinants or not self.dependents:
            raise SchemaError("functional dependency sides must be non-empty")

    def __str__(self) -> str:
        return f"{', '.join(self.determinants)} -> {', '.join(self.dependents)}"


@dataclass(frozen=True)
class Relation:
    """A relation declaration: name, attributes, optional key and FDs."""

    name: str
    attributes: Tuple[Attribute, ...]
    key: Tuple[str, ...] = ()
    fds: Tuple[FunctionalDependency, ...] = ()

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        key: Sequence[str] = (),
        fds: Sequence[FunctionalDependency] = (),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(self, "fds", tuple(fds))
        if not name:
            raise SchemaError("relation name must be non-empty")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names")
        known = set(names)
        for attr in self.key:
            if attr not in known:
                raise SchemaError(f"key attribute {attr!r} not in relation {name!r}")
        for fd in self.fds:
            for attr in fd.determinants + fd.dependents:
                if attr not in known:
                    raise SchemaError(
                        f"FD attribute {attr!r} not in relation {name!r}"
                    )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position_of(self, attribute: str) -> int:
        for i, attr in enumerate(self.attributes):
            if attr.name == attribute:
                return i
        raise SchemaError(f"relation {self.name!r} has no attribute {attribute!r}")

    def check_fact(self, terms: Sequence[Term]) -> None:
        """Validate arity and term types for a fact of this relation."""
        if len(terms) != self.arity:
            raise ArityError(self.name, self.arity, len(terms))
        for term, attribute in zip(terms, self.attributes):
            check_term(term, attribute.dtype, where=f"{self.name}.{attribute.name}")

    def check_row(self, values: Sequence[object]) -> None:
        """:meth:`check_fact` for a value row (raw constant values and
        labeled nulls, the way :class:`~repro.relational.instance.Instance`
        stores facts)."""
        if len(values) != self.arity:
            raise ArityError(self.name, self.arity, len(values))
        for value, attribute in zip(values, self.attributes):
            if not isinstance(value, Null):
                check_value(
                    value, attribute.dtype, where=f"{self.name}.{attribute.name}"
                )

    def fresh_atom(self, prefix: str = "x") -> Atom:
        """An atom over this relation with one distinct variable per column."""
        return Atom(
            self.name,
            tuple(Variable(f"{prefix}_{a.name}") for a in self.attributes),
        )

    def _fd_egd(self, determinants: Sequence[str], dependents: Sequence[str],
                label: str) -> Dependency:
        """Compile an FD over this relation into an egd."""
        left = [Variable(f"l_{a.name}") for a in self.attributes]
        right = [Variable(f"r_{a.name}") for a in self.attributes]
        for attr in determinants:
            pos = self.position_of(attr)
            right[pos] = left[pos]
        equalities = []
        for attr in dependents:
            pos = self.position_of(attr)
            equalities.append(Equality(left[pos], right[pos]))
        premise = Conjunction(
            atoms=(Atom(self.name, tuple(left)), Atom(self.name, tuple(right)))
        )
        return egd(premise, equalities, name=label)

    def key_egd(self) -> Optional[Dependency]:
        """The egd enforcing the declared key, or ``None`` if no key."""
        if not self.key:
            return None
        dependents = [a.name for a in self.attributes if a.name not in self.key]
        if not dependents:
            return None
        return self._fd_egd(self.key, dependents, f"key_{self.name}")

    def fd_egds(self) -> List[Dependency]:
        """Egds for all declared functional dependencies."""
        return [
            self._fd_egd(fd.determinants, fd.dependents, f"fd_{self.name}_{i}")
            for i, fd in enumerate(self.fds)
        ]

    def __str__(self) -> str:
        inside = ", ".join(str(a) for a in self.attributes)
        key = f" key({', '.join(self.key)})" if self.key else ""
        return f"{self.name}({inside}){key}"


class Schema:
    """A named set of relation declarations.

    Schemas are mutable during construction (``add``) and act as the
    authority on arity and typing for instances and dependencies.
    """

    def __init__(self, name: str, relations: Iterable[Relation] = ()) -> None:
        self.name = name
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    # -- construction ------------------------------------------------------

    def add(self, relation: Relation) -> "Schema":
        if relation.name in self._relations:
            raise SchemaError(
                f"schema {self.name!r} already defines relation {relation.name!r}"
            )
        self._relations[relation.name] = relation
        return self

    def add_relation(
        self,
        name: str,
        attributes: Sequence[Tuple[str, str]],
        key: Sequence[str] = (),
    ) -> Relation:
        """Declare a relation from ``(attribute, type-name)`` pairs."""
        relation = Relation(
            name,
            [Attribute(a, DataType.from_name(t)) for a, t in attributes],
            key=key,
        )
        self.add(relation)
        return relation

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def relation_names(self) -> List[str]:
        return list(self._relations)

    def arity(self, name: str) -> int:
        return self.relation(name).arity

    # -- constraints ------------------------------------------------------------

    def constraint_egds(self) -> List[Dependency]:
        """All egds induced by declared keys and FDs, in declaration order."""
        out: List[Dependency] = []
        for relation in self:
            key = relation.key_egd()
            if key is not None:
                out.append(key)
            out.extend(relation.fd_egds())
        return out

    # -- combination ------------------------------------------------------------

    def union(self, other: "Schema", name: str = "") -> "Schema":
        """A schema containing the relations of both (names must not clash)."""
        overlap = set(self._relations) & set(other._relations)
        if overlap:
            raise SchemaError(
                f"schemas {self.name!r} and {other.name!r} share relations: "
                f"{sorted(overlap)}"
            )
        merged = Schema(name or f"{self.name}+{other.name}")
        for relation in self:
            merged.add(relation)
        for relation in other:
            merged.add(relation)
        return merged

    def __str__(self) -> str:
        lines = [f"schema {self.name} {{"]
        lines += [f"  {relation}" for relation in self]
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {len(self)} relations)"
