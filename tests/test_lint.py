"""``grom lint`` end to end: diagnostics, text/file linting, CLI exit
codes and the deterministic-merge AST lint in ``tools/``."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import (
    CODES,
    Diagnostic,
    Severity,
    SourceSpan,
    has_errors,
    lint_file,
    lint_scenario,
    lint_text,
    render_diagnostic,
    render_report,
    reports_payload,
    severity_of,
    sort_diagnostics,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

CLEAN_SCENARIO = """
source schema source {
  S_Product(id int, rating int).
}

target schema target {
  T_Product(id, rating).
}

target views {
  v0: Out(id) <- T_Product(id, rating).
}

mappings {
  m0: S_Product(id, rating) -> Out(id).
}
"""

UNSAT_SCENARIO = """
source schema source {
  S_Product(id int, rating int).
}

target schema target {
  T_Product(id, rating).
}

target views {
  v0: Out(id) <- T_Product(id, rating).
}

mappings {
  m0: S_Product(id, rating), rating < 2, rating > 4 -> Out(id).
}
"""


# ---------------------------------------------------------------------------
# Diagnostics primitives
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="GROM999"):
            Diagnostic(code="GROM999", message="nope")

    def test_registry_severities(self):
        assert severity_of("GROM001") is Severity.INFO
        assert severity_of("GROM101") is Severity.ERROR
        assert severity_of("GROM201") is Severity.WARNING
        # Every registered code resolves; the 1xx block is all errors.
        for code, (severity, _) in CODES.items():
            assert severity_of(code) is severity
            if code.startswith("GROM1"):
                assert severity is Severity.ERROR

    def test_sort_is_severity_then_code(self):
        info = Diagnostic(code="GROM001", message="verdict")
        warn = Diagnostic(code="GROM201", message="unproven")
        error = Diagnostic(code="GROM104", message="parse")
        assert sort_diagnostics([info, warn, error]) == (error, warn, info)

    def test_has_errors(self):
        assert not has_errors([Diagnostic(code="GROM001", message="m")])
        assert has_errors([Diagnostic(code="GROM104", message="m")])

    def test_render_includes_span_and_subject(self):
        diagnostic = Diagnostic(
            code="GROM101",
            message="premise can never match",
            subject="m0",
            span=SourceSpan(line=4, column=7),
        )
        rendered = render_diagnostic(diagnostic, source="demo.grom")
        assert rendered == (
            "demo.grom:4:7: error GROM101: premise can never match [m0]"
        )


# ---------------------------------------------------------------------------
# Linting scenario text and files
# ---------------------------------------------------------------------------


class TestLintText:
    def test_clean_scenario_is_ok_with_info_verdicts(self):
        report = lint_text(CLEAN_SCENARIO, source="clean.grom")
        assert report.ok
        codes = {d.code for d in report.diagnostics}
        assert "GROM001" in codes  # termination verdict
        assert "GROM002" in codes  # fire schedule
        assert report.analysis is not None
        assert report.analysis.termination.proven

    def test_unsatisfiable_premise_is_an_error(self):
        report = lint_text(UNSAT_SCENARIO, source="unsat.grom")
        assert not report.ok
        errors = [
            d for d in report.diagnostics if d.severity is Severity.ERROR
        ]
        assert errors and all(d.code == "GROM101" for d in errors)
        assert any("m0" in d.subject for d in errors)

    def test_parse_error_becomes_grom104_with_span(self):
        report = lint_text("source schema oops {", source="broken.grom")
        assert not report.ok
        assert len(report.diagnostics) == 1
        diagnostic = report.diagnostics[0]
        assert diagnostic.code == "GROM104"
        assert diagnostic.span is not None
        assert diagnostic.span.line >= 1

    def test_validation_error_becomes_grom104(self):
        # Parses, but the mapping premise uses an undeclared relation —
        # scenario validation raises a schema error, not a parse error.
        text = CLEAN_SCENARIO.replace("m0: S_Product", "m0: Ghost")
        report = lint_text(text, source="ghost.grom")
        assert not report.ok
        assert report.diagnostics[0].code == "GROM104"

    def test_spans_are_attached_to_named_subjects(self):
        report = lint_text(UNSAT_SCENARIO, source="unsat.grom")
        dead = [d for d in report.diagnostics if d.code == "GROM101"]
        assert any(d.span is not None for d in dead)

    def test_lint_file_missing_path(self, tmp_path):
        report = lint_file(tmp_path / "does_not_exist.grom")
        assert not report.ok
        assert report.diagnostics[0].code == "GROM104"

    def test_render_report_minimum_filters_infos(self):
        report = lint_text(CLEAN_SCENARIO, source="clean.grom")
        full = render_report(report, minimum=Severity.INFO)
        quiet = render_report(report, minimum=Severity.WARNING)
        assert "GROM001" in full
        assert "GROM001" not in quiet
        # The per-report summary line survives filtering.
        assert "0 errors" in quiet

    def test_reports_payload_shape(self):
        reports = [
            lint_text(CLEAN_SCENARIO, source="clean.grom"),
            lint_text(UNSAT_SCENARIO, source="unsat.grom"),
        ]
        payload = reports_payload(reports)
        assert set(payload) == {"reports", "totals", "ok"}
        assert payload["ok"] is False
        assert payload["totals"]["error"] >= 1
        assert len(payload["reports"]) == 2
        # Payload is JSON-serializable as CI requires.
        json.dumps(payload)

    def test_lint_scenario_counts_match_analysis(self):
        report = lint_text(CLEAN_SCENARIO, source="clean.grom")
        counts = report.severity_counts()
        assert counts["error"] == 0
        assert counts["info"] >= 2


# ---------------------------------------------------------------------------
# The grom lint CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "clean.grom", CLEAN_SCENARIO)
        assert cli_main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 clean, 0 error(s)" in out

    def test_unsatisfiable_premise_exits_nonzero(self, tmp_path, capsys):
        path = self._write(tmp_path, "unsat.grom", UNSAT_SCENARIO)
        assert cli_main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "GROM101" in out

    def test_json_report_written(self, tmp_path):
        path = self._write(tmp_path, "unsat.grom", UNSAT_SCENARIO)
        report_path = tmp_path / "report.json"
        exit_code = cli_main(
            ["lint", str(path), "--json", str(report_path)]
        )
        assert exit_code == 1
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert payload["reports"][0]["source"] == str(path)

    def test_quiet_hides_info_diagnostics(self, tmp_path, capsys):
        path = self._write(tmp_path, "clean.grom", CLEAN_SCENARIO)
        assert cli_main(["lint", str(path), "--quiet"]) == 0
        assert "GROM001" not in capsys.readouterr().out

    def test_unknown_corpus_exits_two(self, capsys):
        assert cli_main(["lint", "--corpus", "no-such-corpus"]) == 2
        assert "no-such-corpus" in capsys.readouterr().err

    def test_no_inputs_exits_two(self, capsys):
        assert cli_main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_smoke_corpus_lints_clean_of_errors(self, capsys):
        assert cli_main(["lint", "--corpus", "smoke", "--quiet"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_shipped_example_lints(self, capsys):
        example = REPO_ROOT / "examples" / "running_example.grom"
        assert cli_main(["lint", str(example), "--quiet"]) == 0


# ---------------------------------------------------------------------------
# tools/lint_determinism.py
# ---------------------------------------------------------------------------


def _load_det_tool():
    spec = importlib.util.spec_from_file_location(
        "lint_determinism", REPO_ROOT / "tools" / "lint_determinism.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


det = _load_det_tool()

BAD_MERGE = """\
def merge(shards):
    seen = set()
    for shard in shards:
        seen |= shard
    out = []
    for item in seen:
        out.append(item)
    return out
"""

GOOD_MERGE = """\
def merge(shards):
    seen = set()
    for shard in shards:
        seen |= shard
    out = []
    for item in sorted(seen):
        out.append(item)
    return out
"""

WAIVED_MERGE = """\
def merge(shards):
    seen = set()
    for shard in shards:
        seen |= shard
    out = []
    for item in seen:  # det: ok
        out.append(item)
    return out
"""


class TestDeterminismLint:
    def test_flags_iteration_over_a_set(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(BAD_MERGE)
        findings = det.lint_file(path)
        assert len(findings) == 1
        line, message = findings[0]
        assert line == 6
        assert "seen" in message

    def test_sorted_wrap_is_clean(self, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(GOOD_MERGE)
        assert det.lint_file(path) == []

    def test_waiver_comment_suppresses(self, tmp_path):
        path = tmp_path / "waived.py"
        path.write_text(WAIVED_MERGE)
        assert det.lint_file(path) == []

    def test_comprehension_and_list_call_flagged(self, tmp_path):
        path = tmp_path / "multi.py"
        path.write_text(
            "def collect(values):\n"
            "    bag = {v for v in values}\n"
            "    first = [x for x in bag]\n"
            "    second = list(bag)\n"
            "    return first, second\n"
        )
        findings = det.lint_file(path)
        assert len(findings) == 2

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MERGE)
        good = tmp_path / "good.py"
        good.write_text(GOOD_MERGE)
        assert det.main([str(good)]) == 0
        assert det.main([str(bad)]) == 1
        assert det.main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_repo_merge_paths_are_clean(self):
        # The CI gate: the real merge-path modules stay deterministic.
        assert det.main([]) == 0
