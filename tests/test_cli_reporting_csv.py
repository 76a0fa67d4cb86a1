"""Tests for the CLI, the report formatter and CSV instance IO."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null
from repro.relational.csv_io import load_instance, save_instance
from repro.relational.instance import Instance
from repro.reporting import Table, format_table
from repro.scenarios.running_example import (
    build_source_schema,
    build_scenario,
    generate_source_instance,
)
from repro.dsl.serializer import serialize_scenario


@pytest.fixture()
def scenario_file(tmp_path: Path) -> Path:
    text = serialize_scenario(
        build_scenario(),
        source_instance=generate_source_instance(products=6, seed=1),
    )
    path = tmp_path / "example.grom"
    path.write_text(text)
    return path


class TestCli:
    def test_analyze(self, scenario_file, capsys):
        assert main(["analyze", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "may produce deds: YES" in out
        assert "PopularProduct" in out

    def test_rewrite(self, scenario_file, capsys):
        assert main(["rewrite", str(scenario_file), "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "T_Rating" in out
        assert "deds present" in out

    def test_chase(self, scenario_file, capsys):
        assert main(["chase", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "chase:" in out and "verify:" in out and "OK" in out

    def test_chase_show_target(self, scenario_file, capsys):
        assert main(["chase", str(scenario_file), "--show-target"]) == 0
        assert "T_Product" in capsys.readouterr().out

    def test_chase_with_csv(self, scenario_file, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        save_instance(generate_source_instance(products=4, seed=2), csv_dir)
        assert main(["chase", str(scenario_file), "--csv", str(csv_dir)]) == 0

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "d0" in out or "T_Rating" in out

    def test_export_example_round_trips(self, tmp_path, capsys):
        target = tmp_path / "out.grom"
        assert main(["export-example", str(target)]) == 0
        assert main(["chase", str(target)]) == 0

    def test_chase_failure_exit_code(self, tmp_path):
        text = serialize_scenario(
            build_scenario(),
            source_instance=generate_source_instance(
                products=2, seed=1, popular_name_conflicts=1
            ),
        )
        path = tmp_path / "bad.grom"
        path.write_text(text)
        assert main(["chase", str(path)]) == 1

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    @pytest.mark.parametrize("command", ["chase", "batch"])
    def test_parallelism_is_no_longer_an_option(
        self, scenario_file, capsys, command, spec
    ):
        # The chase always runs serially: an old command line that still
        # passes --parallelism gets a usage error, not a traceback.
        target = str(scenario_file) if command == "chase" else "smoke"
        with pytest.raises(SystemExit) as info:
            main([command, target, "--parallelism", spec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [message] = [line for line in err.splitlines() if "error:" in line]
        assert "--parallelism" in message

    @pytest.mark.parametrize("kernel", ["columnar", "reference"])
    def test_kernel_is_no_longer_an_option(self, scenario_file, capsys, kernel):
        # The chase has one kernel: an old command line that still picks
        # one gets a usage error, not a traceback.
        with pytest.raises(SystemExit) as info:
            main(["chase", str(scenario_file), "--kernel", kernel])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("usage:") == 1
        [message] = [line for line in err.splitlines() if "error:" in line]
        assert "--kernel" in message


class TestReporting:
    def test_format_table_alignment(self):
        rendered = format_table(
            ["name", "value"],
            [["long-name", 1], ["x", 123456]],
            title="Demo",
        )
        lines = rendered.splitlines()
        assert lines[0] == "Demo"
        assert "long-name" in rendered
        # Numbers right-aligned within the column.
        assert lines[-1].endswith("123456")

    def test_cell_rendering(self):
        rendered = format_table(
            ["a"], [[None], [True], [False], [0.12345], [1234.5]]
        )
        assert "-" in rendered
        assert "yes" in rendered and "no" in rendered
        assert "0.1234" in rendered or "0.1235" in rendered

    def test_table_accumulator(self, capsys):
        table = Table("T", ["x"])
        table.add(1)
        table.add(2)
        table.print()
        out = capsys.readouterr().out
        assert "T" in out and "1" in out and "2" in out


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        schema = build_source_schema()
        instance = generate_source_instance(products=5, seed=3)
        save_instance(instance, tmp_path / "data")
        loaded = load_instance(schema, tmp_path / "data")
        assert loaded == instance

    def test_nulls_round_trip(self, tmp_path):
        from repro.relational.schema import Schema

        schema = Schema("s")
        schema.add_relation("R", [("a", "any"), ("b", "any")])
        instance = Instance(schema)
        instance.add(Atom("R", (Constant(1), Null(7, "hint"))))
        save_instance(instance, tmp_path / "d")
        loaded = load_instance(schema, tmp_path / "d")
        fact = next(iter(loaded.facts("R")))
        assert fact.terms[1] == Null(7)

    def test_missing_files_skipped(self, tmp_path):
        schema = build_source_schema()
        (tmp_path / "d").mkdir()
        loaded = load_instance(schema, tmp_path / "d")
        assert len(loaded) == 0

    def test_header_mismatch_rejected(self, tmp_path):
        from repro.errors import SchemaError

        schema = build_source_schema()
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "S_Store.csv").write_text("wrong,header\n1,2\n")
        with pytest.raises(SchemaError):
            load_instance(schema, directory)

    def test_schemaless_save_rejected(self, tmp_path):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            save_instance(Instance(), tmp_path / "d")
