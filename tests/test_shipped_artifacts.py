"""The shipped DSL artifact and remaining engine edge cases."""

from pathlib import Path


from repro.chase.engine import ChaseConfig, StandardChase
from repro.chase.ded import GreedyDedChase
from repro.dsl.parser import parse_scenario
from repro.logic.atoms import Atom, Conjunction
from repro.logic.dependencies import tgd
from repro.logic.terms import Variable
from repro.pipeline import run_scenario
from repro.relational.instance import Instance

x, y, z = Variable("x"), Variable("y"), Variable("z")

EXAMPLE_FILE = Path(__file__).parent.parent / "examples" / "running_example.grom"


class TestShippedScenarioFile:
    def test_file_exists_and_parses(self):
        document = parse_scenario(EXAMPLE_FILE.read_text())
        assert [m.name for m in document.scenario.mappings] == [
            "m0",
            "m1",
            "m2",
            "m3",
        ]
        assert document.source_instance is not None

    def test_file_runs_end_to_end(self):
        document = parse_scenario(EXAMPLE_FILE.read_text())
        outcome = run_scenario(document.scenario, document.source_instance)
        assert outcome.ok
        assert outcome.verification is not None and outcome.verification.ok


class TestChaseConfigSurface:
    def test_keep_working_retains_source_facts(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),)
        )
        source = Instance()
        source.add_row("S", 1)
        engine = StandardChase(
            [dependency], ["S"], ChaseConfig(keep_working=True)
        )
        result = engine.run(source)
        assert result.working is not None
        assert result.working.size("S") == 1
        # Default drops the working instance.
        default = StandardChase([dependency], ["S"]).run(source)
        assert default.working is None

    def test_pipeline_forwards_config(self):
        from repro.scenarios import build_scenario, generate_source_instance

        outcome = run_scenario(
            build_scenario(include_key=False),
            generate_source_instance(products=5, seed=1),
            config=ChaseConfig(max_rounds=1, guards="on"),
            verify=False,
        )
        # One round cannot finish the cascading companions.
        assert not outcome.ok

    def test_termination_proof_outranks_budget(self):
        from repro.scenarios import build_scenario, generate_source_instance

        # Default guards="auto": the analyzer proves this scenario
        # terminating, so the one-round budget is dropped and the same
        # run succeeds.
        outcome = run_scenario(
            build_scenario(include_key=False),
            generate_source_instance(products=5, seed=1),
            config=ChaseConfig(max_rounds=1),
            verify=False,
        )
        assert outcome.analysis is not None
        assert outcome.analysis.termination.proven
        assert outcome.chase.guards == "dropped"
        assert outcome.ok

    def test_greedy_respects_config(self):
        from repro.core.rewriter import rewrite
        from repro.scenarios import build_scenario, generate_source_instance

        rewritten = rewrite(build_scenario())
        engine = GreedyDedChase(
            rewritten.dependencies,
            rewritten.source_relations(),
            config=ChaseConfig(max_rounds=1),
        )
        result = engine.run(generate_source_instance(products=5, seed=1))
        assert not result.ok


class TestAnalyzeWrapper:
    def test_analyze_returns_consistent_pair(self):
        from repro.core.analysis import analyze
        from repro.scenarios import build_scenario

        prediction, result = analyze(build_scenario())
        assert prediction.may_have_deds == result.has_deds
        assert prediction.problematic_views() == result.problematic_views()


class TestDslCommentForms:
    def test_all_comment_styles(self):
        from repro.dsl.lexer import TokenKind, tokenize

        tokens = tokenize(
            "// slashes\nR(x). # hash\nS(y). -- dashes\n"
        )
        idents = [t.text for t in tokens if t.kind == TokenKind.IDENT]
        assert idents == ["R", "x", "S", "y"]


class TestPackageNamespace:
    def test_every_submodule_resolves_by_attribute(self):
        # ``import repro.a.b as m`` resolves ``repro.a`` and then ``.b``
        # by attribute, so a package-level name that shadows a
        # subpackage (a function re-exported under the subpackage's
        # name) breaks every such import below it.
        import importlib
        import pkgutil
        import types

        import repro

        names = [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        assert "repro.chase.ded" in names
        unresolved = []
        for name in names:
            importlib.import_module(name)
            target = repro
            for part in name.split(".")[1:]:
                target = getattr(target, part, None)
            if not isinstance(target, types.ModuleType) or target.__name__ != name:
                unresolved.append(name)
        assert unresolved == []
