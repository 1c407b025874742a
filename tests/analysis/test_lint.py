"""Linter tests: one firing + one silent fixture per rule, noqa, JSON, CLI.

Fixtures are source strings passed to :func:`lint_source` with fake paths,
so each rule's path scoping is exercised without touching the filesystem.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding, RULES, lint_paths, lint_source
from repro.analysis.cli import main as lint_main

LIB = "src/repro/training/example.py"           # generic library path
NN = "src/repro/nn/example.py"                  # dtype-scoped path
TESTS = "tests/training/test_example.py"        # exempt test path


def codes(source: str, path: str = LIB) -> list[str]:
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


class TestRepro001GlobalRng:
    def test_fires_on_legacy_call(self):
        assert codes("import numpy as np\nnp.random.seed(0)\n") == ["REPRO001"]

    def test_fires_on_full_module_name(self):
        assert codes("import numpy\nx = numpy.random.randn(3)\n") == ["REPRO001"]

    def test_silent_on_generator_api(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.normal(size=3)
        """
        assert codes(src) == []

    def test_seeding_module_is_exempt(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(src, "src/repro/training/seeding.py") == []


class TestRepro002SuperInit:
    def test_fires_when_super_missing(self):
        src = """
            class Broken(Module):
                def __init__(self):
                    self.w = Parameter([1.0])
        """
        assert codes(src) == ["REPRO002"]

    def test_fires_on_forecaster_subclass(self):
        src = """
            class Broken(Forecaster):
                def __init__(self):
                    self.depth = 2
        """
        assert codes(src) == ["REPRO002"]

    def test_silent_with_super_call(self):
        src = """
            class Fine(Module):
                def __init__(self):
                    super().__init__()
                    self.w = Parameter([1.0])
        """
        assert codes(src) == []

    def test_silent_with_explicit_base_call(self):
        src = """
            class Fine(Module):
                def __init__(self):
                    Module.__init__(self)
        """
        assert codes(src) == []

    def test_silent_on_unrelated_class(self):
        src = """
            class Plain:
                def __init__(self):
                    self.x = 1
        """
        assert codes(src) == []


class TestRepro003DataWrites:
    def test_fires_on_bare_data_write(self):
        assert codes("t.data = new_values\n") == ["REPRO003"]

    def test_fires_on_augmented_assignment(self):
        assert codes("p.data -= lr * p.grad\n") == ["REPRO003"]

    def test_fires_on_subscript_write(self):
        assert codes("p.grad[0] = 1.0\n") == ["REPRO003"]

    def test_silent_inside_no_grad(self):
        src = """
            with no_grad():
                p.data -= lr * p.grad
        """
        assert codes(src) == []

    def test_grad_none_is_sanctioned(self):
        assert codes("p.grad = None\n") == []

    def test_tests_and_autodiff_are_exempt(self):
        assert codes("t.data = x\n", TESTS) == []
        assert codes("t.data = x\n", "src/repro/autodiff/tensor.py") == []


class TestRepro004CallbackPickle:
    def test_fires_on_lambda_in_spec(self):
        src = "spec = CallbackSpec.make('timer', clock=lambda: 0.0)\n"
        assert codes(src) == ["REPRO004"]

    def test_fires_on_registry_lambda(self):
        src = "CALLBACK_REGISTRY['bad'] = lambda: Callback()\n"
        assert codes(src) == ["REPRO004"]

    def test_fires_in_trainer_config_callbacks(self):
        src = "cfg = TrainerConfig(epochs=3, callbacks=[lambda: 1])\n"
        assert codes(src) == ["REPRO004"]

    def test_silent_on_registry_name(self):
        src = "spec = CallbackSpec.make('early-stopping', patience=5)\n"
        assert codes(src) == []

    def test_silent_on_unrelated_lambda(self):
        assert codes("key = sorted(xs, key=lambda x: x[0])\n") == []


class TestRepro005DtypeLiterals:
    def test_fires_in_nn(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        assert codes(src, NN) == ["REPRO005"]

    def test_fires_in_models(self):
        src = "import numpy as np\na = arr.astype(np.float64)\n"
        assert codes(src, "src/repro/models/example.py") == ["REPRO005"]

    def test_silent_outside_scope(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"
        assert codes(src, LIB) == []

    def test_silent_on_engine_dtype(self):
        src = "x = np.zeros(3, dtype=get_default_dtype())\n"
        assert codes(src, NN) == []


class TestRepro006BareExcept:
    def test_fires_in_library(self):
        src = """
            try:
                risky()
            except:
                pass
        """
        assert codes(src) == ["REPRO006"]

    def test_silent_on_typed_except(self):
        src = """
            try:
                risky()
            except ValueError:
                pass
        """
        assert codes(src) == []

    def test_tests_are_exempt(self):
        src = """
            try:
                risky()
            except:
                pass
        """
        assert codes(src, TESTS) == []


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self):
        assert codes("t.data = x  # repro: noqa\n") == []

    def test_coded_noqa_suppresses_that_code(self):
        assert codes("t.data = x  # repro: noqa[REPRO003]\n") == []

    def test_wrong_code_does_not_suppress(self):
        assert codes("t.data = x  # repro: noqa[REPRO001]\n") == ["REPRO003"]

    def test_noqa_with_rationale_text(self):
        src = ("import numpy as np\n"
               "a = x.astype(np.float64)  "
               "# repro: noqa[REPRO005] — eigh stability\n")
        assert codes(src, NN) == []

    def test_multiple_codes(self):
        src = "np.random.seed(0); t.data = x  # repro: noqa[REPRO001, REPRO003]\n"
        assert codes(src) == []

    def test_comma_list_suppresses_each_listed_code_only(self):
        src = ("np.random.seed(0); t.data = x; risky()  "
               "# repro: noqa[REPRO001,REPRO003]\n")
        assert codes(src) == []
        partial = ("np.random.seed(0); t.data = x  "
                   "# repro: noqa[REPRO003]\n")
        assert codes(partial) == ["REPRO001"]

    # The unknown codes below are split across adjacent string literals
    # so that linting THIS file does not itself trip the typo warning.
    def test_unknown_code_warns(self):
        with pytest.warns(UserWarning, match="unknown lint code"):
            findings = codes("t.data = x  # repro: " "noqa[REPRO999]\n")
        # A typo'd code suppresses nothing.
        assert findings == ["REPRO003"]

    def test_unknown_code_warning_names_code_and_line(self):
        src = "x = 1\ny = 2  # repro: " "noqa[REPRO03]\n"
        with pytest.warns(UserWarning, match=r":2: .*REPRO03"):
            codes(src)

    def test_known_codes_do_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            codes("t.data = x  # repro: noqa[REPRO003]\n")


class TestDriver:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert [f.code for f in findings] == ["REPRO000"]

    def test_findings_sorted_by_location(self):
        src = "t.data = x\nnp.random.seed(0)\n"
        findings = lint_source(src, LIB)
        assert [(f.line, f.code) for f in findings] == [
            (1, "REPRO003"), (2, "REPRO001")]

    def test_render_format(self):
        finding = Finding("a.py", 3, 7, "REPRO001", "msg")
        assert finding.render() == "a.py:3:7 REPRO001 msg"

    def test_json_schema(self):
        finding = lint_source("t.data = x\n", LIB)[0]
        payload = finding.to_json()
        assert set(payload) == {"path", "line", "col", "code", "message"}
        assert payload["code"] == "REPRO003"
        assert isinstance(payload["line"], int)

    def test_every_rule_has_summary_and_function(self):
        assert set(RULES) == {f"REPRO{i:03d}" for i in range(1, 7)}
        for summary, func in RULES.values():
            assert summary and callable(func)

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "training"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import numpy as np\nnp.random.seed(0)\n")
        (pkg / "clean.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert [f.code for f in findings] == ["REPRO001"]
        assert findings[0].path.endswith("dirty.py")


class TestCli:
    def _dirty_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "training"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import numpy as np\nnp.random.seed(0)\n")
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_with_text_findings(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert lint_main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" in out
        assert ":2:" in out

    def test_json_output_parses(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert lint_main([str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "REPRO001"

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO001" in out and "REPRO006" in out
        assert out.count("REPRO") == 6


REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_is_lint_clean():
    """``repro-lint src tests examples benchmarks`` exits 0, as in CI."""
    findings = lint_paths([REPO_ROOT / name for name in
                           ("src", "tests", "examples", "benchmarks")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_design_rule_table_in_sync():
    """DESIGN.md's rule table is generated from RULES — no doc drift."""
    from repro.analysis.lint import render_rule_table

    text = (REPO_ROOT / "DESIGN.md").read_text()
    begin, end = "<!-- RULES:BEGIN -->", "<!-- RULES:END -->"
    assert begin in text and end in text
    embedded = text.split(begin)[1].split(end)[0].strip()
    assert embedded == render_rule_table(), (
        "DESIGN.md rule table is stale; regenerate with "
        "python -c \"from repro.analysis.lint import render_rule_table; "
        "print(render_rule_table())\"")
