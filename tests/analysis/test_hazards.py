"""Completeness properties for the fast-path hazard catalogue.

The catalogue (:mod:`repro.analysis.hazards`) is the single source for
every diagnostic the runtime can emit when a cell falls off a fast path.
These tests pin the bijection from both sides:

* every ``reason(...)`` call site in ``trace.py`` / ``stacked.py`` /
  ``fastpath.py`` uses a key the catalogue defines, and every catalogue
  key has such a call site — a new runtime reason without an entry (or a
  dead entry) fails;
* every rendered diagnostic round-trips through :func:`match_reason`.
"""

import ast
import inspect
import string

import pytest

from repro.analysis import fastpath, hazards
from repro.autodiff import trace
from repro.training import stacked


def reason_keys_in(module) -> set[str]:
    """Literal first arguments of every ``reason``/``_reason`` call."""
    tree = ast.parse(inspect.getsource(module))
    keys = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name not in ("reason", "_reason"):
            continue
        assert node.args, f"{module.__name__}: reason() call without a key"
        first = node.args[0]
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
            f"{module.__name__}:{node.lineno}: reason() key must be a "
            "string literal so the completeness scan can see it")
        keys.add(first.value)
    return keys


RUNTIME_MODULES = (trace, stacked, fastpath)


class TestCatalogueCompleteness:
    def test_every_runtime_reason_key_is_catalogued(self):
        used = set().union(*map(reason_keys_in, RUNTIME_MODULES))
        unknown = used - set(hazards.HAZARDS)
        assert not unknown, f"runtime uses uncatalogued keys: {sorted(unknown)}"

    def test_every_catalogue_key_has_a_runtime_call_site(self):
        used = set().union(*map(reason_keys_in, RUNTIME_MODULES))
        dead = set(hazards.HAZARDS) - used
        assert not dead, f"catalogue entries never raised at runtime: {sorted(dead)}"

    def test_trace_keys_and_stack_keys_partition_by_catalogue_section(self):
        trace_keys = reason_keys_in(trace)
        stack_keys = reason_keys_in(stacked) | {"stack-no-forward"}
        assert "stack-no-forward" in reason_keys_in(fastpath)
        assert not trace_keys & stack_keys
        assert trace_keys | stack_keys == set(hazards.HAZARDS)
        assert stack_keys == {k for k in hazards.HAZARDS
                              if k.startswith("stack-")}


def template_fields(template: str) -> list[str]:
    """Placeholder names of a ``str.format`` template."""
    return [name.split(".")[0].split("[")[0]
            for _, name, _, _ in string.Formatter().parse(template)
            if name is not None]


#: Representative values for template holes (typed like the runtime's).
_SAMPLE_FIELDS = {
    "i": 4, "op": "conv_windows", "n1": 12, "n2": 13, "name": "hidden",
    "q1": "('__add__', 2)", "q2": "('__mul__', 2)",
    "before": "(7, 5) float64", "after": "(7, 6) float64",
    "error": "boom", "model": "astgcn", "optimizer": "sgd",
    "detail": "stack_lanes: cheb._basis (list) has no lane form",
    "loss": "quantile", "extra": "('momentum',)",
    "unsupported": "('lr-plateau',)", "mode": "always",
}


class TestReasonRoundTrip:
    @pytest.mark.parametrize("key", sorted(hazards.HAZARDS))
    def test_rendered_reason_matches_back_to_its_key(self, key):
        template = hazards.HAZARDS[key]
        fields = {f: _SAMPLE_FIELDS[f] for f in template_fields(template)}
        text = hazards.reason(key, **fields)
        assert hazards.match_reason(text) == key

    @pytest.mark.parametrize("key", sorted(hazards.HAZARDS))
    def test_retrace_budget_suffix_still_matches(self, key):
        template = hazards.HAZARDS[key]
        fields = {f: _SAMPLE_FIELDS[f] for f in template_fields(template)}
        text = hazards.reason(key, **fields) + " (retrace budget exhausted)"
        assert hazards.match_reason(text) == key

    def test_unknown_text_and_none_map_to_none(self):
        assert hazards.match_reason(None) is None
        assert hazards.match_reason("") is None
        assert hazards.match_reason("some novel diagnostic") is None
