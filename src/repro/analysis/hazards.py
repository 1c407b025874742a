"""Single-source catalogue of fast-path hazards.

Every reason string the runtime can produce when a cell falls off a fast
path — a :class:`~repro.autodiff.trace.TraceInvalid` raised by the
trace-capture JIT, or a blocker returned by
:func:`repro.training.stacked.stackable_reason` — is defined HERE, once,
as a :data:`HAZARDS` entry: a stable key and a message template.
``trace.py`` and ``stacked.py`` format their diagnostics through
:func:`reason`, and :func:`match_reason` maps an observed runtime string
back to its key: :mod:`repro.analysis.fastpath` keys the reasons its JIT
and lane probes report that way, and ``ema-gnn check`` prints the key.
A completeness test asserts the bijection: a new runtime reason without
a catalogue entry (or vice versa) fails the suite.  Which models reach a
fast path is not recorded here; the runtime probes decide it.

This module is pure data + stdlib; it must not import anything from
``repro`` (``trace.py`` and ``stacked.py`` import *it*).
"""

from __future__ import annotations

import re

__all__ = ["HAZARDS", "reason", "match_reason"]


def _compile(template: str) -> "re.Pattern[str]":
    """Turn a message template into a matcher for produced strings."""
    parts = re.split(r"\{[^{}]+\}", template)
    body = "(.+?)".join(re.escape(part) for part in parts)
    # ``EpochJIT._invalidate`` appends this suffix when the retrace
    # budget is gone; the key is unchanged.
    return re.compile(body + r"(?: \(retrace budget exhausted\))?\Z",
                      re.DOTALL)


# ---------------------------------------------------------------------------
# The catalogue.
# ---------------------------------------------------------------------------
#: Stable key (``"where-data-dependent"``, ``"stack-loss"``, ...) -> the
#: ``str.format`` template producing the runtime diagnostic.
HAZARDS: dict[str, str] = {
    # -- trace verification hazards (autodiff/trace.py) --------------------
    "where-data-dependent":
        "where() condition is recomputed per epoch (data-dependent "
        "mask); only a persistent externally-updated mask array can "
        "be replayed",
    "lane-propagate-changed":
        "lane_propagate operator stack changed between captured epochs",
    "const-annotation-changed":
        "constant annotation changed between epochs",
    "const-provider-changed":
        "volatile constant provider changed",
    "const-value-changed":
        "a constant input changed value between the captured epochs "
        "without a volatile/derived annotation",
    "op-count-changed":
        "op count changed between epochs ({n1} vs {n2})",
    "empty-tape":
        "empty tape (nothing was captured)",
    "root-moved":
        "backward root moved between epochs",
    "watch-moved":
        "watched tensor {name!r} moved between epochs",
    "op-changed":
        "op #{i} changed ({q1} vs {q2})",
    "shape-changed":
        "op #{i} ({op}) output changed shape/dtype: {before} vs {after}",
    "scalar-operands-changed":
        "op #{i} ({op}) static fields changed",
    "arity-changed":
        "op #{i} ({op}) arity changed",
    "requires-grad-flipped":
        "op #{i} input requires_grad flipped",
    "wiring-changed":
        "op #{i} input graph wiring changed",
    "graph-extends-beyond-epoch":
        "op #{i} ({op}) input graph extends beyond the captured epoch "
        "or was rewired",
    "param-identity-changed":
        "op #{i} ({op}) parameter identity changed",
    "watch-not-captured":
        "watched tensor {name!r} is not a captured node",
    "derived-source-outside":
        "derived constant source is outside the captured epoch",
    "param-storage-rebound":
        "parameter storage was rebound",
    # -- served forward replay (autodiff/trace.py ForwardJIT) ---------------
    "forward-snapshot":
        "op #{i} ({op}) reads a constant or operator that is a new object "
        "in each captured forward; a served plan binds no value snapshots",
    "forward-replay-raised":
        "forward replay raised {error}",
    # -- stacked-backend blockers (training/stacked.py, fastpath.py) --------
    "stack-no-forward":
        "model {model!r} has no stacked forward: {detail}",
    "stack-no-backward":
        "model {model!r} has no stacked training step: {detail}",
    "stack-learned-graph":
        "learned-graph export requires per-individual execution",
    "stack-optimizer":
        "optimizer {optimizer!r} has no lane-masked implementation "
        "(only 'adam')",
    "stack-loss":
        "loss {loss!r} has no lane-wise form",
    "stack-callbacks":
        "callbacks {unsupported} are not lane-maskable",
}
_PATTERNS: dict[str, "re.Pattern[str]"] = {
    key: _compile(template) for key, template in HAZARDS.items()}


def reason(key: str, **fields) -> str:
    """Format the canonical diagnostic for hazard ``key``."""
    return HAZARDS[key].format(**fields)


def match_reason(text: str | None) -> str | None:
    """Map a runtime diagnostic back to its hazard key (None if unknown).

    Templates with holes match any concrete rendering, including the
    ``(retrace budget exhausted)`` suffix appended when the JIT gives up.
    """
    if not text:
        return None
    for key, pattern in _PATTERNS.items():
        if pattern.fullmatch(text):
            return key
    return None
