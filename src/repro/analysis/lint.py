"""AST lint rules enforcing the reproduction's correctness invariants.

Every rule is a function registered in :data:`RULES` under a stable
``REPROxxx`` code.  Rules receive a :class:`FileContext` (parsed tree +
path classification) and yield :class:`Finding` records; suppression via
``# repro: noqa[...]`` comments is applied afterwards in
:func:`lint_source`.

Rule scoping follows the shape of the repo rather than a config file:

* ``REPRO001`` (legacy global RNG) exempts ``repro/training/seeding.py``,
  the one sanctioned home for seed derivation.
* ``REPRO003`` (tensor mutation) exempts ``repro/autodiff`` — the engine
  itself implements the bookkeeping — and test code, which mutates
  tensors on purpose to probe edge cases.
* ``REPRO005`` (dtype literals) applies only inside ``repro/nn`` and
  ``repro/models``, where a hard-coded ``np.float32``/``np.float64``
  bypasses :func:`repro.autodiff.get_default_dtype` and silently upcasts
  every downstream array.
* ``REPRO006`` (bare except) applies to library code, not tests.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator

__all__ = ["Finding", "FileContext", "RULES", "lint_source", "lint_file",
           "lint_paths", "render_rule_table"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


class FileContext:
    """Parsed file plus the path classification the rules scope on."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        parts = PurePosixPath(Path(path).as_posix()).parts
        name = parts[-1] if parts else ""
        self.is_test = "tests" in parts or name.startswith(("test_", "bench_"))
        self.in_repro = "repro" in parts
        self.is_library = self.in_repro and not self.is_test
        self.in_autodiff = self.is_library and "autodiff" in parts
        self.in_seeding = self.is_library and parts[-2:] == ("training",
                                                            "seeding.py")
        self.dtype_scoped = self.is_library and ("nn" in parts
                                                 or "models" in parts)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(self.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), code, message)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------

RuleFunc = Callable[[FileContext], Iterator[Finding]]

#: code -> (one-line summary, rule function); populated by @_rule.
RULES: "dict[str, tuple[str, RuleFunc]]" = {}


def _rule(code: str, summary: str):
    def register(func: RuleFunc) -> RuleFunc:
        RULES[code] = (summary, func)
        return func

    return register


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.seed`` -> ["np", "random", "seed"]; [] if not a chain."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return names[::-1]
    return []


# ----------------------------------------------------------------------
# REPRO001 — legacy global-state numpy RNG
# ----------------------------------------------------------------------

_LEGACY_RANDOM = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "normal", "uniform", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "bytes", "get_state", "set_state",
})


@_rule("REPRO001", "legacy global-state np.random.* call")
def _check_global_rng(ctx: FileContext) -> Iterator[Finding]:
    """Global-RNG draws break the serial-vs-parallel bit-identity guarantee.

    Worker processes inherit independent copies of numpy's global
    ``RandomState``, so any draw from it makes ``--jobs N`` results diverge
    from serial ones.  All randomness must flow through an explicit seeded
    ``np.random.Generator`` (``np.random.default_rng(derive_seed(...))``).
    """
    if ctx.in_seeding:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) == 3 and chain[0] in ("np", "numpy") \
                and chain[1] == "random" and chain[2] in _LEGACY_RANDOM:
            yield ctx.finding(
                node, "REPRO001",
                f"legacy global-state RNG call np.random.{chain[2]}() breaks "
                "serial/parallel bit-identity; draw from a seeded "
                "np.random.Generator (see repro.training.seeding.derive_seed)")


# ----------------------------------------------------------------------
# REPRO002 — nn.Module subclass missing super().__init__()
# ----------------------------------------------------------------------

#: Base-class names whose subclasses must chain __init__ (parameter and
#: submodule registration happens there; skipping it silently produces a
#: model whose parameters() is empty).
_MODULE_BASES = frozenset({"Module", "Forecaster"})


def _is_module_base(base: ast.expr) -> bool:
    if isinstance(base, ast.Name):
        return base.id in _MODULE_BASES
    if isinstance(base, ast.Attribute):
        return base.attr in _MODULE_BASES
    return False


def _calls_parent_init(init_def: ast.FunctionDef) -> bool:
    for node in ast.walk(init_def):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            # super().__init__(...) or ExplicitBase.__init__(self, ...)
            value = func.value
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id == "super":
                return True
            if isinstance(value, (ast.Name, ast.Attribute)):
                return True
    return False


@_rule("REPRO002", "nn.Module subclass missing super().__init__()")
def _check_super_init(ctx: FileContext) -> Iterator[Finding]:
    """A Module __init__ that skips super() never creates ``_parameters``.

    Attribute assignment then raises (best case) or silently registers
    nothing (when the subclass assigns no parameters directly), producing
    a model the optimizer cannot see.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_module_base(base) for base in node.bases):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                if not _calls_parent_init(item):
                    yield ctx.finding(
                        item, "REPRO002",
                        f"{node.name}.__init__ never calls "
                        "super().__init__(); parameters and submodules "
                        "will not be registered")


# ----------------------------------------------------------------------
# REPRO003 — Tensor .data/.grad writes outside no_grad
# ----------------------------------------------------------------------

def _is_no_grad_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "no_grad") or \
        (isinstance(func, ast.Attribute) and func.attr == "no_grad")


def _mutation_target(target: ast.expr) -> str | None:
    """Return "data"/"grad" if ``target`` writes through that attribute."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
        return node.attr
    return None


class _DataWriteVisitor(ast.NodeVisitor):
    """Collects ``x.data``/``x.grad`` writes outside ``with no_grad():``."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.no_grad_depth = 0
        self.findings: list[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        entered = sum(1 for item in node.items
                      if _is_no_grad_call(item.context_expr))
        self.no_grad_depth += entered
        self.generic_visit(node)
        self.no_grad_depth -= entered

    def _check(self, stmt: ast.stmt, targets: Iterable[ast.expr],
               value: ast.expr | None) -> None:
        if self.no_grad_depth:
            return
        for target in targets:
            attr = _mutation_target(target)
            if attr is None:
                continue
            # `p.grad = None` is the sanctioned zero_grad idiom.
            if attr == "grad" and isinstance(value, ast.Constant) \
                    and value.value is None:
                continue
            self.findings.append(self.ctx.finding(
                stmt, "REPRO003",
                f"write to Tensor.{attr} outside a no_grad() context; a "
                "recorded graph may still reference this storage — wrap in "
                "no_grad() (and use Tensor.copy_ for in-place updates so "
                "the version counter sees them)"))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node, (node.target,), None)
        self.generic_visit(node)


@_rule("REPRO003", "Tensor .data/.grad write outside no_grad()")
def _check_data_writes(ctx: FileContext) -> Iterator[Finding]:
    """Mutating tensor storage mid-graph corrupts gradients.

    VJP kernels read their inputs' *current* values, so a write
    between forward and backward silently differentiates the wrong data.
    The runtime version counter catches this at backward() time; the lint
    rule catches it at review time.
    """
    if not ctx.is_library or ctx.in_autodiff:
        return
    visitor = _DataWriteVisitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.findings


# ----------------------------------------------------------------------
# REPRO004 — unpicklable callables in callback configuration
# ----------------------------------------------------------------------

def _is_callbackspec_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "CallbackSpec":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "make":
        base = func.value
        return isinstance(base, ast.Name) and base.id == "CallbackSpec" \
            or isinstance(base, ast.Attribute) and base.attr == "CallbackSpec"
    return False


def _lambdas_in(node: ast.AST) -> Iterator[ast.Lambda]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            yield sub


@_rule("REPRO004", "lambda in CallbackSpec / callback registry")
def _check_callback_pickle(ctx: FileContext) -> Iterator[Finding]:
    """Callback specs must pickle to reach ``--jobs N`` worker processes.

    A lambda (or any local closure) inside a ``CallbackSpec``, a
    ``TrainerConfig(callbacks=...)``, or a ``CALLBACK_REGISTRY`` entry
    raises ``PicklingError`` only when the parallel path first ships a
    :class:`CohortCell` — far from where the spec was written.
    """
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            subtrees: list[ast.AST] = []
            if _is_callbackspec_call(node):
                subtrees = [*node.args, *(kw.value for kw in node.keywords)]
            elif isinstance(node.func, ast.Name) \
                    and node.func.id == "TrainerConfig":
                subtrees = [kw.value for kw in node.keywords
                            if kw.arg == "callbacks"]
            for subtree in subtrees:
                for lam in _lambdas_in(subtree):
                    yield ctx.finding(
                        lam, "REPRO004",
                        "lambda in callback configuration is unpicklable "
                        "and will fail inside --jobs N worker processes; "
                        "use a registry name + keyword params")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "CALLBACK_REGISTRY":
                    for lam in _lambdas_in(node.value):
                        yield ctx.finding(
                            lam, "REPRO004",
                            "lambda registered in CALLBACK_REGISTRY is "
                            "unpicklable in worker processes; register a "
                            "module-level class or function")


# ----------------------------------------------------------------------
# REPRO005 — hard-coded float dtype literals in nn/models
# ----------------------------------------------------------------------

@_rule("REPRO005", "hard-coded np.float32/np.float64 in nn/models")
def _check_dtype_literal(ctx: FileContext) -> Iterator[Finding]:
    """Layer/model code must respect the engine's switchable dtype.

    Experiments run float32 for speed while gradchecks run float64; a
    hard-coded literal silently upcasts every array it touches (numpy
    promotes float32 @ float64 to float64), costing the 2x speedup and
    masking precision bugs.  Deliberate full-precision numerics (eigen
    decompositions, closed-form solvers) carry ``# repro: noqa[REPRO005]``
    with a justification.
    """
    if not ctx.dtype_scoped:
        return
    for node in ast.walk(ctx.tree):
        chain = _attr_chain(node) if isinstance(node, ast.Attribute) else []
        if len(chain) == 2 and chain[0] in ("np", "numpy") \
                and chain[1] in ("float32", "float64"):
            yield ctx.finding(
                node, "REPRO005",
                f"hard-coded np.{chain[1]} bypasses "
                "repro.autodiff.get_default_dtype(); use the engine dtype "
                "or suppress with a justified noqa")


# ----------------------------------------------------------------------
# REPRO006 — bare except in library code
# ----------------------------------------------------------------------

@_rule("REPRO006", "bare except in library code")
def _check_bare_except(ctx: FileContext) -> Iterator[Finding]:
    """``except:`` swallows KeyboardInterrupt/SystemExit and real bugs.

    Library code must catch specific exceptions (or ``Exception`` with a
    comment when a boundary genuinely needs to be crash-proof).
    """
    if not ctx.is_library:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                node, "REPRO006",
                "bare except: catches SystemExit/KeyboardInterrupt and "
                "hides bugs; name the exception types")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9,\s]+)\])?", re.IGNORECASE)


def _noqa_map(source: str) -> dict[int, frozenset | None]:
    """line number -> suppressed codes (None = every code)."""
    suppressions: dict[int, frozenset | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
    return suppressions


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string; returns findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(path, error.lineno or 1, (error.offset or 1) - 1,
                        "REPRO000", f"syntax error: {error.msg}")]
    ctx = FileContext(path, source, tree)
    findings: list[Finding] = []
    for code, (_, rule) in RULES.items():
        findings.extend(rule(ctx))
    noqa = _noqa_map(source)
    for lineno, codes in sorted(noqa.items()):
        unknown = sorted(set(codes or ()) - set(RULES))
        if unknown:
            # A typo'd code suppresses nothing — surface it instead of
            # silently leaving the author thinking they are covered.
            warnings.warn(
                f"{path}:{lineno}: noqa lists unknown lint code(s) "
                f"{', '.join(unknown)} (known: {', '.join(RULES)})",
                stacklevel=2)
    kept = []
    for finding in findings:
        codes = noqa.get(finding.line, frozenset())
        if codes is None or finding.code in codes:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept


def render_rule_table() -> str:
    """Render :data:`RULES` as the Markdown table embedded in DESIGN.md.

    DESIGN.md carries this table between ``RULES:BEGIN``/``RULES:END``
    markers; a sync test regenerates it from the registry so the docs can
    never drift from the code.
    """
    lines = ["| Code | Checks for |", "|------|------------|"]
    lines += [f"| `{code}` | {summary} |"
              for code, (summary, _) in sorted(RULES.items())]
    return "\n".join(lines)


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def _collect(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)))
        else:
            files.append(p)
    return files


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint files and directory trees; returns all findings, path-sorted."""
    findings: list[Finding] = []
    for path in _collect(paths):
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
