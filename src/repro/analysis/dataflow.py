"""Unit dataflow: a lightweight abstract interpreter over dimensions.

Every value the simulation trades in carries an implicit dimension --
integer nanoseconds, bytes, bytes-per-second, a dimensionless count --
and the worst bugs are the silent ones where a value changes dimension
without a visible conversion (a seconds-typed timeout fed to an ns
calendar scales every deadline by 1e9).  This pass tags expressions with
dimensions seeded from naming conventions (``*_ns``, ``*_bytes``, ...)
and known APIs (``Simulator.now``, ``units.SEC``, ``units.from_us``),
propagates them through assignments and arithmetic, and reports:

* **CTMS211** -- a provably float value bound to an integer-ns slot (a
  ``*_ns`` variable, parameter, or return), including floats that arrive
  through a variable two statements away (which the syntactic CTMS201
  cannot see);
* **CTMS212** -- values of incompatible dimensions mixed: ns vs seconds
  in ``+``/``-``, a seconds-typed argument for an ``*_ns`` parameter,
  bytes vs bits, including across function boundaries when the callee is
  resolved through the project graph.

The interpreter is deliberately modest: one forward pass per function,
no branch joins, and an unknown dimension silences every check -- the
aim is zero false positives on idiomatic code, not completeness.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.checkers import LEAF_NODES, _is_floaty, call_anchor
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    DATA_DIMENSIONS,
    DIMENSION_SUFFIXES,
    RATE_DIMENSIONS,
    RULES,
    SCHEDULING_METHODS,
    TIME_DIMENSIONS,
)

#: Names that *are* a dimension by convention, matched as whole words.
WORD_DIMENSIONS: dict[str, str] = {
    "ns": "ns",
    "now": "ns",
    "seconds": "s",
    "secs": "s",
    "nbytes": "bytes",
}

#: ``units.py`` scale constants (integer ns per unit).  Multiplying by one
#: converts *to* ns; true-dividing by one converts *from* ns.
UNIT_CONSTANTS: dict[str, str] = {
    "NS": "ns",
    "US": "us",
    "MS": "ms",
    "SEC": "s",
    "MINUTE": "s",
    "HOUR": "s",
    "DAY": "s",
}

_NS_RETURNING = frozenset({"from_us", "from_ms", "from_sec"})
_FLOAT_TIME_RETURNING = {"to_us": "us", "to_ms": "ms", "to_sec": "s"}
#: Name prefixes exempt from suffix-based dimension inference: ``from_us``
#: names its *input* unit, not its result.
_CONVERSION_PREFIXES = ("from_", "to_", "as_", "is_", "per_")


@functools.cache
def dim_of_name(name: str) -> Optional[str]:
    """The dimension a naming convention assigns, or None.

    Memoized: a pure function of the string, asked again for every
    occurrence of the same name.
    """
    if not name or name.startswith(_CONVERSION_PREFIXES):
        return None
    if name in WORD_DIMENSIONS:
        return WORD_DIMENSIONS[name]
    lowered = name.lower()
    for suffix, dim in DIMENSION_SUFFIXES:
        if lowered.endswith(suffix):
            return dim
    if lowered.endswith("_s"):
        return "s"
    return None


def incompatible(a: Optional[str], b: Optional[str]) -> bool:
    """True when mixing the two dimensions is a reportable unit error.

    ``count`` (and unknown) mix with anything -- scalars multiply times
    and sizes all day.  Within a family (ns vs s, bytes vs bits) and
    across the time/data/rate families the mix is flagged.
    """
    if a is None or b is None or a == b or "count" in (a, b):
        return False
    families = (TIME_DIMENSIONS, DATA_DIMENSIONS, RATE_DIMENSIONS)
    a_fam = next((f for f in families if a in f), None)
    b_fam = next((f for f in families if b in f), None)
    return a_fam is not None and b_fam is not None


def symbolic_ref(expr: ast.expr) -> Optional[list]:
    """A serializable, link-time-resolvable description of a call target.

    ``["name", "foo"]`` for a bare name, ``["self", "meth"]`` for
    ``self.meth``, ``["attr", "a.b", "meth"]`` for a (possibly dotted)
    qualified access; None when the target is dynamic.
    """
    if isinstance(expr, ast.Name):
        return ["name", expr.id]
    if isinstance(expr, ast.Attribute):
        base = dotted_name(expr.value)
        if base == "self":
            return ["self", expr.attr]
        if base is not None:
            return ["attr", base, expr.attr]
    return None


def dotted_name(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain of names, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        inner = dotted_name(expr.value)
        return None if inner is None else f"{inner}.{expr.attr}"
    return None


@dataclass
class Value:
    """The abstract value: a dimension (or None) plus float-ness."""

    dim: Optional[str] = None
    floaty: bool = False


@dataclass
class CallRecord:
    """One call site, as the summary serializes it."""

    line: int
    col: int
    ref: Optional[list]
    sched: Optional[str]
    args: list[Value] = field(default_factory=list)
    kwargs: dict[str, Value] = field(default_factory=dict)
    #: Symbolic ref of the callable scheduled onto the calendar, when this
    #: is a ``.schedule()/.at()`` call (or a ``_fast`` twin) with a
    #: resolvable callback arg.
    callback: Optional[list] = None

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "col": self.col,
            "ref": self.ref,
            "sched": self.sched,
            "args": [[v.dim, v.floaty] for v in self.args],
            "kwargs": {k: [v.dim, v.floaty] for k, v in self.kwargs.items()},
            "cb": self.callback,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CallRecord":
        return cls(
            line=d["line"],
            col=d["col"],
            ref=d["ref"],
            sched=d["sched"],
            args=[Value(dim, floaty) for dim, floaty in d["args"]],
            kwargs={
                k: Value(dim, floaty) for k, (dim, floaty) in d["kwargs"].items()
            },
            callback=d["cb"],
        )


class FunctionAnalyzer:
    """One forward pass over a function (or module) body.

    Produces the call records the project graph links, the inferred
    return dimension, and the intra-function CTMS211/212 findings.
    """

    def __init__(
        self,
        name: str,
        args: Optional[ast.arguments],
        body: list[ast.stmt],
        path: str,
        *,
        returns_float: bool = False,
    ) -> None:
        self.name = name
        self.path = path
        self.body = body
        #: An explicit ``-> float`` annotation is a *visible* boundary --
        #: a declared float statistic about ns values is not the silent
        #: contamination CTMS211 hunts.
        self.returns_float = returns_float
        self.env: dict[str, Value] = {}
        self.calls: list[CallRecord] = []
        self.findings: list[Finding] = []
        self._return_dims: set[Optional[str]] = set()
        params: list[str] = []
        if args is not None:
            params = [a.arg for a in args.posonlyargs + args.args]
        self.is_method = bool(params) and params[0] in ("self", "cls")
        self.params = params[1:] if self.is_method else params
        kwonly = [a.arg for a in args.kwonlyargs] if args is not None else []
        for p in self.params + kwonly:
            dim = dim_of_name(p)
            if dim:
                self.env[p] = Value(dim)

    # ------------------------------------------------------------------
    def run(self) -> "FunctionAnalyzer":
        for stmt in self.body:
            self._stmt(stmt)
        return self

    @property
    def returns_dim(self) -> Optional[str]:
        dims = {d for d in self._return_dims if d is not None}
        return dims.pop() if len(dims) == 1 else None

    # ------------------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = RULES[rule_id]
        self.findings.append(
            Finding(
                file=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule.id,
                severity=rule.severity,
                message=message,
                hint=rule.hint,
            )
        )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._record_calls(stmt.value)
            value = self._infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_calls(stmt.value)
                self._bind(stmt.target, self._infer(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._record_calls(stmt.value)
            target_dim = self._target_dim(stmt.target)
            value = self._infer(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and incompatible(
                target_dim, value.dim
            ):
                self._emit(
                    "CTMS212",
                    stmt,
                    f"augmented assignment mixes {target_dim} and {value.dim}",
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record_calls(stmt.value)
                value = self._infer(stmt.value)
                self._return_dims.add(value.dim)
                self._check_return(stmt, value)
            else:
                self._return_dims.add(None)
        elif isinstance(stmt, ast.Expr):
            self._record_calls(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._record_calls(stmt.test)
            for s in stmt.body + stmt.orelse:
                self._stmt(s)
        elif isinstance(stmt, ast.For):
            self._record_calls(stmt.iter)
            self._forget(stmt.target)
            for s in stmt.body + stmt.orelse:
                self._stmt(s)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._record_calls(item.context_expr)
            for s in stmt.body:
                self._stmt(s)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._stmt(s)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later but in this function's sphere; fold
            # their calls/sources into the encloser (conservative).
            for s in stmt.body:
                self._stmt(s)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            self._record_calls(stmt)
        elif isinstance(stmt, ast.ClassDef):
            pass  # nested classes are out of scope for the light pass
        else:
            self._record_calls(stmt)

    def _forget(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.env.pop(node.id, None)

    def _target_dim(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            got = self.env.get(target.id)
            return got.dim if got else dim_of_name(target.id)
        if isinstance(target, ast.Attribute):
            return dim_of_name(target.attr)
        return None

    def _bind(self, target: ast.expr, value: Value, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._forget(elt)
            return
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return
        declared = dim_of_name(name)
        if declared == "ns" and value.floaty:
            self._emit(
                "CTMS211",
                stmt,
                f"float-typed value bound to `{name}` (integer-ns by convention)",
            )
        elif declared is not None and incompatible(declared, value.dim):
            self._emit(
                "CTMS212",
                stmt,
                f"{value.dim}-dimensioned value bound to `{name}` ({declared})",
            )
        if isinstance(target, ast.Name):
            self.env[name] = Value(declared or value.dim, value.floaty)

    def _check_return(self, stmt: ast.Return, value: Value) -> None:
        declared = dim_of_name(self.name.rsplit(".", 1)[-1])
        if declared == "ns" and value.floaty and not self.returns_float:
            self._emit(
                "CTMS211",
                stmt,
                f"`{self.name}` is *_ns-named but returns a float",
            )
        elif declared is not None and incompatible(declared, value.dim):
            self._emit(
                "CTMS212",
                stmt,
                f"`{self.name}` ({declared} by name) returns a {value.dim} value",
            )

    # ------------------------------------------------------------------
    # call sites
    # ------------------------------------------------------------------
    def _record_calls(self, node: ast.AST) -> None:
        """Record every call under ``node``, breadth-first.

        The stdlib walk's order, less the leaf nodes
        (:data:`~repro.analysis.checkers.LEAF_NODES`), which it never
        enters: no call sits under one, so the calls come out the same.
        """
        todo = [node]
        for sub in todo:  # grows as it is read: a breadth-first queue
            if isinstance(sub, ast.Call):
                self._record_call(sub)
            for field in sub._fields:
                value = getattr(sub, field, None)
                for child in value if isinstance(value, list) else (value,):
                    if type(child) not in LEAF_NODES and isinstance(child, ast.AST):
                        todo.append(child)

    def _record_call(self, call: ast.Call) -> None:
        ref = symbolic_ref(call.func)
        name = ref[-1] if ref else ""
        sched = (
            name
            if name in SCHEDULING_METHODS and isinstance(call.func, ast.Attribute)
            else None
        )
        record = CallRecord(
            line=call_anchor(call).lineno,
            col=call.col_offset,
            ref=ref,
            sched=sched,
            args=[
                self._infer(a) if not isinstance(a, ast.Starred) else Value()
                for a in call.args
            ],
            kwargs={
                kw.arg: self._infer(kw.value)
                for kw in call.keywords
                if kw.arg is not None
            },
        )
        if sched is not None and sched != "timeout" and len(call.args) >= 2:
            record.callback = symbolic_ref(call.args[1])
        self.calls.append(record)
        self._check_call_units(call, record)

    def _check_call_units(self, call: ast.Call, record: CallRecord) -> None:
        # Positional delay of the calendar entry points: must be time-ns.
        if record.sched and record.args:
            first = record.args[0]
            if first.dim is not None and incompatible("ns", first.dim):
                self._emit(
                    "CTMS212",
                    call_anchor(call),
                    f"{first.dim}-dimensioned delay passed to .{record.sched}() "
                    "(the calendar is integer ns)",
                )
        # Keyword args carry their expected dimension in their name.
        for kw in call.keywords:
            if kw.arg is None:
                continue
            expected = dim_of_name(kw.arg)
            if expected is None:
                continue
            value = record.kwargs[kw.arg]
            if expected == "ns" and value.floaty and not _is_floaty(kw.value):
                # Syntactically floaty *_ns kwargs are CTMS201's domain;
                # this catches floats that arrived through a variable.
                self._emit(
                    "CTMS211",
                    call_anchor(call),
                    f"float-typed value passed as {kw.arg}= (integer ns expected)",
                )
            elif incompatible(expected, value.dim):
                self._emit(
                    "CTMS212",
                    call_anchor(call),
                    f"{value.dim}-dimensioned value passed as {kw.arg}= "
                    f"({expected} expected)",
                )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _infer(self, expr: ast.expr) -> Value:
        if isinstance(expr, ast.Name):
            if expr.id in UNIT_CONSTANTS:
                return Value("ns")
            got = self.env.get(expr.id)
            return Value(got.dim, got.floaty) if got else Value(dim_of_name(expr.id))
        if isinstance(expr, ast.Attribute):
            if expr.attr in UNIT_CONSTANTS:
                return Value("ns")
            return Value(dim_of_name(expr.attr))
        if isinstance(expr, ast.Constant):
            return Value(None, isinstance(expr.value, float))
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand)
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        if isinstance(expr, ast.IfExp):
            a, b = self._infer(expr.body), self._infer(expr.orelse)
            return Value(a.dim if a.dim == b.dim else None, a.floaty or b.floaty)
        if isinstance(expr, ast.Call):
            return self._call_value(expr)
        return Value()

    @staticmethod
    def _unit_constant(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name) and expr.id in UNIT_CONSTANTS:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in UNIT_CONSTANTS:
            return expr.attr
        return None

    def _binop(self, expr: ast.BinOp) -> Value:
        a, b = self._infer(expr.left), self._infer(expr.right)
        floaty = a.floaty or b.floaty
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if incompatible(a.dim, b.dim):
                self._emit(
                    "CTMS212",
                    expr,
                    f"`{'+' if isinstance(expr.op, ast.Add) else '-'}` mixes "
                    f"{a.dim} and {b.dim}",
                )
                return Value(None, floaty)
            return Value(a.dim or b.dim, floaty)
        if isinstance(expr.op, ast.Mult):
            # `x * SEC` converts a scalar (or lower unit) *to* ns.
            if self._unit_constant(expr.left) or self._unit_constant(expr.right):
                return Value("ns", floaty)
            if a.dim in RATE_DIMENSIONS and b.dim == "s":
                return Value("bytes" if a.dim == "Bps" else "bits", floaty)
            if b.dim in RATE_DIMENSIONS and a.dim == "s":
                return Value("bytes" if b.dim == "Bps" else "bits", floaty)
            # A dimension survives multiplication only by a plain scalar
            # (a literal or a count).  An unknown *named* factor is very
            # often a per-unit rate (`nbytes * ns_per_byte` is ns, not
            # bytes), so it deliberately erases the dimension.
            if a.dim is None or a.dim == "count":
                if a.dim == "count" or isinstance(expr.left, ast.Constant):
                    return Value(b.dim, floaty)
                return Value(None, floaty)
            if b.dim is None or b.dim == "count":
                if b.dim == "count" or isinstance(expr.right, ast.Constant):
                    return Value(a.dim, floaty)
                return Value(None, floaty)
            return Value(None, floaty)
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            floaty = floaty or isinstance(expr.op, ast.Div)
            # `x_ns / US` converts ns *to* the constant's unit.  Only a
            # known-ns numerator converts; an unknown numerator divided by
            # SEC is usually a per-second normalization, not a time.
            const = self._unit_constant(expr.right)
            if const and a.dim == "ns":
                return Value(UNIT_CONSTANTS[const], floaty)
            if a.dim is not None and a.dim == b.dim:
                return Value("count", floaty)
            if a.dim == "bytes" and b.dim == "s":
                return Value("Bps", floaty)
            if a.dim == "bits" and b.dim == "s":
                return Value("bps", floaty)
            # Same scalar-only survival rule as multiplication.
            if b.dim == "count" or isinstance(expr.right, ast.Constant):
                return Value(a.dim, floaty)
            return Value(None, floaty)
        if isinstance(expr.op, ast.Mod):
            return Value(a.dim, floaty)
        return Value(None, floaty)

    def _call_value(self, call: ast.Call) -> Value:
        ref = symbolic_ref(call.func)
        name = ref[-1] if ref else ""
        if name in ("int", "round"):
            inner = self._infer(call.args[0]) if call.args else Value()
            return Value(inner.dim, False)
        if name == "len":
            return Value("count")
        if name == "float":
            inner = self._infer(call.args[0]) if call.args else Value()
            return Value(inner.dim, True)
        if name in _NS_RETURNING:
            return Value("ns")
        if name in _FLOAT_TIME_RETURNING:
            return Value(_FLOAT_TIME_RETURNING[name], True)
        if name in ("min", "max", "abs", "sum"):
            values = [self._infer(a) for a in call.args]
            dims = {v.dim for v in values if v.dim is not None}
            return Value(
                dims.pop() if len(dims) == 1 else None,
                any(v.floaty for v in values),
            )
        declared = dim_of_name(name)
        if declared is not None:
            return Value(declared)
        return Value()


def analyze_function(
    name: str,
    args: Optional[ast.arguments],
    body: list[ast.stmt],
    path: str,
    *,
    returns_float: bool = False,
) -> FunctionAnalyzer:
    """Run the unit pass over one function (or module) body."""
    return FunctionAnalyzer(
        name, args, body, path, returns_float=returns_float
    ).run()


# ----------------------------------------------------------------------
# cross-module phase (runs over the linked project graph)
# ----------------------------------------------------------------------
def check_graph_units(graph) -> list[Finding]:
    """CTMS211/212 across function boundaries: positional args vs the
    resolved callee's parameter names.

    Keyword arguments need no resolution (their expected dimension is in
    the keyword itself) and are checked during the per-file pass; this
    phase adds what only the project graph knows -- which parameter a
    positional argument lands in.
    """
    findings: list[Finding] = []
    for module in graph.modules.values():
        for qualname, fn in module.functions.items():
            for record in fn.calls:
                target = graph.resolve(module, qualname, record.ref)
                if target is None:
                    continue
                callee_module, callee = graph.functions[target]
                for i, value in enumerate(record.args):
                    if i >= len(callee.params):
                        break
                    expected = dim_of_name(callee.params[i])
                    if expected is None:
                        continue
                    rule = None
                    if expected == "ns" and value.floaty:
                        rule, msg = "CTMS211", (
                            f"float-typed argument for `{callee.params[i]}` of "
                            f"{graph.display(target)}() (integer ns expected)"
                        )
                    elif incompatible(expected, value.dim):
                        rule, msg = "CTMS212", (
                            f"{value.dim}-dimensioned argument for "
                            f"`{callee.params[i]}` of {graph.display(target)}() "
                            f"({expected} expected)"
                        )
                    if rule is not None:
                        meta = RULES[rule]
                        findings.append(
                            Finding(
                                file=module.path,
                                line=record.line,
                                col=record.col,
                                rule=meta.id,
                                severity=meta.severity,
                                message=msg,
                                hint=meta.hint,
                            )
                        )
    return findings


__all__ = [
    "CallRecord",
    "FunctionAnalyzer",
    "Value",
    "analyze_function",
    "check_graph_units",
    "dim_of_name",
    "dotted_name",
    "incompatible",
    "symbolic_ref",
]
