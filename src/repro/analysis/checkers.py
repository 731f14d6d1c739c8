"""AST checkers for the determinism and units-discipline rules.

One :class:`DeterminismVisitor` pass covers CTMS101-105 and CTMS201.  The
visitor is deliberately conservative: it flags patterns it can prove from
the syntax alone (a float literal in a delay expression, a call through a
``random`` module alias) and stays silent on anything it cannot see
through (a float smuggled in via a variable).  The dynamic tie-break
sanitizer (:mod:`repro.sim.sanitizer`) exists precisely to catch what
static analysis cannot.
"""

from __future__ import annotations

import ast
from operator import itemgetter
from typing import Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    CONTROL_POLICY_NAMES,
    GLOBAL_RANDOM_FUNCTIONS,
    PROCESS_MACHINERY_MODULES,
    RULES,
    WALL_CLOCK_DATETIME_METHODS,
    WALL_CLOCK_TIME_FUNCTIONS,
)

#: Calendar entry points whose first positional argument is a delay or an
#: absolute simulated time, both integer nanoseconds.
_SCHEDULING_METHODS = frozenset({"schedule", "at", "timeout"})

#: Unit-conversion helpers that *return* floats (and so must never feed a
#: delay without an int()/round() around them).
_FLOAT_RETURNING_HELPERS = frozenset({"to_us", "to_ms", "to_sec", "float"})

#: Wrappers that launder any expression back to an int.
_INT_RETURNING_HELPERS = frozenset(
    {"int", "round", "len", "from_us", "from_ms", "from_sec"}
)

#: Nodes the traversal hands on to the layering check and the project
#: graph: import statements, and the call/attribute nodes the ``os.*``
#: taint-source scan reads.
_IMPORT_NODES = (ast.Import, ast.ImportFrom)
_COLLECTED_NODES = _IMPORT_NODES + (ast.Call, ast.Attribute)

#: Node classes no rule is visited at and no collector gathers: names,
#: literals and the expression contexts, 62% of the nodes of
#: ``src/repro``.  Rules read them through their parents
#: (``func.value.id``).  Their only children (a ``Name``'s context) are
#: leaves too, so neither the traversal below nor the dataflow pass's
#: call-site scan ever enters one.  A rule that must be visited at one of
#: these classes adds its ``visit_`` method and takes the class out of
#: this set; ``tests/analysis/test_single_pass.py`` holds the two together.
LEAF_NODES = frozenset({ast.Name, ast.Constant, ast.Load, ast.Store, ast.Del})


def def_anchor_line(node: ast.AST) -> int:
    """The ``def``/``class`` keyword's line, never a decorator's.

    ``node.lineno`` of a decorated definition pointed at the first
    decorator on older Pythons, and naive re-implementations (``min`` over
    the decorator list) repeat that bug -- which silently breaks inline
    suppressions, because the comment sits next to ``def`` while the
    finding anchors lines above it.  Anchoring past the last decorator's
    end is deterministic on every version.
    """
    line = getattr(node, "lineno", 1)
    for deco in getattr(node, "decorator_list", []):
        line = max(line, getattr(deco, "end_lineno", deco.lineno) + 1)
    return line


def call_anchor(node: ast.Call) -> ast.AST:
    """What a call-site finding anchors to: the call's opening line.

    For a multi-line call the argument expressions start on later lines;
    anchoring findings at the argument while documenting "suppress on the
    call's opening line" made suppressions silently ineffective.  All
    call-site findings now anchor at the call node itself.
    """
    return node


def _call_name(func: ast.expr) -> str:
    """The trailing identifier of a call target (``a.b.c()`` -> ``"c"``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_floaty(node: ast.expr) -> bool:
    """True when the expression is provably float-typed.

    ``max``/``min``/``abs`` pass through their argument types, so they are
    floaty exactly when some argument is; true division is always floaty.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floaty(node.left) or _is_floaty(node.right)
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in _FLOAT_RETURNING_HELPERS:
            return True
        if name in {"max", "min", "abs"}:
            return any(_is_floaty(arg) for arg in node.args)
        return False
    if isinstance(node, ast.IfExp):
        return _is_floaty(node.body) or _is_floaty(node.orelse)
    return False


def _launders_to_int(node: ast.expr) -> bool:
    """True when the expression's outermost operation guarantees an int."""
    return (
        isinstance(node, ast.Call)
        and _call_name(node.func) in _INT_RETURNING_HELPERS
    )


class DeterminismVisitor(ast.NodeVisitor):
    """Single-pass checker for CTMS101/102/103/104/105/201/303/304."""

    def __init__(
        self,
        path: str,
        *,
        rng_home: bool = False,
        process_home: bool = False,
        control_home: bool = False,
    ) -> None:
        self.path = path
        #: True for repro/sim/rng.py, the one sanctioned home of raw
        #: ``random`` machinery (CTMS101/102/105 are off there).
        self.rng_home = rng_home
        #: True for repro/experiments/fleet.py, the one sanctioned home of
        #: process machinery and host clocks (CTMS103/303 are off there --
        #: a supervisor cannot time out a hung worker on simulated time).
        self.process_home = process_home
        #: True for repro/core/control.py, the one sanctioned home of
        #: control-plane policy decisions (CTMS304 is off there).
        self.control_home = control_home
        self.findings: list[Finding] = []
        self._random_aliases: set[str] = set()
        self._time_aliases: set[str] = set()
        self._datetime_module_aliases: set[str] = set()
        self._datetime_type_aliases: set[str] = set()
        #: (depth, node) for every node of ``_COLLECTED_NODES``, in visit
        #: order; :meth:`collected_nodes` turns it into ``ast.walk`` order.
        self._collected: list[tuple[int, ast.AST]] = []
        self._depth = 0

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def generic_visit(self, node: ast.AST) -> None:
        """Visit every child but the leaves, recording the collected nodes.

        The stock child iteration, inlined over ``node._fields``: the same
        children in the same order, less those in :data:`LEAF_NODES`.
        """
        depth = self._depth = self._depth + 1
        for field in node._fields:
            value = getattr(node, field, None)
            for child in value if isinstance(value, list) else (value,):
                if type(child) in LEAF_NODES or not isinstance(child, ast.AST):
                    continue
                if isinstance(child, _COLLECTED_NODES):
                    self._collected.append((depth, child))
                self.visit(child)
        self._depth = depth - 1

    def collected_nodes(
        self,
    ) -> tuple[list[ast.Import | ast.ImportFrom], list[ast.Call | ast.Attribute]]:
        """The import nodes and the call/attribute nodes, in ``ast.walk`` order.

        ``ast.walk`` is breadth-first and this visitor depth-first, but
        both take a node's children in the same order, so a stable sort of
        the depth-first order by depth *is* the breadth-first order.  The
        import maps and source lists the graph builds from these stay
        exactly what separate ``ast.walk`` passes produced.
        """
        imports: list[ast.Import | ast.ImportFrom] = []
        refs: list[ast.Call | ast.Attribute] = []
        for _depth, node in sorted(self._collected, key=itemgetter(0)):
            (imports if isinstance(node, _IMPORT_NODES) else refs).append(node)
        return imports, refs

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        if rule_id == "CTMS103" and self.process_home:
            return  # the fleet supervisor lives on the host clock
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
    # imports: track aliases, flag `from random import ...`
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(local)
            elif alias.name == "time":
                self._time_aliases.add(local)
            elif alias.name == "datetime":
                self._datetime_module_aliases.add(local)
            self._check_process_machinery(alias.name.split(".")[0], node)
        self.generic_visit(node)

    def _check_process_machinery(self, top_module: str, node: ast.stmt) -> None:
        """CTMS303: process/thread machinery outside the fleet module."""
        if self.process_home or top_module not in PROCESS_MACHINERY_MODULES:
            return
        self._emit(
            "CTMS303",
            node,
            f"`{top_module}` imported outside the fleet supervisor "
            "(repro/experiments/fleet.py)",
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_control_policy(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_control_policy(node)
        self.generic_visit(node)

    def _check_control_policy(self, node: ast.AST) -> None:
        """CTMS304: policy decisions outside the session control plane."""
        name = getattr(node, "name", "")
        if self.control_home or name not in CONTROL_POLICY_NAMES:
            return
        anchored = ast.copy_location(ast.Pass(), node)
        anchored.lineno = def_anchor_line(node)
        self._emit(
            "CTMS304",
            anchored,
            f"control-plane policy `{name}` defined outside "
            "repro/core/control.py",
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_process_machinery(node.module.split(".")[0], node)
        if node.module == "random" and not self.rng_home:
            names = ", ".join(a.name for a in node.names)
            self._emit(
                "CTMS105", node, f"`from random import {names}` outside sim/rng.py"
            )
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCTIONS:
                    self._emit(
                        "CTMS103",
                        node,
                        f"`from time import {alias.name}` pulls a wall clock "
                        "into a simulated path",
                    )
        if node.module == "datetime":
            for alias in node.names:
                if alias.name in {"datetime", "date"}:
                    self._datetime_type_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: global random, unseeded Random, wall clocks, float delays
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base in self._random_aliases and not self.rng_home:
                if attr in GLOBAL_RANDOM_FUNCTIONS:
                    self._emit(
                        "CTMS101",
                        node,
                        f"random.{attr}() draws from the shared global RNG",
                    )
                elif attr == "Random" and not node.args and not node.keywords:
                    self._emit(
                        "CTMS102",
                        node,
                        "random.Random() without a seed is wall-clock seeded",
                    )
            if base in self._time_aliases and attr in WALL_CLOCK_TIME_FUNCTIONS:
                self._emit("CTMS103", node, f"time.{attr}() reads the host clock")
            if (
                base in self._datetime_type_aliases
                and attr in WALL_CLOCK_DATETIME_METHODS
            ):
                self._emit("CTMS103", node, f"{base}.{attr}() reads the host clock")
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            # datetime.datetime.now() through the module alias.
            inner = func.value
            if (
                isinstance(inner.value, ast.Name)
                and inner.value.id in self._datetime_module_aliases
                and inner.attr in {"datetime", "date"}
                and func.attr in WALL_CLOCK_DATETIME_METHODS
            ):
                self._emit(
                    "CTMS103",
                    node,
                    f"datetime.{inner.attr}.{func.attr}() reads the host clock",
                )
        self._check_float_delay(node)
        self.generic_visit(node)

    def _check_float_delay(self, node: ast.Call) -> None:
        """CTMS201: float expressions feeding the event calendar."""
        name = _call_name(node.func)
        candidates: list[tuple[str, ast.expr]] = []
        if name in _SCHEDULING_METHODS and isinstance(node.func, ast.Attribute):
            if node.args:
                candidates.append((f"{name}() delay", node.args[0]))
        for kw in node.keywords:
            if kw.arg and kw.arg.endswith("_ns"):
                candidates.append((f"{kw.arg}=", kw.value))
        for label, expr in candidates:
            if _is_floaty(expr) and not _launders_to_int(expr):
                self._emit(
                    "CTMS201",
                    call_anchor(node),
                    f"float-typed expression passed as {label} (sim time is integer ns)",
                )

    # ------------------------------------------------------------------
    # loops: unordered iteration that schedules
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        reason = self._unordered_iterable(node.iter)
        if reason is not None:
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in (_SCHEDULING_METHODS | {"process"})
                ):
                    self._emit(
                        "CTMS104",
                        node,
                        f"loop over {reason} schedules events; hash order would "
                        "leak into the calendar",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _unordered_iterable(node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in {
                "set",
                "frozenset",
            }:
                return f"{node.func.id}(...)"
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return ".keys()"
        return None


def check_source(
    source: str,
    path: str,
    *,
    rng_home: bool = False,
    process_home: bool = False,
) -> list[Finding]:
    """Run the determinism/units pass over one module's source."""
    tree = ast.parse(source, filename=path)
    visitor = DeterminismVisitor(
        path, rng_home=rng_home, process_home=process_home
    )
    visitor.visit(tree)
    return visitor.findings
