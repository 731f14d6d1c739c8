"""Interprocedural determinism inference: taint over the call graph.

The per-file rules see a wall-clock read only where it happens; they are
blind to the function two modules away that *calls* the reader inside a
simulated path.  This pass closes that hole: every unsuppressed
nondeterminism source (wall clock, global/unseeded RNG, ``os.urandom``,
environment reads, unordered-iteration scheduling) seeds an *impure* set,
and impurity propagates caller-ward over the resolved call graph to a
fixed point.

Two rules report on the result:

* **CTMS111** -- a call site whose resolved callee is (transitively)
  impure, anchored at the *caller's* line so the finding lands where the
  refactor has to happen;
* **CTMS112** -- an impure function scheduled onto the event calendar
  (``.schedule()/.at()`` callback or a ``_fast`` twin), anchored at the
  function's ``def``.

The sanctioned homes (``sim/rng.py``, ``experiments/fleet.py``) are
boundaries: functions there are never impure and calls into them do not
propagate -- that is exactly what "sanctioned" means.  An inline
suppression on a source line (its per-file rule, or CTMS111 for sources
without one) cleanses the source: an audited read does not taint.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectGraph
from repro.analysis.rules import RULES

#: Keep witness chains readable: at most this many hops are spelled out.
_MAX_CHAIN = 4


def propagate_impurity(graph: ProjectGraph) -> dict[str, str]:
    """fid -> human-readable witness for every (transitively) impure function."""
    impure: dict[str, str] = {}
    depth: dict[str, int] = {}
    for module in graph.modules.values():
        if module.is_boundary:
            continue
        for qualname, fn in module.functions.items():
            live = [s for s in fn.sources if not s["suppressed"]]
            if live:
                fid = graph.fid(module, qualname)
                src = live[0]
                impure[fid] = f"{src['kind']} at {module.path}:{src['line']}"
                depth[fid] = 0

    callers: dict[str, list[tuple[str, int]]] = {}
    for caller, callee, line in graph.edges():
        callers.setdefault(callee, []).append((caller, line))

    queue = deque(sorted(impure))
    while queue:
        callee = queue.popleft()
        for caller, line in callers.get(callee, []):
            if caller in impure:
                continue
            module, _fn = graph.functions[caller]
            if module.is_boundary:
                continue
            hops = depth[callee] + 1
            if hops <= _MAX_CHAIN:
                witness = f"{callee} -> {impure[callee]}"
            else:
                witness = f"{callee} -> ... -> a nondeterminism source"
            impure[caller] = witness
            depth[caller] = hops
            queue.append(caller)
    return impure


def check_taint(graph: ProjectGraph) -> list[Finding]:
    """CTMS111/112 findings over a linked project graph."""
    impure = propagate_impurity(graph)
    findings: list[Finding] = []

    rule111 = RULES["CTMS111"]
    for module in graph.modules.values():
        if module.is_boundary:
            continue
        for qualname, fn in module.functions.items():
            for record in fn.calls:
                callee = graph.resolve(module, qualname, record.ref)
                if callee is None or callee not in impure:
                    continue
                callee_module, _ = graph.functions[callee]
                if callee_module.is_boundary:
                    continue
                findings.append(
                    Finding(
                        file=module.path,
                        line=record.line,
                        col=record.col,
                        rule=rule111.id,
                        severity=rule111.severity,
                        message=(
                            f"call to {callee}() transitively reaches a "
                            f"nondeterminism source ({impure[callee]})"
                        ),
                        hint=rule111.hint,
                    )
                )

    rule112 = RULES["CTMS112"]
    reported: set[str] = set()
    for module in graph.modules.values():
        for qualname, fn in module.functions.items():
            for record in fn.calls:
                if record.callback is None:
                    continue
                scheduled = graph.resolve(module, qualname, record.callback)
                if (
                    scheduled is None
                    or scheduled not in impure
                    or scheduled in reported
                ):
                    continue
                target_module, target_fn = graph.functions[scheduled]
                if target_module.is_boundary:
                    continue
                reported.add(scheduled)
                findings.append(
                    Finding(
                        file=target_module.path,
                        line=target_fn.line,
                        col=0,
                        rule=rule112.id,
                        severity=rule112.severity,
                        message=(
                            f"{scheduled} is scheduled on the event calendar "
                            f"(at {module.path}:{record.line}) but is "
                            f"nondeterministic ({impure[scheduled]})"
                        ),
                        hint=rule112.hint,
                    )
                )
    return findings


__all__ = ["check_taint", "propagate_impurity"]
