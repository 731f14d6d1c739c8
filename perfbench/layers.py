"""Host time per layer, attributed from a cProfile run.

The layers are the ``repro`` subpackages, with ``experiments.fleet`` split
out of ``experiments``.  Code outside ``repro`` -- builtins, the standard
library -- has no layer of its own: its self time is charged to the
layer that called it, through any depth of non-``repro`` frames.
``other`` holds the bench harness, ``repro``'s top-level modules and
``repro.bench``.

:func:`attribute` works on the ``pstats`` form of a profile,
``{func: (cc, nc, tt, ct, callers)}`` with
``callers = {caller: (nc, cc, tt, ct)}``, so it can be tested on a
hand-built call chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

LAYERS = (
    "sim",
    "hardware",
    "ring",
    "unix",
    "drivers",
    "protocols",
    "core",
    "measure",
    "faults",
    "workloads",
    "obs",
    "experiments",
    "experiments.fleet",
    "analysis",
    "other",
)

Func = tuple[str, int, str]
LayerOf = Callable[[Func], Optional[str]]


def path_layer_map(repro_dir: Path, harness_dir: Path) -> LayerOf:
    """``layer_of`` for real profiles: map a function's file to its layer."""
    repro_prefix = str(repro_dir.resolve()) + "/"
    harness_prefix = str(harness_dir.resolve()) + "/"

    def layer_of(func: Func) -> Optional[str]:
        filename = func[0]
        if filename.startswith(harness_prefix):
            return "other"
        if not filename.startswith(repro_prefix):
            return None
        parts = filename[len(repro_prefix):].split("/")
        if len(parts) == 1:
            return "other"  # repro/__init__.py, cli.py, __main__.py
        if parts[:2] == ["experiments", "fleet.py"]:
            return "experiments.fleet"
        return parts[0] if parts[0] in LAYERS else "other"

    return layer_of


@dataclass
class LayerTimes:
    """Self time and inbound calls per layer for one profile."""

    self_s: dict[str, float]
    calls_in: dict[str, float]
    total_s: float


def _caller_mixes(stats: dict, layer_of: LayerOf) -> dict[Func, dict[str, float]]:
    """Each function's layer mix: one-hot for ``repro`` code, else the
    mix of its callers weighted by the time spent under each call edge."""
    mixes: dict[Func, dict[str, float]] = {}
    pending: list[Func] = []
    for func in stats:
        layer = layer_of(func)
        if layer is None:
            pending.append(func)
        else:
            mixes[func] = {layer: 1.0}
    # Fixed point over the non-repro call graph; recursion inside the
    # stdlib makes it cyclic, so iterate until the mixes stop moving.
    for _ in range(200):
        moved = 0.0
        for func in pending:
            edges = [
                (caller, edge)
                for caller, edge in stats[func][4].items()
                if caller != func and caller in mixes
            ]
            if not edges:
                continue
            weights = [edge[3] for _caller, edge in edges]
            if sum(weights) <= 0:
                weights = [edge[0] for _caller, edge in edges]
            total = sum(weights)
            if total <= 0:
                continue
            mix: dict[str, float] = {}
            for (caller, _edge), weight in zip(edges, weights):
                for layer, share in mixes[caller].items():
                    mix[layer] = mix.get(layer, 0.0) + share * weight / total
            old = mixes.get(func, {})
            moved = max(
                moved,
                max(abs(mix.get(k, 0.0) - old.get(k, 0.0)) for k in mix.keys() | old.keys()),
            )
            mixes[func] = mix
        if moved < 1e-12:
            break
    for func in pending:
        mixes.setdefault(func, {"other": 1.0})  # reached from no layer
    return mixes


def attribute(stats: dict, layer_of: LayerOf) -> LayerTimes:
    """Charge every function's self time to layers and count the calls
    that cross into each layer from another one."""
    mixes = _caller_mixes(stats, layer_of)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        for layer, share in mixes[func].items():
            self_s[layer] += tt * share
        layer = layer_of(func)
        if layer is None:
            continue
        if not callers:
            # Entered from the frame that switched the profiler on.
            if layer != "other":
                calls_in[layer] += nc
            continue
        for caller, edge in callers.items():
            caller_mix = mixes.get(caller, {"other": 1.0})
            calls_in[layer] += edge[0] * (1.0 - caller_mix.get(layer, 0.0))
    total = sum(entry[2] for entry in stats.values())
    return LayerTimes(self_s=self_s, calls_in=calls_in, total_s=total)
