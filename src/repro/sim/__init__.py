"""Discrete-event simulation kernel underlying the CTMS testbed.

Everything in :mod:`repro` runs on this kernel: simulated time is an integer
number of nanoseconds, events are scheduled on a binary heap, and long-lived
behaviours (device adapters, interrupt handlers, user processes, traffic
generators) are written as generator coroutines that yield
:class:`~repro.sim.engine.Event` objects.

The kernel is deliberately small and deterministic: given the same seed the
whole testbed replays the same microsecond-level schedule, which is what makes
the paper's histogram reproductions testable.
"""

from importlib import import_module

# The kernel imports nothing from the rest of repro (CTMS301), so this
# façade carries its own copy of ``repro._lazy_facade``'s lookup.
_EXPORTS = {
    "Divergence": "sanitizer",
    "Event": "engine",
    "Handle": "engine",
    "MS": "units",
    "NS": "units",
    "OrderRaceError": "sanitizer",
    "Process": "engine",
    "ProcessKilled": "engine",
    "RandomStreams": "rng",
    "SEC": "units",
    "SimulationError": "engine",
    "Simulator": "engine",
    "US": "units",
    "check_tiebreak_invariance": "sanitizer",
    "format_time": "units",
    "from_us": "units",
    "seeded_stream": "rng",
    "to_ms": "units",
    "to_us": "units",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        source = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{source}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
