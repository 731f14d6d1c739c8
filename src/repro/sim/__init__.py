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
