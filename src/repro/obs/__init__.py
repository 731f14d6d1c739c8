"""Observability layer: spans, metrics, exporters, flight recorder.

``repro.obs`` is *observe-only* in exactly the sense ``repro.measure`` is:
it may read from any model layer but must never mutate model state,
schedule simulation events, or read a wall clock -- ctms-lint rule CTMS302
holds both packages to that contract.  Everything here rides inside hook
points the model already exposes (IRQ listeners, driver probes, ring
monitors, delivery handles), so a traced run replays the exact event
calendar of an untraced one.
"""
