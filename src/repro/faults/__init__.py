"""Unified fault injection (the environment the paper could not control).

The paper's prototype had to survive an environment that injured it at
every layer: station insertions purging the ring (Sections 4-5), soft
errors resetting the network, an adapter that loses frames "without telling
the transmitter", a shared CPU, and a disk with its own queue.  This
package makes every one of those injuries a first-class, seed-reproducible
object:

* :mod:`repro.faults.plan` -- :class:`FaultPlan`, a declarative schedule of
  timed/stochastic fault events (the taxonomy is documented in
  ``docs/FAULTS.md`` with paper citations per fault kind);
* :mod:`repro.faults.injectors` -- :class:`FaultInjector`, which arms a
  plan against a :class:`~repro.experiments.testbed.Testbed` and wounds the
  ring, the adapters/drivers, or the hosts at the scheduled instants;
* :mod:`repro.faults.invariants` -- :class:`StreamInvariantMonitor`, the
  defense-side watchdog that continuously asserts stream invariants
  (ordering, loss, inter-arrival deadline, playout underruns) and freezes a
  first-violation snapshot per invariant.

Chaos campaigns (:mod:`repro.experiments.chaos`, ``python -m repro chaos``)
sweep seeded random plans across transport configurations and report which
invariants held at which fault intensity.
"""
