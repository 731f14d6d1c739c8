#!/usr/bin/env python3
"""The measurement campaign's central control point, watching live.

Section 5.2.1: "If a packet was lost, had an extremely long inter-departure
or inter-arrival time, or there was an incorrect ordering of packets on the
transmitter and/or receiver, all machines were halted and a snapshot of the
data was taken.  We then examined the snapshots to decide what error had
occurred."

This example streams CTMSP under the watchdog, injects a Ring Purge burst
mid-run (a station "inserting into the ring"), and prints the snapshot the
controller froze at the moment of the anomaly -- the paper's debugging
workflow, end to end.

Run:  python examples/anomaly_watchdog.py
"""

from repro.core.session import CTMSSession
from repro.experiments.controller import CampaignController
from repro.experiments.testbed import HostConfig, Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC

bed = Testbed(seed=31)
tx = bed.add_host(HostConfig(name="transmitter"))
rx = bed.add_host(HostConfig(name="receiver"))
session = CTMSSession(tx.kernel, rx.kernel)
session.establish()

# The station insertion, declared up front: a burst of back-to-back
# purges lands 7 ms into the third second.
FaultInjector(
    bed, FaultPlan().purge_burst(2 * SEC + 7 * MS, count=10)
).arm()

controller = CampaignController(
    bed, tx, rx, session,
    max_interdeparture=40 * MS,   # the paper's worst-case bound
    max_interarrival=40 * MS,
    halt_on_anomaly=True,
)

print("Streaming under the watchdog...")
bed.run(2 * SEC)
assert controller.snapshot is None
print(f"  {session.stats.delivered} packets so far, no anomalies.")

print("\nA station inserts into the ring (burst of back-to-back purges)...")
bed.run(3 * SEC)

snap = controller.snapshot
assert snap is not None, "the watchdog must have tripped"
print()
print(snap.render())
print()
print("All machines halted; deliveries after the halt:",
      session.stats.delivered, "(frozen)")
