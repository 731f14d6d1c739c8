#!/usr/bin/env python3
"""Ring Purge: the one loss CTMSP cannot prevent, and two ways to live with it.

Section 4-5: when a station inserts into the ring, the Active Monitor
purges it -- possibly destroying the frame in flight -- and the stock
adapter gives the host *no indication*.  The paper shipped "code to
recover" (tolerate single-packet gaps at the sink); it also described the
adapter it wished it had, which would interrupt on a purge so the driver
could retransmit "the last packet that is still in the fixed DMA buffer".

This example runs both worlds side by side.

Run:  python examples/ring_purge_recovery.py
"""

from repro.core.session import CTMSSession
from repro.experiments.testbed import HostConfig, Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC

# A station inserts every ~2 seconds: each insertion purges the ring
# (here: single purges, timed to catch CTMSP frames mid-flight).  The
# same declarative plan wounds both worlds identically.
PLAN = FaultPlan()
for i in range(8):
    PLAN.purge((1 + i) * 2 * SEC + 7 * MS)


def run_world(purge_retransmit: bool):
    bed = Testbed(seed=13)
    tx_cfg = HostConfig(name="transmitter")
    tx_cfg.tr.purge_retransmit = purge_retransmit
    tx = bed.add_host(tx_cfg)
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    FaultInjector(bed, PLAN).arm()
    bed.run(18 * SEC)
    return bed, tx, session


print("World 1: the stock adapter (the paper's shipped system)")
print("--------------------------------------------------------")
bed, tx, session = run_world(purge_retransmit=False)
t = session.sink_tracker
lost_on_wire = bed.ring.stats_lost_by_protocol.get("ctmsp", 0)
print(f"frames destroyed by purges : {lost_on_wire}")
print(f"gaps detected at the sink  : {t.gaps} (stream continued through each)")
print(f"stream loss fraction       : {t.loss_fraction() * 100:.2f}% "
      "(the level the paper decided to 'safely ignore')")

print()
print("World 2: the hypothetical purge-interrupt adapter")
print("--------------------------------------------------")
bed, tx, session = run_world(purge_retransmit=True)
t = session.sink_tracker
lost_on_wire = bed.ring.stats_lost_by_protocol.get("ctmsp", 0)
print(f"frames destroyed by purges : {lost_on_wire}")
print(f"driver retransmissions     : {tx.tr_driver.stats_retransmits} "
      "(straight from the fixed DMA buffer, no copy)")
print(f"gaps at the sink           : {t.gaps}")
print(f"duplicates ignored at sink : {t.duplicates}")
assert t.lost_packets == 0
print("\nOK: retransmission closes the gap the stock adapter cannot see.")
