"""ctms-repro: a reproduction of the USENIX 1991 CTMS paper.

Reproduces "Distributed Multimedia: How Can the Necessary Data Rates be
Supported?" (Pasieka, Crumley, Marks, Infortuna; CMU Information Technology
Center) as a calibrated discrete-event simulation of the complete testbed:
IBM RT/PC machines, a 4 Mbit Token Ring, a BSD 4.3-style kernel, the CTMSP
protocol with direct driver-to-driver transfer, and the paper's own
measurement instruments.

Quick start::

    from repro.core.session import CTMSSession
    from repro.experiments.testbed import HostConfig, Testbed
    from repro.sim.units import SEC

    bed = Testbed(seed=42)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(5 * SEC)
    print(session.stats.throughput_bytes_per_sec())

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results; ``python -m repro list`` runs the experiments
from a shell.
"""

__version__ = "1.0.0"
