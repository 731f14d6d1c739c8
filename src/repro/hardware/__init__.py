"""IBM RT/PC hardware model.

This package models the pieces of the paper's testbed that live below the
operating system:

* :mod:`~repro.hardware.calibration` -- every timing constant, each tied to
  the paper sentence it comes from;
* :mod:`~repro.hardware.cpu` -- a preemptive CPU with BSD-style interrupt
  priority levels (``spl``), the mechanism behind the paper's "protected code
  segments" and interrupt-entry jitter;
* :mod:`~repro.hardware.memory` -- system memory vs IO Channel Memory and the
  DMA/CPU contention the paper's third modification avoids (the rule every
  DMA-capable adapter applies);
* :mod:`~repro.hardware.machine` -- the assembled machine;
* :mod:`~repro.hardware.vca` -- the Voice Communications Adapter used as the
  paper's rock-stable 12 ms interrupt and data source;
* :mod:`~repro.hardware.parallel_port` -- the 8-bit parallel output card the
  paper added to each measured machine to feed the PC/AT timestamper.
"""
