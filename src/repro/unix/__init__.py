"""BSD 4.3-style UNIX kernel model.

The paper's baseline problem lives here: the stock UNIX model moves data
between two devices through a user-level process, paying four CPU copies (and
up to two DMA copies), mbuf allocation, syscall overhead, and scheduler
latency.  The model provides:

* :mod:`~repro.unix.mbuf` -- the mbuf pool and chains ("the allocation of a
  mbuf can be delayed an arbitrarily long time if the pool is exhausted");
* :mod:`~repro.unix.copy` -- the copy ledger: every CPU and DMA data copy in
  the system is charged simulated time *and* counted, which is how the
  Section 2 copy-count analysis is measured rather than asserted;
* :mod:`~repro.unix.kernel` -- clock interrupts, the run queue, sleep/wakeup,
  and the background "protected code segments" that produce the paper's
  interrupt-entry jitter;
* :mod:`~repro.unix.process` -- user processes with read/write/ioctl
  syscalls;
* :mod:`~repro.unix.sockets` -- a minimal socket layer over the protocol
  baselines, used by the stock-UNIX relay and the control-machine keepalive
  traffic the paper blames for Figure 5-2's second mode.
"""
