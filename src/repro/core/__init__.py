"""The paper's contribution: CTMSP and direct driver-to-driver transfer.

This package is the *core library* of the reproduction -- everything a
downstream user touches to move continuous-time media across the ring:

* :mod:`~repro.core.ctmsp` -- the CTMS Protocol packet format (precomputed
  Token Ring header, destination device number, packet number) and its
  queueing/priority attributes;
* :mod:`~repro.core.direct` -- the direct driver-to-driver transfer model:
  the function-handle exchange the paper implements with new ``ioctl``
  calls, plus the pointer-passing extension for dual-DMA devices;
* :mod:`~repro.core.session` -- point-to-point CTMS connection setup between
  a source device on one machine and a sink device on another;
* :mod:`~repro.core.stream` -- stream sequencing and delivery statistics;
* :mod:`~repro.core.recovery` -- sequence tracking, duplicate suppression,
  and the optional Ring-Purge retransmission mode (Section 4's adapter the
  paper wished for);
* :mod:`~repro.core.buffering` -- playout buffer sizing (the Section 6
  "under 25KBytes" conclusion) and a playout simulator with glitch
  detection;
* :mod:`~repro.core.control` -- the session control plane: bandwidth-ledger
  admission control, watermark overload shedding, and mid-stream server
  failover (the sanctioned home of all control-plane policy decisions).
"""
