"""Device drivers.

* :mod:`~repro.drivers.token_ring` -- the Token Ring driver in both its
  stock form and with the paper's CTMS modifications (driver-level packet
  priority, ring media priority, precomputed headers, fixed DMA buffers in
  IO Channel Memory, direct-delivery classification at the ARP/IP split
  point);
* :mod:`~repro.drivers.vca` -- the Voice Communications Adapter driver with
  the paper's new ``ioctl`` calls, acting as CTMS source (packet builder in
  its interrupt handler) or sink (direct-delivery target);
* :mod:`~repro.drivers.pseudo_trace` -- the pseudo device driver the paper
  first used for in-kernel timestamping (Section 5.2.1).
"""
