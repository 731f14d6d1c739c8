"""The protocol baselines CTMSP is measured against.

Section 3's argument: TCP/IP guarantees only packet sequencing (via acks and
retransmission traffic), assumes an unreliable, dynamically routed network,
and recomputes the Token Ring header for every packet.  To *measure* that
argument rather than assert it, this package implements the stock stack:

* :mod:`~repro.protocols.arp` -- address resolution with a cache and the
  broadcast traffic the paper lists among the background load;
* :mod:`~repro.protocols.ip` -- datagram output that pays the per-packet
  Token Ring header recomputation CTMSP precomputes away;
* :mod:`~repro.protocols.udp` -- connectionless datagrams;
* :mod:`~repro.protocols.tcp` -- a simplified but behaviourally faithful
  TCP: MSS segmentation, a sliding window, cumulative acks, and timeout
  retransmission;
* :mod:`~repro.protocols.stack` -- the per-host stack gluing the layers to
  the Token Ring driver's LLC input, plus a small socket API.
"""
