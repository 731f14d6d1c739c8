"""Workloads: media sources and the campus background traffic.

Figure 5-4's analysis names three background frame classes on the ITC ring:
~20-byte MAC frames, 60-300-byte ARP/AFS/socket keepalives, and 1522-byte
file-transfer packets "sent while a compile is done".  Figure 5-2's second
mode comes from the measured hosts *themselves* transmitting some of that
traffic (keepalive replies to the central control machine), which makes the
single fixed transmit DMA buffer busy when a CTMSP packet wants it.

:mod:`~repro.workloads.background` builds that mix; :mod:`~repro.workloads.media`
describes the paper's media rates (telephone audio, CD audio, compressed
video) as source configurations; :mod:`~repro.workloads.churn` adds the
session-level demand -- seeded arrival/departure schedules the control
plane (:mod:`repro.core.control`) admits, queues, or rejects.
"""
