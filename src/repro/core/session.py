"""CTMS point-to-point session setup.

The paper's control flow: a user process opens both devices and wires them
together with the new ``ioctl`` calls -- after that, data never touches user
space again.  :class:`CTMSSession` performs that choreography on a source
machine and a sink machine, with the sides synchronized by a real exchange
of control frames over the ring (not an oracle):

1. on the sink, ``ioctl(vca, CTMS_ATTACH_SINK)`` registers the classify and
   deliver function handles with the Token Ring driver's split point, then
   installs a control-frame handler that answers setup requests;
2. the source transmits a ``setup-req`` control frame and waits for the
   sink's ``setup-ack`` -- retrying with bounded exponential backoff, since
   the very environment the paper measured (Ring Purges, soft errors) can
   eat a control frame as easily as a data frame;
3. on ack, ``ioctl(vca, CTMS_BIND)`` asks the Token Ring driver to compute
   the Token Ring header once, and ``ioctl(vca, CTMS_START)`` loads the DSP
   timer program; CTMSP packets flow every 12 ms.

If no ack ever arrives (the ring is down, the sink is gone), establishment
fails cleanly: :attr:`CTMSSession.established` fails with a
:class:`SessionEstablishTimeout` (also stored on :attr:`CTMSSession.error`)
instead of the stream silently never starting.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.stream import StreamStats
from repro.hardware.cpu import Exec
from repro.ring.frames import Frame
from repro.sim.engine import Event
from repro.sim.units import MS, SEC, US, format_time
from repro.unix.kernel import Kernel
from repro.unix.process import UserProcess

if TYPE_CHECKING:  # avoid a circular import; drivers import core.ctmsp
    from repro.drivers.token_ring import TokenRingDriver
    from repro.drivers.vca import VCADriver

#: Information-field size of a CTMS control frame (request or ack).
CONTROL_FRAME_BYTES = 64

_session_ids = itertools.count(1)


class SessionEstablishTimeout(RuntimeError):
    """Session setup exhausted its retries without hearing from the sink."""


def _control_frame(
    src: str, dst: str, priority: int, payload: dict
) -> Frame:
    from repro.drivers.token_ring import CTMS_CONTROL_PROTOCOL

    return Frame(
        src=src,
        dst=dst,
        info_bytes=CONTROL_FRAME_BYTES,
        priority=priority,
        protocol=CTMS_CONTROL_PROTOCOL,
        payload=payload,
    )


class CTMSSession:
    """One continuous-media connection between two machines.

    Parameters
    ----------
    source_kernel, sink_kernel:
        The two machines' kernels.
    source_vca_device, sink_vca_device:
        Per-side VCA device names; default to ``vca_device`` on both sides.
        A media server exposing several replica slots (``vca0``..``vcaN``)
        binds each session to its own source slot while every presentation
        machine keeps its single ``vca0`` sink.
    setup_timeout_ns:
        Overall deadline for the setup handshake.
    setup_max_attempts:
        Maximum ``setup-req`` transmissions before giving up.
    setup_backoff_ns:
        First retry wait; doubles per attempt up to ``setup_backoff_cap_ns``.
    resume_from:
        When set, the source continues packet numbering at this value (the
        sink tracker's high-water mark) instead of zero -- the failover
        resume path.
    align_start:
        Start the source DSP timer on a tick grid rebased at the current
        instant (a mid-run replica start) instead of the boot-time grid.
    """

    def __init__(
        self,
        source_kernel: Kernel,
        sink_kernel: Kernel,
        vca_device: str = "vca0",
        tr_device: str = "tr0",
        source_vca_device: Optional[str] = None,
        sink_vca_device: Optional[str] = None,
        setup_timeout_ns: int = 1 * SEC,
        setup_max_attempts: int = 8,
        setup_backoff_ns: int = 10 * MS,
        setup_backoff_cap_ns: int = 80 * MS,
        resume_from: Optional[int] = None,
        align_start: bool = False,
    ) -> None:
        if setup_timeout_ns <= 0 or setup_max_attempts <= 0:
            raise ValueError("setup timeout and attempts must be positive")
        if setup_backoff_ns <= 0:
            raise ValueError("setup backoff must be positive")
        self.source_kernel = source_kernel
        self.sink_kernel = sink_kernel
        self.vca_device = vca_device
        self.source_vca_device = source_vca_device or vca_device
        self.sink_vca_device = sink_vca_device or vca_device
        self.tr_device = tr_device
        self.resume_from = resume_from
        self.align_start = align_start
        self.setup_timeout_ns = setup_timeout_ns
        self.setup_max_attempts = setup_max_attempts
        self.setup_backoff_ns = setup_backoff_ns
        self.setup_backoff_cap_ns = setup_backoff_cap_ns
        self.established: Optional[Event] = None
        #: The SessionEstablishTimeout when setup failed, else None.
        self.error: Optional[Exception] = None
        #: ``setup-req`` frames transmitted so far.
        self.setup_attempts = 0
        self._session_id = next(_session_ids)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def establish(self) -> Event:
        """Run the setup handshake; returns an event that succeeds when
        streaming begins or fails with :class:`SessionEstablishTimeout`."""
        sim = self.source_kernel.sim
        self.established = sim.event(name="ctms-established")
        ack = sim.event(name="ctms-setup-ack")

        sink_vca: "VCADriver" = self.sink_kernel.device(self.sink_vca_device)
        sink_tr: "TokenRingDriver" = self.sink_kernel.device(self.tr_device)
        source_tr: "TokenRingDriver" = self.source_kernel.device(self.tr_device)
        session_id = self._session_id

        def sink_control(frame: Frame) -> Generator:
            """Answer setup requests (runs in the sink's rx interrupt)."""
            msg = frame.payload
            if (
                not isinstance(msg, dict)
                or msg.get("session") != session_id
                or msg.get("op") != "setup-req"
            ):
                return
            yield Exec(15 * US)
            reply = _control_frame(
                src=sink_tr.adapter.address,
                dst=frame.src,
                priority=sink_tr.config.ctmsp_ring_priority,
                payload={
                    "op": "setup-ack",
                    "session": session_id,
                    "dst_device": sink_vca.device_number,
                },
            )
            yield from sink_tr.output(None, reply)

        # A media server carries several sessions through one Token Ring
        # driver, so concurrent establishments must not clobber each other's
        # control handler: each session's handler consumes its own acks and
        # delegates everything else down the chain it found installed.
        chained_control = source_tr.control_input

        def source_control(frame: Frame) -> Generator:
            msg = frame.payload
            yield Exec(10 * US)
            if (
                isinstance(msg, dict)
                and msg.get("session") == session_id
                and msg.get("op") == "setup-ack"
            ):
                if not ack.triggered:
                    ack.succeed(msg)
            elif chained_control is not None:
                yield from chained_control(frame)

        def sink_setup(proc: UserProcess) -> Generator:
            yield from proc.ioctl(
                self.sink_vca_device, "CTMS_ATTACH_SINK", {"tr_driver": sink_tr}
            )
            # Only now -- with the data-path handles in place -- does the
            # sink start answering setup requests, so a stream can never
            # start before the sink is ready to classify it.
            sink_tr.control_input = sink_control

        def source_setup(proc: UserProcess) -> Generator:
            source_tr.control_input = source_control
            deadline = sim.now + self.setup_timeout_ns
            backoff = self.setup_backoff_ns
            while not ack.triggered:
                if (
                    self.setup_attempts >= self.setup_max_attempts
                    or sim.now >= deadline
                ):
                    self._fail_setup()
                    return
                self.setup_attempts += 1
                request = _control_frame(
                    src=source_tr.adapter.address,
                    dst=sink_tr.adapter.address,
                    priority=source_tr.config.ctmsp_ring_priority,
                    payload={"op": "setup-req", "session": session_id},
                )
                yield from source_tr.output(None, request)
                wait = min(backoff, max(1, deadline - sim.now))
                yield sim.any_of([ack, sim.timeout(wait)])
                backoff = min(backoff * 2, self.setup_backoff_cap_ns)
            msg: dict = ack.value
            bind_arg = {
                "tr_driver": source_tr,
                "dst": sink_tr.adapter.address,
                "dst_device": msg.get("dst_device", sink_vca.device_number),
            }
            if self.resume_from is not None:
                bind_arg["start_packet_no"] = self.resume_from
            yield from proc.ioctl(
                self.source_vca_device, "CTMS_BIND", bind_arg
            )
            start_arg = {"align_to_now": True} if self.align_start else None
            yield from proc.ioctl(
                self.source_vca_device, "CTMS_START", start_arg
            )
            self.established.succeed()

        UserProcess(self.sink_kernel, "ctms-sink-setup").start(sink_setup)
        UserProcess(self.source_kernel, "ctms-src-setup").start(source_setup)
        return self.established

    def _fail_setup(self) -> None:
        err = SessionEstablishTimeout(
            f"CTMS session {self._session_id}: no setup-ack after "
            f"{self.setup_attempts} attempts within "
            f"{format_time(self.setup_timeout_ns)}"
        )
        self.error = err
        assert self.established is not None
        self.established.fail(err)

    def stop(self) -> None:
        """Halt the source's DSP timer (streaming ceases)."""
        source_vca: "VCADriver" = self.source_kernel.device(
            self.source_vca_device
        )
        source_vca.adapter.stop()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StreamStats:
        """Sink-side delivery statistics."""
        sink_vca: "VCADriver" = self.sink_kernel.device(self.sink_vca_device)
        return sink_vca.stream_stats

    @property
    def sink_tracker(self):
        sink_vca: "VCADriver" = self.sink_kernel.device(self.sink_vca_device)
        return sink_vca.tracker
