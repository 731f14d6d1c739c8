"""Apply a :class:`~repro.faults.plan.FaultPlan` to a live testbed.

:class:`FaultInjector` turns the declarative schedule into concrete injuries
using only hooks the hardware and ring models expose:

* ring kinds drive the Active Monitor (``monitor.purge()``), install wire
  corruption filters (``ring.fault_filters``), or attach a hostile
  high-priority traffic station;
* adapter kinds poke the Token Ring adapter's ``fault_*`` knobs;
* the host kind leans on the CPU contention hooks (a phantom DMA
  competitor);
* the media-server kind halts the host's VCA sources and wedges its
  Token Ring adapter.

Determinism: the injector draws all stochastic behaviour (storm spacing,
partial frame loss) from the testbed's named RNG streams, so the same seed
and plan wound the system identically, event for event.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware import calibration
from repro.ring.frames import Frame
from repro.ring.station import RingStation
from repro.sim.units import HOUR

#: Protocol tag on hostile starvation frames (kept distinct so reports can
#: separate attack traffic from the workload under test).
HOSTILE_PROTOCOL = "chaos-hostile"


class FaultInjector:
    """Arms one fault plan against one testbed."""

    def __init__(self, testbed, plan: FaultPlan) -> None:
        self.testbed = testbed
        self.sim = testbed.sim
        self.plan = plan
        self._rng = testbed.rng.get("fault-injector")
        self._armed = False
        self._hostile_tx: Optional[RingStation] = None
        self._hostile_rx: Optional[RingStation] = None
        # --- statistics ---
        self.stats_fired = 0
        self.stats_skipped_no_target = 0
        self.stats_hostile_frames = 0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every event in the plan relative to *now*."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        self.plan.validate()
        for event in self.plan.sorted_events():
            self.sim.schedule(event.at_ns, self._fire, event)
        return self

    def _fire(self, event: FaultEvent) -> None:
        self.stats_fired += 1
        getattr(self, f"_do_{event.kind}")(event)

    def _host(self, event: FaultEvent):
        host = self.testbed.hosts.get(event.host)
        if host is None:
            self.stats_skipped_no_target += 1
            self.stats_fired -= 1
        return host

    # ------------------------------------------------------------------
    # ring-level kinds
    # ------------------------------------------------------------------
    def _do_purge(self, event: FaultEvent) -> None:
        self.testbed.monitor.purge(
            event.params.get("duration_ns", calibration.RING_PURGE_DURATION)
        )

    def _do_purge_burst(self, event: FaultEvent) -> None:
        count = int(event.params["count"])
        spacing = int(event.params["spacing_ns"])
        for i in range(count):
            self.sim.schedule(i * spacing, self.testbed.monitor.purge)

    def _do_soft_error_storm(self, event: FaultEvent) -> None:
        end = self.sim.now + int(event.params["duration_ns"])
        rate = float(event.params["rate_per_hour"]) / HOUR

        def next_purge() -> None:
            if self.sim.now > end:
                return
            self.testbed.monitor.purge()
            gap = max(1, round(self._rng.expovariate(rate)))
            if self.sim.now + gap <= end:
                self.sim.schedule(gap, next_purge)

        gap = max(1, round(self._rng.expovariate(rate)))
        if self.sim.now + gap <= end:
            self.sim.schedule(gap, next_purge)

    def _do_token_starvation(self, event: FaultEvent) -> None:
        if self._hostile_tx is None:
            self._hostile_tx = RingStation(self.testbed.ring, "chaos-hostile")
            self._hostile_rx = RingStation(self.testbed.ring, "chaos-hostile-sink")
        priority = int(event.params["priority"])
        frame_bytes = int(event.params["frame_bytes"])
        utilization = float(event.params["utilization"])
        end = self.sim.now + int(event.params["duration_ns"])
        frame = Frame(
            src=self._hostile_tx.address,
            dst=self._hostile_rx.address,
            info_bytes=frame_bytes,
            priority=priority,
            protocol=HOSTILE_PROTOCOL,
        )
        gap = max(1, round(frame.wire_time_ns / max(1e-6, utilization)))

        def emit() -> None:
            if self.sim.now > end:
                return
            self.stats_hostile_frames += 1
            self._hostile_tx.transmit(
                Frame(
                    src=self._hostile_tx.address,
                    dst=self._hostile_rx.address,
                    info_bytes=frame_bytes,
                    priority=priority,
                    protocol=HOSTILE_PROTOCOL,
                )
            )
            if self.sim.now + gap <= end:
                self.sim.schedule(gap, emit)

        emit()

    def _do_frame_loss(self, event: FaultEvent) -> None:
        protocol = event.params["protocol"]
        fraction = float(event.params["fraction"])
        rng = self._rng

        def corrupt(frame: Frame) -> bool:
            if protocol != "*" and frame.protocol != protocol:
                return False
            return fraction >= 1.0 or rng.random() < fraction

        self.testbed.ring.fault_filters.append(corrupt)
        self.sim.schedule(
            int(event.params["duration_ns"]), self._remove_filter, corrupt
        )

    def _remove_filter(self, filter_fn) -> None:
        try:
            self.testbed.ring.fault_filters.remove(filter_fn)
        except ValueError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # adapter-level kinds
    # ------------------------------------------------------------------
    def _do_tx_stall(self, event: FaultEvent) -> None:
        host = self._host(event)
        if host is None:
            return
        adapter = host.tr_adapter
        adapter.fault_tx_stall_until = max(
            adapter.fault_tx_stall_until,
            self.sim.now + int(event.params["duration_ns"]),
        )

    def _do_rx_delay(self, event: FaultEvent) -> None:
        host = self._host(event)
        if host is None:
            return
        adapter = host.tr_adapter
        adapter.fault_rx_delay_ns = int(event.params["delay_ns"])
        self.sim.schedule(
            int(event.params["duration_ns"]), self._end_rx_delay, adapter
        )

    @staticmethod
    def _end_rx_delay(adapter) -> None:
        adapter.fault_rx_delay_ns = 0

    # ------------------------------------------------------------------
    # host-level kinds
    # ------------------------------------------------------------------
    def _do_cpu_steal(self, event: FaultEvent) -> None:
        host = self._host(event)
        if host is None:
            return
        cpu = host.machine.cpu
        layers = int(event.params["layers"])
        for _ in range(layers):
            cpu.contention_started()
        self.sim.schedule(
            int(event.params["duration_ns"]), self._end_cpu_steal, cpu, layers
        )

    @staticmethod
    def _end_cpu_steal(cpu, layers: int) -> None:
        for _ in range(layers):
            cpu.contention_ended()

    # ------------------------------------------------------------------
    # media-server kinds
    # ------------------------------------------------------------------
    @staticmethod
    def _host_vca_adapters(host) -> list:
        """Every VCA adapter on the host, in device-name order."""
        adapters = getattr(host, "vca_adapters", None)
        if adapters:
            return [adapters[name] for name in sorted(adapters)]
        return [host.vca_adapter]

    #: Sentinel "forever" instant for a wedged transmit path -- far past any
    #: realistic run horizon, without risking integer-size surprises.
    _NEVER_NS = 1 << 62

    def _do_server_crash(self, event: FaultEvent) -> None:
        """Fail-stop: the media server dies and stays dead.

        Every VCA source halts mid-period, the Token Ring adapter ignores
        transmit commands forever, and the receive DMA buffers are seized
        for the rest of the run.  ``host.crashed`` is set so control planes
        and reports can tell a dead server from a quiet one.
        """
        host = self._host(event)
        if host is None:
            return
        for adapter in self._host_vca_adapters(host):
            adapter.stop()
        tr = host.tr_adapter
        tr.fault_tx_stall_until = self._NEVER_NS
        tr.fault_seize_rx_buffers()
        host.crashed = True
