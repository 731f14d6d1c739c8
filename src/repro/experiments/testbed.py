"""Testbed assembly: machines on a ring, kernels on machines.

One :class:`Testbed` is the paper's laboratory: a 70-station 4 Mbit Token
Ring with an Active Monitor (MAC housekeeping traffic, Ring Purges), a
station-insertion process, fully modeled hosts (CPU, kernel, Token Ring and
VCA adapters/drivers), and room for lightweight background-traffic stations
(:mod:`repro.workloads`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.drivers.token_ring import TokenRingDriver, TokenRingDriverConfig
from repro.drivers.vca import VCADriver, VCADriverConfig
from repro.hardware import calibration
from repro.hardware.machine import Machine
from repro.hardware.token_ring_adapter import TokenRingAdapter
from repro.hardware.vca import VoiceCommunicationsAdapter
from repro.ring.monitor import ActiveMonitor, InsertionProcess
from repro.ring.network import TokenRing
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.unix.kernel import Kernel


@dataclass
class HostConfig:
    """Everything configurable about one fully modeled host."""

    name: str
    has_io_channel_memory: bool = True
    multiprogramming: bool = False
    tr: TokenRingDriverConfig = field(default_factory=TokenRingDriverConfig)
    vca: VCADriverConfig = field(default_factory=VCADriverConfig)
    vca_device_number: int = 7
    #: Number of VCA source devices on this host (``vca0``..``vcaN-1``).
    #: A replicated media server carries one slot per concurrent session it
    #: can source; presentation machines keep the single default slot.
    vca_slots: int = 1


class Host:
    """One assembled machine: hardware, kernel, adapters, drivers."""

    def __init__(self, testbed: "Testbed", config: HostConfig) -> None:
        self.config = config
        self.machine = Machine(
            testbed.sim,
            config.name,
            testbed.rng,
            has_io_channel_memory=config.has_io_channel_memory,
        )
        self.kernel = Kernel(
            self.machine, multiprogramming=config.multiprogramming
        )
        self.tr_adapter = TokenRingAdapter(
            self.machine,
            testbed.ring,
            address=config.name,
            ledger=self.kernel.ledger,
            rx_buffer_count=config.tr.rx_buffer_count,
        )
        self.machine.add_adapter("tr0", self.tr_adapter)
        self.tr_driver = TokenRingDriver(self.kernel, self.tr_adapter, config.tr)
        #: VCA adapters/drivers by device name (``vca0``..``vcaN-1``).  The
        #: first slot keeps the historical adapter name ``"vca"`` so its
        #: jitter RNG stream is unchanged on single-slot hosts.
        self.vca_adapters: dict[str, VoiceCommunicationsAdapter] = {}
        self.vca_drivers: dict[str, VCADriver] = {}
        self.kernel.register_device("tr0", self.tr_driver)
        for slot in range(max(1, config.vca_slots)):
            device = f"vca{slot}"
            adapter = VoiceCommunicationsAdapter(
                testbed.sim,
                self.machine.cpu.raise_irq,
                self.machine.rng,
                name="vca" if slot == 0 else device,
            )
            self.machine.add_adapter(device, adapter)
            driver = VCADriver(
                self.kernel,
                adapter,
                config.vca,
                device_number=config.vca_device_number + slot,
            )
            self.kernel.register_device(device, driver)
            self.vca_adapters[device] = adapter
            self.vca_drivers[device] = driver
        self.vca_adapter = self.vca_adapters["vca0"]
        self.vca_driver = self.vca_drivers["vca0"]
        #: Set by the ``server_crash`` fault injector: this host is dead.
        self.crashed = False
        self.kernel.start()

    @property
    def name(self) -> str:
        return self.config.name


class Testbed:
    """The shared laboratory."""

    def __init__(
        self,
        seed: int = 0,
        total_stations: int = calibration.TOKEN_RING_DEFAULT_STATIONS,
        mac_utilization: float = calibration.MAC_TRAFFIC_UTILIZATION_LOW,
        insertions_per_day: float = 0.0,
        soft_errors_per_hour: float = 0.0,
    ) -> None:
        self.sim = Simulator()
        #: Optional observability flight recorder (``repro.obs.flight``).
        #: Invariant monitors snapshot through it, duck-typed, when set.
        self.flight_recorder = None
        self.rng = RandomStreams(seed)
        self.ring = TokenRing(self.sim, total_stations=total_stations)
        self.monitor = ActiveMonitor(
            self.sim, self.ring, self.rng,
            mac_utilization=mac_utilization,
            soft_errors_per_hour=soft_errors_per_hour,
        )
        self.inserter = InsertionProcess(
            self.sim, self.monitor, self.rng,
            insertions_per_day=insertions_per_day,
        )
        self.hosts: dict[str, Host] = {}
        self._started = False

    def add_host(self, config: HostConfig) -> Host:
        """Attach one fully modeled machine to the ring."""
        if config.name in self.hosts:
            raise ValueError(f"duplicate host {config.name!r}")
        host = Host(self, config)
        self.hosts[config.name] = host
        return host

    def start_environment(self) -> None:
        """Start MAC housekeeping traffic and station insertions."""
        if self._started:
            return
        self._started = True
        self.monitor.start()
        self.inserter.start()

    def run(self, duration_ns: int) -> None:
        """Advance the laboratory clock."""
        self.start_environment()
        self.sim.run(until=self.sim.now + duration_ns)
