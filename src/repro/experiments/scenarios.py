"""Scenario definitions: the Section 5.3 measurement matrix.

The paper enumerates eleven dimensions that "will alter the results" and
picks two points in that space for presentation:

* **Test Case A** -- private ring, no load, stand-alone hosts, transmitter
  in IO Channel Memory copying header+data, no VCA-data copy, receiver
  copies into mbufs then drops, driver and ring priority on, remote (PC/AT)
  measurement.
* **Test Case B** -- public ring under normal load, multiprogramming hosts,
  full copying on both ends, otherwise as A.

A :class:`Scenario` captures the whole matrix so ablation benches can flip
one switch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.drivers.token_ring import TokenRingDriverConfig
from repro.drivers.vca import VCADriverConfig
from repro.hardware import calibration
from repro.sim.units import SEC


@dataclass
class Scenario:
    """One point in the Section 5.3 measurement space."""

    name: str
    # -- transmitter ----------------------------------------------------
    tx_use_io_channel_memory: bool = True
    tx_copy_header_only: bool = False
    tx_copy_vca_data_to_mbufs: bool = True
    tx_precompute_header: bool = True
    # -- receiver -------------------------------------------------------
    rx_copy_to_mbufs: bool = True
    rx_copy_to_device: bool = False
    rx_use_io_channel_memory: bool = True
    # -- driver / ring priority ------------------------------------------
    driver_priority_queueing: bool = True
    ctmsp_ring_priority: int = 4
    # -- environment ------------------------------------------------------
    private_network: bool = True
    multiprogramming: bool = False
    mac_utilization: float = calibration.MAC_TRAFFIC_UTILIZATION_LOW
    insertions_per_day: float = 0.0
    #: Isolated single-purge soft errors (Section 5's "soft error on the
    #: Token Ring"), per hour.
    soft_errors_per_hour: float = 0.0
    #: Background traffic intensity multiplier (0 disables; 1 is the
    #: paper's "normal loading").
    background_load: float = 0.0
    # -- run --------------------------------------------------------------
    duration_ns: int = 30 * SEC
    seed: int = 1

    def transmitter_config(self) -> tuple[TokenRingDriverConfig, VCADriverConfig]:
        tr = TokenRingDriverConfig(
            use_io_channel_memory=self.tx_use_io_channel_memory,
            ctmsp_priority_queueing=self.driver_priority_queueing,
            ctmsp_ring_priority=self.ctmsp_ring_priority,
            tx_copy_header_only=self.tx_copy_header_only,
        )
        vca = VCADriverConfig(
            copy_vca_data_to_mbufs=self.tx_copy_vca_data_to_mbufs,
            precomputed_header=self.tx_precompute_header,
        )
        return tr, vca

    def receiver_config(self) -> tuple[TokenRingDriverConfig, VCADriverConfig]:
        tr = TokenRingDriverConfig(
            use_io_channel_memory=self.rx_use_io_channel_memory,
            ctmsp_priority_queueing=self.driver_priority_queueing,
            ctmsp_ring_priority=self.ctmsp_ring_priority,
            rx_copy_to_mbufs=self.rx_copy_to_mbufs,
        )
        vca = VCADriverConfig(
            sink_copy_to_device=self.rx_copy_to_device,
        )
        return tr, vca

    def variant(self, name_suffix: str, **changes) -> "Scenario":
        """A copy of this scenario with some switches flipped (ablations)."""
        return replace(self, name=f"{self.name}/{name_suffix}", **changes)


def test_case_a(duration_ns: int = 30 * SEC, seed: int = 1) -> Scenario:
    """The paper's Test Case A (Figure 5-3)."""
    return Scenario(
        name="test-case-A",
        tx_copy_vca_data_to_mbufs=False,
        rx_copy_to_mbufs=True,
        rx_copy_to_device=False,
        private_network=True,
        multiprogramming=False,
        mac_utilization=calibration.MAC_TRAFFIC_UTILIZATION_LOW,
        background_load=0.0,
        insertions_per_day=0.0,
        duration_ns=duration_ns,
        seed=seed,
    )


def test_case_b(
    duration_ns: int = 30 * SEC,
    seed: int = 1,
    insertions_per_day: float = 0.0,
) -> Scenario:
    """The paper's Test Case B (Figures 5-2 and 5-4).

    "public network; normal loading of network; transmitter and receiver in
    multiprocessing mode but not heavily loaded."  Insertions default to off;
    the run Figures 5-2 and 5-4 read (``claims.run_test_case_b``) and the
    PURGE bench turn them on explicitly.
    """
    return Scenario(
        name="test-case-B",
        tx_copy_vca_data_to_mbufs=True,
        rx_copy_to_mbufs=True,
        rx_copy_to_device=True,
        private_network=False,
        multiprogramming=True,
        mac_utilization=0.006,  # mid paper band for the loaded public ring
        background_load=1.0,
        insertions_per_day=insertions_per_day,
        duration_ns=duration_ns,
        seed=seed,
    )
