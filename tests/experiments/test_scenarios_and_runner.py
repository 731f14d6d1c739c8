"""Tests for scenario definitions, the testbed, and the runner plumbing."""

import pytest

from repro.experiments.runner import (
    CH_HANDLER_ENTRY,
    CH_PRE_TRANSMIT,
    CH_RX_CLASSIFIED,
    CH_VCA_IRQ,
    HISTOGRAM_NAMES,
    run_scenario,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.scenarios import test_case_a as scenario_a
from repro.experiments.scenarios import test_case_b as scenario_b
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.sim.units import MS, SEC


def test_test_case_a_matches_the_paper_description():
    s = scenario_a()
    assert s.tx_use_io_channel_memory  # "uses IO Channel Memory"
    assert not s.tx_copy_vca_data_to_mbufs  # "does not copy data from VCA"
    assert s.rx_copy_to_mbufs  # "copies data from fixed DMA buffer into mbufs"
    assert not s.rx_copy_to_device  # "does not copy data ... into the VCA"
    assert s.driver_priority_queueing and s.ctmsp_ring_priority > 0
    assert s.private_network and not s.multiprogramming
    assert s.background_load == 0.0


def test_test_case_b_matches_the_paper_description():
    s = scenario_b()
    assert s.tx_use_io_channel_memory
    assert s.tx_copy_vca_data_to_mbufs  # "full copying"
    assert s.rx_copy_to_mbufs and s.rx_copy_to_device
    assert not s.private_network and s.multiprogramming
    assert s.background_load > 0


def test_variant_flips_one_switch():
    base = scenario_b()
    v = base.variant("noprio", driver_priority_queueing=False)
    assert not v.driver_priority_queueing
    assert v.multiprogramming == base.multiprogramming
    assert v.name.endswith("/noprio")


def test_scenario_builds_driver_configs():
    s = scenario_b()
    tx_tr, tx_vca = s.transmitter_config()
    rx_tr, rx_vca = s.receiver_config()
    assert tx_tr.use_io_channel_memory
    assert tx_vca.copy_vca_data_to_mbufs
    assert rx_vca.sink_copy_to_device
    assert rx_tr.rx_copy_to_mbufs


def test_runner_histogram_wiring():
    result = run_scenario(scenario_a(duration_ns=3 * SEC, seed=9))
    h = result.histograms
    assert set(h) == set(range(1, 8))
    for i, hist in h.items():
        assert hist.name == HISTOGRAM_NAMES[i]
    # ~250 packets in 3 seconds; every channel saw them all.
    assert h[1].count >= 240
    assert abs(h[1].count - h[4].count) <= 3
    # Per-packet difference histograms pair up almost everything.
    assert h[5].count >= h[1].count - 2
    assert h[7].count >= h[4].count - 2


def test_runner_channel_constants_distinct():
    assert len({CH_VCA_IRQ, CH_HANDLER_ENTRY, CH_PRE_TRANSMIT, CH_RX_CLASSIFIED}) == 4


def test_testbed_rejects_duplicate_hosts():
    bed = _Testbed(seed=0)
    bed.add_host(HostConfig(name="x"))
    with pytest.raises(ValueError):
        bed.add_host(HostConfig(name="x"))


def test_testbed_environment_starts_once():
    bed = _Testbed(seed=0, mac_utilization=0.002)
    bed.add_host(HostConfig(name="x"))
    bed.add_host(HostConfig(name="y"))
    bed.run(1 * SEC)
    frames = bed.monitor.stats_mac_frames
    assert frames > 0
    bed.run(1 * SEC)
    assert bed.monitor.stats_mac_frames > frames


def test_host_without_iocm_card():
    from repro.drivers.token_ring import TokenRingDriverConfig

    bed = _Testbed(seed=0)
    host = bed.add_host(
        HostConfig(
            name="stock",
            has_io_channel_memory=False,
            tr=TokenRingDriverConfig(use_io_channel_memory=False),
        )
    )
    assert not host.machine.memory.has_io_channel_memory
