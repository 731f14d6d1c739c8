"""Two CTMS streams into one receiver machine: device-number demultiplexing.

The CTMSP header carries a destination *device* number precisely so the
driver's split point can serve several sink devices on one host.  Two
transmitters stream to two VCA sink devices on the same receiver; each
sink's classifier claims only its own device number.
"""

from repro.core.session import CTMSSession
from repro.drivers.vca import VCADriver, VCADriverConfig
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.hardware.vca import VoiceCommunicationsAdapter
from repro.sim.units import MS, SEC
from repro.unix.process import UserProcess


def build_two_streams_one_receiver(seed=19):
    bed = _Testbed(seed=seed, mac_utilization=0.0)
    tx1 = bed.add_host(HostConfig(name="tx1"))
    tx2 = bed.add_host(HostConfig(name="tx2"))
    rx = bed.add_host(HostConfig(name="rx", vca_device_number=7))
    # A second VCA sink device on the same receiver machine.
    vca2 = VoiceCommunicationsAdapter(
        bed.sim, rx.machine.cpu.raise_irq, rx.machine.rng, name="vca1"
    )
    rx.machine.add_adapter("vca1", vca2)
    second_sink = VCADriver(
        rx.kernel, vca2, VCADriverConfig(stream_id=2), device_number=8
    )
    rx.kernel.register_device("vca1", second_sink)

    session1 = CTMSSession(tx1.kernel, rx.kernel, vca_device="vca0")
    session1.establish()

    # Manually wire the second session to the second sink device.
    def sink2_setup(proc):
        yield from proc.ioctl(
            "vca1", "CTMS_ATTACH_SINK", {"tr_driver": rx.tr_driver}
        )

    def source2_setup(proc):
        yield from proc.ioctl(
            "vca0",
            "CTMS_BIND",
            {"tr_driver": tx2.tr_driver, "dst": "rx", "dst_device": 8},
        )
        yield from proc.ioctl("vca0", "CTMS_START")

    UserProcess(rx.kernel, "sink2").start(sink2_setup)
    done = UserProcess(tx2.kernel, "src2")

    # Delay source 2 start until sink 2's handles are in place.
    def delayed(proc):
        yield from proc.sleep_ns(50 * MS)
        yield from source2_setup(proc)

    done.start(delayed)
    return bed, tx1, tx2, rx, second_sink, session1


def test_two_streams_demultiplex_by_device_number():
    bed, tx1, tx2, rx, sink2, session1 = build_two_streams_one_receiver()
    bed.run(3 * SEC)
    # Stream 1 landed on device 7, stream 2 on device 8 -- no cross-talk.
    s1 = session1.stats
    s2 = sink2.stream_stats
    assert s1.delivered > 200
    assert s2.delivered > 200
    assert session1.sink_tracker.lost_packets == 0
    assert sink2.tracker.lost_packets == 0
    # Both sinks saw monotone sequence numbers: had the split point mixed
    # the streams, the trackers would report duplicates/reorders.
    assert session1.sink_tracker.duplicates == 0
    assert sink2.tracker.duplicates == 0
    # Nothing fell through to the unclaimed bucket.
    assert rx.tr_driver.stats_rx_ctmsp_unclaimed == 0


def test_unclaimed_device_number_still_counted():
    bed, tx1, tx2, rx, sink2, session1 = build_two_streams_one_receiver()
    bed.run(500 * MS)
    # Remove sink 2's handles: its stream becomes unclaimed, stream 1
    # continues untouched.
    rx.tr_driver._ctms_sinks = [
        (c, d) for c, d in rx.tr_driver._ctms_sinks
        if c.__self__ is not sink2
    ]
    before = session1.stats.delivered
    bed.run(1 * SEC)
    assert rx.tr_driver.stats_rx_ctmsp_unclaimed > 50
    assert session1.stats.delivered > before + 50
