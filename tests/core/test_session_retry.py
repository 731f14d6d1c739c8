"""Session establishment under fire: retry, backoff, clean timeout."""

import pytest

from repro.core.session import CTMSSession, SessionEstablishTimeout
from repro.drivers.token_ring import CTMS_CONTROL_PROTOCOL
from repro.experiments.testbed import HostConfig
from repro.experiments.testbed import Testbed as _Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.units import MS, SEC


def bed_with_control_loss(seed, loss_window_ns):
    bed = _Testbed(seed=seed)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    if loss_window_ns:
        FaultInjector(
            bed,
            FaultPlan().frame_loss(
                0, duration_ns=loss_window_ns, protocol=CTMS_CONTROL_PROTOCOL
            ),
        ).arm()
    session = CTMSSession(tx.kernel, rx.kernel)
    return bed, session


def test_clean_network_establishes_on_the_first_attempt():
    bed, session = bed_with_control_loss(seed=3, loss_window_ns=0)
    established = session.establish()
    bed.run(1 * SEC)
    assert established.triggered and established.ok
    assert session.setup_attempts == 1
    assert session.error is None
    assert session.sink_tracker.delivered > 0


def test_transient_control_loss_retries_then_succeeds():
    bed, session = bed_with_control_loss(seed=3, loss_window_ns=25 * MS)
    established = session.establish()
    bed.run(2 * SEC)
    assert established.triggered and established.ok
    assert session.setup_attempts >= 2
    assert session.error is None
    # The stream actually started after the handshake finally completed.
    assert session.sink_tracker.delivered > 0
    assert session.sink_tracker.lost_packets == 0


def test_permanent_control_loss_times_out_cleanly():
    bed, session = bed_with_control_loss(seed=3, loss_window_ns=10 * SEC)
    established = session.establish()
    bed.run(5 * SEC)
    assert established.triggered and not established.ok
    assert isinstance(established.value, SessionEstablishTimeout)
    assert session.error is established.value
    assert session.setup_attempts == session.setup_max_attempts
    # No data ever flowed: the failure is a clean no-stream, not a half-start.
    assert session.sink_tracker.delivered == 0
    assert "no setup-ack" in str(session.error)


def test_retries_back_off_exponentially():
    bed = _Testbed(seed=3)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    FaultInjector(
        bed,
        FaultPlan().frame_loss(
            0, duration_ns=10 * SEC, protocol=CTMS_CONTROL_PROTOCOL
        ),
    ).arm()
    attempts = []
    bed.ring.monitors.append(
        lambda frame, t, status: attempts.append(t)
        if frame.protocol == CTMS_CONTROL_PROTOCOL
        else None
    )
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(3 * SEC)
    assert len(attempts) == session.setup_max_attempts
    waits = [b - a for a, b in zip(attempts, attempts[1:])]
    # Doubling up to the cap: each retry waits at least as long as the
    # previous one (modulo wire jitter), later waits dwarf the first.
    assert all(b >= a - 2 * MS for a, b in zip(waits, waits[1:]))
    assert waits[-1] > waits[0] * 4
    assert waits[-1] <= session.setup_backoff_cap_ns + 50 * MS


def test_timeout_deadline_bounds_the_whole_handshake():
    bed = _Testbed(seed=3)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    FaultInjector(
        bed,
        FaultPlan().frame_loss(
            0, duration_ns=10 * SEC, protocol=CTMS_CONTROL_PROTOCOL
        ),
    ).arm()
    session = CTMSSession(
        tx.kernel, rx.kernel, setup_timeout_ns=100 * MS, setup_max_attempts=50
    )
    established = session.establish()
    bed.run(2 * SEC)
    assert established.triggered and not established.ok
    # The deadline fired long before 50 attempts could run.
    assert session.setup_attempts < 50


def test_establishment_delay_does_not_shift_the_stream():
    """Retries delay the start but the 12 ms tick grid stays absolute."""
    bed, session = bed_with_control_loss(seed=3, loss_window_ns=25 * MS)
    session.establish()
    bed.run(2 * SEC)
    gaps = session.stats.inter_arrival_ns()
    assert gaps, "stream must have flowed"
    # No 12 ms tick was ever skipped: delivery jitter, but no lost period.
    assert max(gaps) < 24 * MS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"setup_timeout_ns": 0},
        {"setup_max_attempts": 0},
        {"setup_backoff_ns": 0},
    ],
)
def test_invalid_setup_parameters_rejected(kwargs):
    bed = _Testbed(seed=1)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    with pytest.raises(ValueError):
        CTMSSession(tx.kernel, rx.kernel, **kwargs)
