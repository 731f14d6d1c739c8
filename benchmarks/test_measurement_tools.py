"""TOOLS: Section 5.2's instrument error budgets, reproduced: the logic
analyzer ("conclusive proof that the VCA interrupt source was completely
solid"; "the largest variation seen was 440 microseconds"), the PC/AT
timestamper and the RT/PC pseudo-driver.  The paper's claims:
``repro.experiments.claims.MEASUREMENT_TOOLS``.
"""

from repro.experiments.claims import MEASUREMENT_TOOLS
from repro.experiments.reporting import emit
from repro.hardware import calibration
from repro.sim.units import US


def test_measurement_tool_error_budgets():
    tools = MEASUREMENT_TOOLS.run()
    emit(MEASUREMENT_TOOLS.name, MEASUREMENT_TOOLS.report(tools))

    for claim, value in MEASUREMENT_TOOLS.banded(tools):
        assert claim.holds(value), (claim.label, value, claim.band)
    # Load produces real IRQ-to-entry variation.
    assert max(tools.entry_latencies) > min(tools.entry_latencies)
    # Each pseudo-driver stamp trails the true entry by less than a clock
    # granule plus the recording procedure's intrusion.
    assert tools.stamps
    quant_err = [a - q for q, a in zip(tools.stamps, tools.entries)]
    assert all(
        0 <= e < calibration.RTPC_CLOCK_GRANULARITY + 500 * US for e in quant_err
    )
