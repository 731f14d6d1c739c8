"""COPIES: the Section 2 copy arithmetic, measured.

Paper: device-to-device transfer through a user process performs "as many
as six and as few as four" copies, of which "there will always be four
copies made by the CPU"; direct driver-to-driver transfer "completely
eliminates two of the data copies"; and with pointer passing, "if only one
of the two devices is capable of DMA, then only one copy can be eliminated"
(all CPU copies go if both have DMA).

Our source device (the VCA) is not DMA-capable (footnote 3's byte-wide
interface), and the Token Ring adapter is, so the measured expectations are
4+1, 2+1 and 1+1 (CPU+DMA) per packet.
"""

from repro.core.direct import TransferPath, paper_claims, predicted_copies
from repro.experiments.copies import measure_all
from repro.experiments.reporting import emit
from repro.obs.metrics import format_table
from repro.sim.units import SEC


def test_copy_counts_match_section_2():
    measured = measure_all(duration_ns=10 * SEC, seed=5)

    rows = []
    for m in measured:
        rows.append(
            [
                m.path.value,
                f"{m.model.cpu_copies} cpu + {m.model.dma_copies} dma",
                f"{m.cpu_per_packet:.2f} cpu + {m.dma_per_packet:.2f} dma",
                "yes" if m.matches_model() else "NO",
            ]
        )
    emit(
        "copy_counts",
        format_table(
            "Section 2: data copies per packet, device to device "
            "(VCA source has no DMA; Token Ring adapter does)",
            ["transfer path", "model", "measured", "match"],
            rows,
        ),
    )

    by_path = {m.path: m for m in measured}
    for m in measured:
        assert m.matches_model(), m
    user = by_path[TransferPath.USER_PROCESS]
    direct = by_path[TransferPath.DIRECT_DRIVER]
    pointer = by_path[TransferPath.POINTER_PASSING]
    # "This completely eliminates two of the data copies."
    assert round(user.cpu_per_packet - direct.cpu_per_packet) == 2
    # "If only one of the two devices is capable of DMA, then only one copy
    # can be eliminated."
    assert round(direct.cpu_per_packet - pointer.cpu_per_packet) == 1
    # The paper's headline bounds hold in the model.
    claims = paper_claims()
    assert claims["user_process_max_total"] == 6
    assert claims["user_process_min_total"] == 4
    assert claims["user_process_cpu"] == 4
    assert claims["pointer_passing_cpu"] == 0
