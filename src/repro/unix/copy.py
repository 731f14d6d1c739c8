"""The copy ledger: every data copy is charged time and counted.

Section 2 is an accounting argument: device-to-device transfer through a user
process costs four-to-six copies, of which "there will always be four copies
made by the CPU.  At a minimum, two of these copies are unnecessary."  To
*measure* that claim instead of asserting it, every copy in the model --
CPU copies, programmed I/O, and DMA transfers -- goes through one ledger per
machine.  The COPIES experiment then just reads the ledger after pushing a
known amount of data down each path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterator

from repro.hardware.cpu import Exec
from repro.hardware.memory import Region, cpu_copy_cost


@dataclass(slots=True)
class CopyRecord:
    """Aggregate for one (kind, source, destination) copy edge."""

    copies: int = 0
    bytes: int = 0


@dataclass
class CopyLedger:
    """Per-machine record of data movement."""

    cpu: dict[tuple[Region, Region], CopyRecord] = field(default_factory=dict)
    dma: dict[tuple[Region, Region], CopyRecord] = field(default_factory=dict)

    # The recorders run once per simulated copy; .get avoids setdefault's
    # unconditional CopyRecord() construction on the all-hits steady state.
    def record_cpu(self, src: Region, dst: Region, nbytes: int) -> None:
        rec = self.cpu.get((src, dst))
        if rec is None:
            rec = self.cpu[(src, dst)] = CopyRecord()
        rec.copies += 1
        rec.bytes += nbytes

    def record_dma(self, src: Region, dst: Region, nbytes: int) -> None:
        rec = self.dma.get((src, dst))
        if rec is None:
            rec = self.dma[(src, dst)] = CopyRecord()
        rec.copies += 1
        rec.bytes += nbytes

    # ------------------------------------------------------------------
    # summaries (what the Section 2 experiment prints)
    # ------------------------------------------------------------------
    def cpu_copy_count(self) -> int:
        return sum(rec.copies for rec in self.cpu.values())

    def dma_copy_count(self) -> int:
        return sum(rec.copies for rec in self.dma.values())

    def cpu_bytes(self) -> int:
        return sum(rec.bytes for rec in self.cpu.values())

    def edges(self) -> Iterator[tuple[str, Region, Region, CopyRecord]]:
        """All copy edges, for report tables."""
        for (src, dst), rec in sorted(
            self.cpu.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            yield ("cpu", src, dst, rec)
        for (src, dst), rec in sorted(
            self.dma.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            yield ("dma", src, dst, rec)


def cpu_copy_at_rate(
    ledger: CopyLedger,
    src: Region,
    dst: Region,
    nbytes: int,
    ns_per_byte: int,
) -> Generator[Exec, None, None]:
    """CPU-copy at an explicit rate (for uncached fixed DMA buffers).

    Fixed DMA buffers are mapped uncached whichever memory they live in, so
    copies into them cost the paper's 1 us/byte even when the buffer is in
    system memory; the ledger still records the true regions so contention
    and the copy census stay correct.
    """
    if nbytes < 0:
        raise ValueError("negative copy")
    if nbytes == 0:
        return
    ledger.record_cpu(src, dst, nbytes)
    yield Exec(ns_per_byte * nbytes)


def cpu_copy(
    ledger: CopyLedger, src: Region, dst: Region, nbytes: int
) -> Generator[Exec, None, None]:
    """CPU-copy ``nbytes`` from ``src`` to ``dst`` (a ``yield from`` helper).

    Charges the calibrated per-byte cost as CPU work inside the calling
    frame and records the copy on the ledger.  The paper's famous constant
    lives here: system memory to IO Channel Memory is 1 us/byte.
    """
    if nbytes < 0:
        raise ValueError("negative copy")
    if nbytes == 0:
        return
    ledger.record_cpu(src, dst, nbytes)
    yield Exec(cpu_copy_cost(src, dst, nbytes))
