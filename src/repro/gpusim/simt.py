"""SIMT compute / memory phase model.

A kernel over ``n`` independent records is modelled as the larger of a
compute-bound and a bandwidth-bound estimate (the classic roofline view),
plus the serialized atomic term computed in :mod:`repro.gpusim.atomics`:

* compute: ``n * cycles_per_record * divergence / (cores * clock * ipc)``
* memory:  ``bytes_touched / effective_bandwidth``

``divergence`` >= 1 models warp divergence: when threads of a warp take
different control paths, the warp executes the union of the paths.  A long
``switch`` block like Inverted Index's tokenizer (Section VI-B) pushes this
factor well above 1 on GPUs; on CPUs (``warp_size == 1``) divergence is
ignored.
"""

from __future__ import annotations

from repro.gpusim.clock import CostCategory, CostLedger
from repro.gpusim.device import DeviceSpec

__all__ = ["SimtModel"]


class SimtModel:
    """Roofline-style timing for data-parallel record processing."""

    def __init__(self, device: DeviceSpec, ledger: CostLedger):
        self.device = device
        self.ledger = ledger

    # ------------------------------------------------------------------
    def compute_time(
        self, n_records: int, cycles_per_record: float, divergence: float = 1.0
    ) -> float:
        """Pure ALU time for ``n_records`` independent tasks."""
        if n_records < 0 or cycles_per_record < 0:
            raise ValueError("negative work")
        if divergence < 1.0:
            raise ValueError(f"divergence factor must be >= 1, got {divergence}")
        penalty = divergence if self.device.warp_size > 1 else 1.0
        return n_records * cycles_per_record * penalty / self.device.compute_throughput

    def memory_time(self, nbytes: int) -> float:
        """Time for ``nbytes`` of DRAM traffic at sustained bandwidth."""
        if nbytes < 0:
            raise ValueError("negative bytes")
        return nbytes / self.device.effective_bandwidth

    # ------------------------------------------------------------------
    def charge_launch(self) -> float:
        """Charge one kernel launch to the ledger."""
        return self.ledger.charge(CostCategory.LAUNCH, self.device.launch_s)
