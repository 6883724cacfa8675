"""Transfer/compute overlap accounting.

Double buffering: the DMA engine streams while the GPU computes.  Each
chunk's transfer is paired with the time its caller charged for *that same*
chunk (its kernel; the pinned baseline's remote accesses too), so the
*exposed* transfer time is ``max(0, t_transfer - t_chunk)``, and the first
chunk of each pass over the input hides behind nothing (pipeline fill).

The pipeline charges only exposed time to the ledger (through
:meth:`repro.gpusim.pcie.PCIeBus.overlapped`), but still counts the full
traffic volume -- SEPO's repeated input passes show up in the byte counters
even when they are well hidden.
"""

from __future__ import annotations

from repro.gpusim.pcie import PCIeBus

__all__ = ["BigKernelPipeline"]


class BigKernelPipeline:
    """Double-buffered CPU->GPU input streaming."""

    def __init__(self, bus: PCIeBus, stage_buffer_bytes: int | None = None):
        self.bus = bus
        #: optional cap on the chunk size the GPU-side staging buffer allows
        self.stage_buffer_bytes = stage_buffer_bytes
        self._fill_pending = True
        self.chunks_streamed = 0
        self.exposed_seconds = 0.0

    def begin_pass(self) -> None:
        """Start a new pass over the input (each SEPO iteration is one)."""
        self._fill_pending = True

    def account(self, input_bytes: int, kernel_seconds: float) -> float:
        """Account one chunk's transfer against the kernel that hides it.

        ``kernel_seconds`` is what the caller charged for this same chunk,
        which the transfer hides behind (not the first chunk of a pass).
        Returns the exposed (charged) seconds.
        """
        if input_bytes < 0 or kernel_seconds < 0:
            raise ValueError("negative pipeline accounting")
        if (
            self.stage_buffer_bytes is not None
            and input_bytes > self.stage_buffer_bytes
        ):
            raise ValueError(
                f"chunk of {input_bytes} bytes exceeds the staging buffer "
                f"({self.stage_buffer_bytes} bytes); partition smaller"
            )
        hidden = 0.0 if self._fill_pending else kernel_seconds
        self._fill_pending = False
        exposed = self.bus.overlapped(input_bytes, hidden)
        self.chunks_streamed += 1
        self.exposed_seconds += exposed
        return exposed
