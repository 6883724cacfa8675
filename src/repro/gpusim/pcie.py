"""PCIe interconnect model.

The paper's central systems argument (Sections II and VI-D) is about the
*shape* of PCIe traffic, not just its volume: SEPO turns hash-table spill
into a few bulky DMA copies, whereas the pinned-memory alternative issues one
small transaction per hash-table access, and demand paging moves whole pages
per fault.  The model therefore charges

``transactions * latency + bytes / bandwidth``

and additionally rounds each transaction's payload up to the minimum PCIe/DMA
granularity, which is what makes many-small transfers catastrophically worse
than few-bulky ones at equal byte volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.gpusim.clock import CostCategory, CostLedger

__all__ = ["PCIeLinkSpec", "PCIE_GEN3_X16", "PCIeBus", "TransferError"]


class TransferError(RuntimeError):
    """A DMA transfer kept failing past the bus's retry budget.

    Transient link faults (simulated by
    :class:`~repro.sanitize.faults.TransientTransferFault`) are retried with
    exponential backoff; only a *persistent* fault -- one that outlives
    ``max_retries`` attempts -- surfaces as this error.
    """


@dataclass(frozen=True)
class PCIeLinkSpec:
    """Static link parameters."""

    name: str
    #: sustained bulk DMA bandwidth, bytes/second
    bandwidth: float
    #: fixed per-transaction initiation cost, seconds
    latency: float
    #: minimum payload actually moved per transaction, bytes
    min_payload: int
    #: GPU-originated word accesses: in-flight transactions that overlap
    #: (thousands of warps issue remote loads concurrently)
    remote_mlp: int = 512
    #: payload granularity of a remote word access (a TLP, not a DMA burst)
    remote_payload: int = 32
    #: fraction of bulk bandwidth sustainable with word-sized transactions
    small_bw_fraction: float = 0.40


#: PCIe Gen3 x16 as in the paper's testbed.  15.75 GB/s theoretical; ~12 GB/s
#: sustained for bulk cudaMemcpy.  Remote word accesses from GPU threads cost
#: a full round trip (~1.1 us) and move at least one 128-byte flit.
PCIE_GEN3_X16 = PCIeLinkSpec(
    name="PCIe Gen3 x16",
    bandwidth=12e9,
    latency=1.1e-6,
    min_payload=128,
)


class PCIeBus:
    """Charges transfer time for CPU<->GPU traffic to a ledger.

    Also keeps byte/transaction counters so experiments can report traffic
    volume separately from time.
    """

    #: retry budget per DMA operation before :class:`TransferError`
    max_retries = 8
    #: base backoff, seconds; attempt ``k`` waits ``retry_backoff << k``
    retry_backoff = 10e-6

    def __init__(self, ledger: CostLedger, spec: PCIeLinkSpec = PCIE_GEN3_X16):
        self.ledger = ledger
        self.spec = spec
        self.bytes_moved = 0
        self.transactions = 0
        #: DMA operations issued (bulk / small / overlapped), fault-injector
        #: op index space
        self.transfer_ops = 0
        #: failed attempts retried across the whole run
        self.retries = 0
        #: simulated seconds burned in failed attempts + backoff
        self.retry_seconds = 0.0
        #: full wire seconds of every :meth:`overlapped` transfer
        self.overlap_wire_seconds = 0.0
        #: portion of that wire time actually hidden behind compute; the
        #: pair gives a link's overlap efficiency without re-deriving it
        #: from the ledger (see repro.shard.TransferSchedule)
        self.overlap_hidden_seconds = 0.0
        self._fault_injector: Callable[[int, int], bool] | None = None

    def set_fault_injector(
        self, injector: Callable[[int, int], bool] | None
    ) -> None:
        """Install a transfer-fault predicate ``(op_index, attempt) -> bool``.

        Called once per attempt of every DMA operation; returning True makes
        that attempt fail (the bus then backs off and retries).  ``None``
        uninstalls.  This is the hook
        :class:`~repro.sanitize.faults.TransientTransferFault` uses.
        """
        self._fault_injector = injector

    def _settle(self, nbytes: int, transactions: int) -> float:
        """Run one DMA operation through the fault/retry loop.

        Returns the successful attempt's transfer time.  Every failed
        attempt is charged to :data:`CostCategory.RETRY` -- the full wire
        time of the aborted attempt plus exponential backoff -- so recovery
        overhead is visible in the simulated-clock breakdown rather than
        silently folded into PCIE.  Retried time is never hidden by
        pipelining: a fault aborts the overlap window too.
        """
        t = self.transfer_time(nbytes, transactions)
        op = self.transfer_ops
        self.transfer_ops += 1
        if self._fault_injector is None:
            return t
        attempt = 0
        while self._fault_injector(op, attempt):
            wasted = t + self.retry_backoff * (1 << attempt)
            self.ledger.charge(CostCategory.RETRY, wasted)
            self.retry_seconds += wasted
            self.retries += 1
            attempt += 1
            if attempt > self.max_retries:
                raise TransferError(
                    f"DMA op {op} failed {attempt} times "
                    f"({nbytes} bytes, {transactions} transactions); "
                    f"retry budget is {self.max_retries}"
                )
        return t

    def torn_retry(self, nbytes: int, wasted_attempts: int) -> float:
        """Charge re-copies of a checksum-carrying DMA that arrived torn.

        The integrity layer verifies page evictions on arrival (see
        :mod:`repro.integrity`); a destination that fails its CRC is
        re-copied.  Each wasted attempt costs the full wire time of the
        aborted copy plus the same exponential backoff as a transient link
        fault, charged to :data:`CostCategory.RETRY` through the same
        counters, so torn transfers are indistinguishable from link faults
        in the clock breakdown.  Returns the seconds charged.
        """
        if wasted_attempts < 0:
            raise ValueError("negative retry count")
        t = self.transfer_time(nbytes, 1)
        total = 0.0
        for attempt in range(wasted_attempts):
            wasted = t + self.retry_backoff * (1 << attempt)
            self.ledger.charge(CostCategory.RETRY, wasted)
            self.retry_seconds += wasted
            self.retries += 1
            total += wasted
        return total

    # ------------------------------------------------------------------
    def transfer_time(self, nbytes: int, transactions: int = 1) -> float:
        """Time to move ``nbytes`` using ``transactions`` transactions."""
        if nbytes < 0 or transactions < 0:
            raise ValueError("negative transfer")
        if transactions == 0:
            return 0.0
        effective = max(nbytes, transactions * self.spec.min_payload)
        return transactions * self.spec.latency + effective / self.spec.bandwidth

    def bulk(self, nbytes: int) -> float:
        """One bulky DMA copy (how SEPO evicts heap pages)."""
        return self._charge(nbytes, 1)

    def small(self, transactions: int, bytes_each: int) -> float:
        """Many small transactions (how the pinned variant touches the table)."""
        return self._charge(transactions * bytes_each, transactions)

    def remote_access_time(self, transactions: int, bytes_each: int) -> float:
        """Time for GPU threads to touch CPU memory word-by-word.

        Unlike :meth:`small` (serial CPU-initiated transactions), remote
        accesses from thousands of concurrent GPU threads overlap: latency
        is divided by the link's memory-level parallelism, but every access
        still moves a small TLP at the derated small-transaction bandwidth.
        This is the cost model of the pinned-CPU-memory hash table of
        Section VI-D.
        """
        if transactions < 0 or bytes_each < 0:
            raise ValueError("negative remote access")
        payload = max(bytes_each, self.spec.remote_payload)
        latency_term = transactions * self.spec.latency / self.spec.remote_mlp
        bw_term = (
            transactions * payload
            / (self.spec.bandwidth * self.spec.small_bw_fraction)
        )
        return latency_term + bw_term

    def remote_access(self, transactions: int, bytes_each: int) -> float:
        """Charge :meth:`remote_access_time` and count the traffic."""
        t = self.remote_access_time(transactions, bytes_each)
        self.bytes_moved += transactions * max(
            bytes_each, self.spec.remote_payload
        )
        self.transactions += transactions
        self.ledger.charge(CostCategory.PCIE, t)
        return t

    def overlapped(self, nbytes: int, hidden_seconds: float) -> float:
        """A bulk transfer partially hidden behind ``hidden_seconds`` of
        compute (BigKernel pipelining); only the exposed time is charged.
        Returns the exposed seconds."""
        t = self._settle(nbytes, 1)
        exposed = max(0.0, t - hidden_seconds)
        self.overlap_wire_seconds += t
        self.overlap_hidden_seconds += t - exposed
        self.bytes_moved += max(nbytes, self.spec.min_payload)
        self.transactions += 1
        self.ledger.charge(CostCategory.PCIE, exposed)
        return exposed

    def _charge(self, nbytes: int, transactions: int) -> float:
        t = self._settle(nbytes, transactions)
        self.bytes_moved += max(nbytes, transactions * self.spec.min_payload)
        self.transactions += transactions
        self.ledger.charge(CostCategory.PCIE, t)
        return t
