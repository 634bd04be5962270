"""Shared definitions of the repo benchmark: metric names, statistics, host loop.

This module imports only the standard library at import time, so the
worker can time ``import repro.cli`` (numpy included) before anything
else pulls numpy in.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

WORKLOADS = ("sim_sweep", "quant_infer", "nn_train")

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) of every per-layer metric of the traced run. Span times are
#: per-call means, corrected for host speed like the end-to-end timings;
#: counts are per round (one pass over the workload's operations).
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("nn.data.make_dataset_ms", "ms"),
    ("nn.zoo_mini.build_ms", "ms"),
    ("harness.workloads.paper_workload_ms", "ms"),
    ("harness.experiments.simulate_cell_ms", "ms"),
    ("olaccel.simulate_network_ms", "ms"),
    ("baselines.simulate_network_ms", "ms"),
    ("harness.simcache.overhead_ms", "ms"),
    ("harness.simcache.hit_ratio", "ratio"),
    ("harness.faults.cell_ms", "ms"),
    ("nn.forward_eval_ms", "ms"),
    ("quant.qmodel_forward_ms", "ms"),
    ("quant.calibrate_ms", "ms"),
    ("quant.qmodel_build_ms", "ms"),
    ("olaccel.mapper.compile_ms", "ms"),
    ("arch.bitcodec.decode_ms", "ms"),
    ("nn.forward_train_ms", "ms"),
    ("nn.cross_entropy_backward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.train.sgd_step_ms", "ms"),
    ("harness.simcache.lookups", "count"),
    ("harness.simcache.hits", "count"),
    ("harness.simcache.misses", "count"),
    ("harness.simcache.stores", "count"),
    ("harness.simcache.evictions", "count"),
    ("harness.simcache.layer_lookups", "count"),
    ("faults.injected", "count"),
    ("faults.detected", "count"),
    ("olaccel.mapper.wordless_layers", "count"),
    ("nn.images", "count"),
    ("sim.cycles", "cycles"),
    ("sim.energy_pj", "pJ"),
    ("quant.outlier_share", "ratio"),
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

#: Nominal time (ms) of each part of :func:`reference_loop` on the reference
#: host (2-vCPU x86-64 VM, one BLAS thread); see README.md.
NOMINAL_REF_MS = {"python": 12.0, "numpy": 10.0, "matmul": 22.0}

#: The parts of the reference loop whose speed each workload's speed follows
#: on a shared host; its timings are scaled by nominal / measured of these.
REF_PARTS = {
    "setup": ("python", "numpy", "matmul"),
    "sim_sweep": ("python", "numpy", "matmul"),
    "quant_infer": ("python", "numpy", "matmul"),
    "nn_train": ("matmul",),
}

#: BLAS/OpenMP pool size the worker runs with (recorded in every result).
BLAS_THREADS = 1

#: Items that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Seconds one round of each workload takes on the reference host.
ROUND_S = {"sim_sweep": 2.8, "quant_infer": 14.0, "nn_train": 1.5}


def planned_rounds(workload, seconds, traced):
    """Whole rounds that take ``seconds`` on the reference host.

    The count depends only on ``seconds``, never on how fast this host
    happens to be. A traced run alternates untraced and traced rounds, so
    it makes an even number, at least two.
    """
    rounds = max(1, math.ceil(seconds / ROUND_S[workload]))
    return max(2, rounds + rounds % 2) if traced else rounds


def load_benchmark(root: Path) -> dict:
    """The repository's BENCHMARK.json."""
    return json.loads((root / "BENCHMARK.json").read_text())


def median(values):
    return float(statistics.median(values))


def tail(values):
    """The highest order statistic with at least ``TAIL_BEYOND`` items above it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} items for a tail, got {len(ordered)}")
    return float(ordered[len(ordered) - TAIL_BEYOND - 1])


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def ref_time(parts_ms, parts):
    """Time of the named parts of one reference loop measurement."""
    return sum(parts_ms[p] for p in parts)


def host_factor(before, after, parts):
    """Correction for work timed between two reference loop measurements."""
    return ref_time(NOMINAL_REF_MS, parts) / ((ref_time(before, parts) + ref_time(after, parts)) / 2)


#: Each part of the reference loop runs in this many equal chunks; its time
#: is the median chunk times the count, so one stall of the host inside a
#: measurement does not move it.
REF_CHUNKS = 5


def reference_loop():
    """Run the fixed host-speed reference work once; return each part's time in ms.

    Pure-Python dict/int work, small-array numpy calls and a float64 matmul
    shaped like a convolution GEMM (im2col rows x kernel taps x channels).
    It imports nothing from ``repro``.
    """
    import numpy as np

    def python_chunk():
        table = {}
        acc = 0
        for i in range(8_000):
            key = i % 251
            table[key] = table.get(key, 0) + i
            acc ^= (i * 2654435761) & 0xFFFF
        return acc >= 0

    def numpy_chunk():
        small = np.linspace(0.0, 1.0, 64)
        for _ in range(600):
            small = np.sqrt(small * small + 1.0) - 0.75
        return bool(np.isfinite(small).all())

    cols = np.full((2048, 576), 0.5)
    kernel = np.full((576, 64), 0.25)

    def matmul_chunk():
        return (cols @ kernel)[0, 0] == 72.0

    times = {}
    for part, chunk in (("python", python_chunk), ("numpy", numpy_chunk), ("matmul", matmul_chunk)):
        spans = []
        for _ in range(REF_CHUNKS):
            start = time.perf_counter()
            ok = chunk()
            spans.append(time.perf_counter() - start)
            if not ok:
                raise RuntimeError(f"reference loop part {part} produced a wrong result")
        times[part] = median(spans) * REF_CHUNKS * 1e3
    return times
