"""Fast self-test of the benchmark itself (no workload is run).

    python3 perfbench/selftest.py

Checks the correctness references against hand-worked tiny cases, the
metric arithmetic on synthetic timings, and that the metric names the
benchmark prints are exactly those of BENCHMARK.json.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


class ConvReference(unittest.TestCase):
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)  # [[1 2 3] [4 5 6] [7 8 9]]
    w = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])  # out[i, j] = x[i, j] - x[i+1, j+1]

    def test_valid_window(self):
        out = ref.conv2d_direct(self.x, self.w, bias=np.array([1.0]))
        np.testing.assert_array_equal(out, [[[[-3.0, -3.0], [-3.0, -3.0]]]])

    def test_stride_and_pad(self):
        # zero-padded 5x5 input, windows at rows/cols 0 and 2
        out = ref.conv2d_direct(self.x, self.w, stride=2, pad=1)
        np.testing.assert_array_equal(out, [[[[-1.0, -3.0], [-7.0, -4.0]]]])

    def test_groups_keep_channels_apart(self):
        x = np.stack([np.ones((2, 2)), 2 * np.ones((2, 2))])[None]
        w = np.array([2.0, 3.0]).reshape(2, 1, 1, 1)
        out = ref.conv2d_direct(x, w, groups=2)
        np.testing.assert_array_equal(out[0, 0], 2 * np.ones((2, 2)))
        np.testing.assert_array_equal(out[0, 1], 6 * np.ones((2, 2)))

    def test_integer_operands_stay_exact(self):
        big = np.full((1, 1, 2, 2), 2**40, dtype=np.int64)
        out = ref.conv2d_direct(big, np.ones((1, 1, 2, 2), dtype=np.int64))
        self.assertEqual(out.dtype, np.int64)
        self.assertEqual(int(out[0, 0, 0, 0]), 4 * 2**40)


class GradientReference(unittest.TestCase):
    def test_central_difference_of_a_quadratic(self):
        a = np.array([1.0, 2.0])
        loss = lambda: 3.0 * a[1] ** 2 + a[0]  # noqa: E731
        self.assertAlmostEqual(ref.central_difference(loss, a, (1,), 1e-4), 12.0, places=6)
        self.assertAlmostEqual(ref.central_difference(loss, a, (0,), 1e-4), 1.0, places=6)
        np.testing.assert_array_equal(a, [1.0, 2.0])

    def test_agreement_tolerance(self):
        self.assertTrue(ref.gradient_agrees(12.000001, 12.0))
        self.assertFalse(ref.gradient_agrees(12.1, 12.0))


class PropertyHelpers(unittest.TestCase):
    def test_outlier_share(self):
        acts = [np.array([0.0, 1.0, 2.0]), np.array([3.0, -4.0])]
        self.assertEqual(ref.outlier_share(acts, [2.5, 2.5]), 0.5)

    def test_ordering(self):
        good = {("net", 0.03, "16"): {"olaccel": (1, 1), "zena": (2, 2), "eyeriss": (3, 3)}}
        bad = {("net", 0.03, "8"): {"olaccel": (1, 5), "zena": (2, 2), "eyeriss": (3, 3)}}
        self.assertEqual(ref.ordering_violations(good), [])
        self.assertEqual(len(ref.ordering_violations(bad)), 1)


class MetricArithmetic(unittest.TestCase):
    def test_tail_has_ten_items_beyond(self):
        self.assertEqual(common.tail(range(1, 41)), 30.0)
        with self.assertRaises(ValueError):
            common.tail(range(10))

    def test_host_factor_is_nominal_over_measured(self):
        slow = {part: 2 * ms for part, ms in common.NOMINAL_REF_MS.items()}
        parts = tuple(common.NOMINAL_REF_MS)
        self.assertAlmostEqual(common.host_factor(slow, slow, parts), 0.5)
        self.assertAlmostEqual(common.host_factor(common.NOMINAL_REF_MS, slow, parts), 2 / 3)

    def test_host_correction_scales_every_timing(self):
        rec = worker.Recorder(("python",))
        rec.items = [(0, 0.010)] * 40 + [(1, 0.020)] * 40
        rec.segments = [
            {"round": 0, "traced": False, "wall_s": 0.5, "factor": 2.0},
            {"round": 0, "traced": False, "wall_s": 1.0, "factor": 1.0},
        ]
        e2e = worker.end_to_end(rec)
        self.assertAlmostEqual(e2e["items_per_s"]["raw"], 80 / 1.5)
        self.assertAlmostEqual(e2e["items_per_s"]["corrected"], 80 / 2.0)
        self.assertAlmostEqual(e2e["item_ms_p50"]["raw"], 15.0)
        self.assertAlmostEqual(e2e["item_ms_p50"]["corrected"], 20.0)
        self.assertAlmostEqual(e2e["item_ms_tail"]["raw"], 20.0)
        self.assertAlmostEqual(e2e["item_ms_tail"]["corrected"], 20.0)


class MetricNames(unittest.TestCase):
    bench = common.load_benchmark(HERE.parent)

    def test_benchmark_json_has_the_fixed_form(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), common.WORKLOADS)
        setup = next(m for m in self.bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_printed_names_match(self):
        e2e = {n: {"corrected": 1.0, "raw": 1.0} for n, _, _ in common.END_TO_END}
        layers = {n: 1.0 for n, _ in common.PER_LAYER}
        result = {"workload": "sim_sweep", "checks": [], "attempted": 1, "failures": [],
                  "end_to_end": e2e, "per_layer": layers}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            printed = run.final_line([result], trace)["metrics"]
            declared = {m["name"]: m["unit"] for m in self.bench[key]}
            self.assertEqual({n: m["unit"] for n, m in printed.items()}, declared)
        better = {m["name"]: m["better"] for m in self.bench["end_to_end"]}
        self.assertEqual(better, {n: b for n, _, b in common.END_TO_END})


if __name__ == "__main__":
    unittest.main()
