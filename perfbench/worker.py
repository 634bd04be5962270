"""One benchmark workload in a fresh interpreter: set up, check, time, report.

``run.py`` starts this file once per sample with ``--mode setup`` (set up,
print ``READY``, time the host reference loop, exit), once with ``--mode
check`` (the same, then the correctness checks that need no timed rounds)
and once with ``--mode run`` (set up, time whole rounds, report). The
checks run in a process of their own so that the timing worker's peak
resident set is that of set-up and the timed rounds. ``--mode trace``
makes the traced run: set up, check, time whole rounds, report. Only the
last stdout line is read as the result, a JSON object.

Every layer is timed from outside: spans surround the calls this file makes
into the public functions of ``repro``. Layers that run only inside another
call (the workload build and plain simulation inside ``simulate_cell``) are
called directly on the same inputs in traced rounds, outside item timing.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


class Recorder:
    """Times items and samples host speed; traced rounds also keep spans in memory.

    The timed phase is cut into segments of about ``SEGMENT_S`` of work,
    with one reference loop measurement at each cut. Items and spans are
    filed under the segment they ran in, whose host-speed factor comes from
    the measurements on either side of it.
    """

    def __init__(self, parts):
        self.parts = parts
        self.traced = False
        self.round = 0
        self.items = []  # (segment, seconds)
        self.spans = []  # (segment, name, seconds, is_probe)
        self.segments = []  # {"round", "traced", "wall_s", "factor"}
        self.refs = []
        self.failures = []  # names of failed operations, one per failure
        self._start = None

    def start_round(self, traced):
        if not self.refs:
            self.refs.append(common.reference_loop())
        self.traced = traced
        self._start = time.perf_counter()

    def end_segment(self):
        wall = time.perf_counter() - self._start
        self.refs.append(common.reference_loop())
        self.segments.append({
            "round": self.round,
            "traced": self.traced,
            "wall_s": wall,
            "factor": common.host_factor(self.refs[-2], self.refs[-1], self.parts),
        })
        self._start = time.perf_counter()

    def end_round(self):
        self.end_segment()
        self.round += 1

    def _done(self, elapsed):
        self.items.append((len(self.segments), elapsed))
        if time.perf_counter() - self._start >= SEGMENT_S:
            self.end_segment()

    def item(self, name, fn, *args, **kwargs):
        """Time one operation that is a single call."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if self.traced:
            self.spans.append((len(self.segments), name, elapsed, False))
        self._done(elapsed)
        return out

    @contextmanager
    def timed_item(self):
        """Time one operation made of several :meth:`call` s."""
        start = time.perf_counter()
        yield
        self._done(time.perf_counter() - start)

    def call(self, name, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((len(self.segments), name, time.perf_counter() - start, False))
        return out

    def probe(self, name, fn, *args, **kwargs):
        """A direct call into an inner layer, made outside item timing."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((len(self.segments), name, time.perf_counter() - start, True))
        return out


def timed(layers, name, fn, *args, **kwargs):
    """Call ``fn`` once during set-up, adding its time (ms) to ``layers[name]``."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    layers[name] = layers.get(name, 0.0) + (time.perf_counter() - start) * 1e3
    return out


# ---------------------------------------------------------------------------
# sim_sweep
# ---------------------------------------------------------------------------

NETWORKS = ("alexnet", "vgg16", "resnet18", "resnet101", "densenet121")
SIM_RATIOS = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
#: Repeated cells per round: half a few cells after their first use (inside
#: the 1,024-entry memory layer, so they hit), half 45-60 cells after (by
#: then ~2,500 layer entries have evicted them).
REPEATS = 36
NEAR = (1, 3)
FAR = (45, 60)
FAULT_NETWORKS = 2


def make_simulator(kind, network, ratio):
    """The accelerator model ``simulate_cell`` builds for a cell, via public constructors."""
    from repro.baselines import EyerissSimulator, ZenaSimulator, eyeriss8, eyeriss16, zena8, zena16
    from repro.harness.workloads import memory_bytes
    from repro.olaccel import OLAccelSimulator, olaccel8, olaccel16

    bits = 16 if kind.endswith("16") else 8
    mem = memory_bytes(network, bits)
    if kind.startswith("eyeriss"):
        return EyerissSimulator((eyeriss16 if bits == 16 else eyeriss8)(mem))
    if kind.startswith("zena"):
        return ZenaSimulator((zena16 if bits == 16 else zena8)(mem))
    return OLAccelSimulator((olaccel16 if bits == 16 else olaccel8)(mem, ratio))


def plain_simulation(kind, network, ratio, workload):
    return make_simulator(kind, network, ratio).simulate_network(workload)


class SimSweep:
    """Breakdown cells of every accelerator, network and ratio, plus fault cells."""

    def __init__(self, seed, layers):
        import numpy as np

        from repro.harness import experiments, faults

        self.exp = experiments
        self.faults = faults
        rng = np.random.default_rng([seed, 0x5157])
        grid = [(k, n, r) for k in experiments.ALL_ACCELERATORS for n in NETWORKS for r in SIM_RATIOS]
        order = [grid[i] for i in rng.permutation(len(grid))]
        originals = rng.choice(len(order) - FAR[1], size=REPEATS, replace=False)
        after = {}
        for j, i in enumerate(originals):
            low, high = NEAR if j % 2 == 0 else FAR
            after.setdefault(int(i) + int(rng.integers(low, high + 1)), []).append(order[i])
        seq = []
        for pos, cell in enumerate(order):
            seq.append(("cell", cell))
            seq.extend(("cell", c) for c in after.get(pos, ()))
        self.fault_networks = [str(n) for n in rng.choice(NETWORKS, FAULT_NETWORKS, replace=False)]
        self.fault_seed = int(rng.integers(0, 2**31))
        fault_items = [("rate", (n, r)) for n in self.fault_networks for r in faults.DEFAULT_RATES]
        fault_items += [("width", (n, w)) for n in self.fault_networks for w in faults.DEFAULT_WIDTHS]
        for pos, entry in sorted(zip(rng.choice(len(seq) + 1, len(fault_items)), fault_items), reverse=True):
            seq.insert(int(pos), entry)
        self.seq = seq
        self.grid = grid
        self.totals = {}
        self.counts = {}
        self.unreconciled = []

    def check(self, report):
        from repro.faults import faulty_olaccel_conv2d
        from repro.harness.simcache import SimCache
        from repro.harness.workloads import paper_workload
        from repro.obs import Registry

        from references import conv2d_direct, ordering_violations

        plain = {}
        by_family = {}
        for network in NETWORKS:
            for ratio in SIM_RATIOS:
                workload = paper_workload(network, ratio=ratio)
                for kind in self.exp.ALL_ACCELERATORS:
                    run = plain_simulation(kind, network, ratio, workload)
                    plain[(kind, network, ratio)] = run
                    family = kind.rstrip("0123456789")
                    by_family.setdefault((network, ratio, kind[len(family):]), {})[family] = (
                        run.total_cycles,
                        run.total_energy.total,
                    )
        bad = ordering_violations(by_family)
        report("OLAccel < ZeNA < Eyeriss in cycles and energy", not bad, f"{len(by_family)} points", bad)

        mismatched = []
        for kind in self.exp.ALL_ACCELERATORS:
            cell = next(c for _, c in self.seq if len(c) == 3 and c[0] == kind)
            cache = SimCache(obs=Registry())
            cold = self.exp.simulate_cell(*cell, cache=cache).to_dict()
            warm = self.exp.simulate_cell(*cell, cache=cache).to_dict()
            if not cold == warm == plain[cell].to_dict():
                mismatched.append(str(cell))
        report("simulate_cell cold == warm == plain simulate_network", not mismatched, "6 cells", mismatched)

        wrong = []
        for network in self.fault_networks:
            acts, weights, _, _ = self.faults.fault_case(network, 0.03, self.fault_seed)
            expected = conv2d_direct(acts.astype("int64"), weights.astype("int64"), pad=1)
            got = faulty_olaccel_conv2d(acts, weights, pad=1).psum
            if got.shape != expected.shape or not (got == expected).all():
                wrong.append(network)
        report("fault-free datapath == integer numpy convolution", not wrong, ",".join(self.fault_networks), wrong)

    def before_timed(self):
        pass

    def run_round(self, rec):
        from repro.harness.simcache import SimCache
        from repro.harness.workloads import paper_workload
        from repro.obs import Registry

        registry = Registry()
        cache = SimCache(obs=registry)
        injected = detected = 0
        for kind, spec in self.seq:
            if kind == "cell":
                stats = rec.item("harness.experiments.simulate_cell", self.exp.simulate_cell, *spec, cache=cache)
                self.totals[spec] = (stats.total_cycles, stats.total_energy.total)
                if rec.traced:
                    accel, network, ratio = spec
                    workload = rec.probe("harness.workloads.paper_workload", paper_workload, network, ratio=ratio)
                    layer = "olaccel.simulate_network" if accel.startswith("olaccel") else "baselines.simulate_network"
                    rec.probe(layer, plain_simulation, accel, network, ratio, workload)
                continue
            network, value = spec
            if kind == "rate":
                row = rec.item("harness.faults.cell", self.faults.fault_rate_cell, network, value,
                               seed=self.fault_seed, cache=cache)
                if row["injected"] != row["detected"] + row["undetected"]:
                    self.unreconciled.append(f"{network} rate={value}")
                injected += row["injected"]
                detected += row["detected"]
            else:
                rec.item("harness.faults.cell", self.faults.fault_width_cell, network, value,
                         seed=self.fault_seed, cache=cache)
        snap = registry.snapshot()
        lookups = snap.get("simcache/lookups", 0)
        self.counts = {
            "harness.simcache.lookups": lookups,
            "harness.simcache.hits": snap.get("simcache/hits", 0),
            "harness.simcache.misses": snap.get("simcache/misses", 0),
            # The memory layer keeps every miss, cell or layer; the program's
            # own ``simcache/stores`` counts disk writes only.
            "harness.simcache.stores": snap.get("simcache/misses", 0) + snap.get("simcache/layer_misses", 0),
            "harness.simcache.evictions": snap.get("simcache/evictions", 0),
            "harness.simcache.layer_lookups": snap.get("simcache/layer_lookups", 0),
            "harness.simcache.hit_ratio": snap.get("simcache/hits", 0) / lookups if lookups else 0.0,
            "faults.injected": injected,
            "faults.detected": detected,
        }

    def after(self, report):
        report("fault counters reconcile: injected == detected + undetected", not self.unreconciled,
               "every rate cell of every round", self.unreconciled)
        self.counts["sim.cycles"] = sum(self.totals[c][0] for c in self.grid)
        self.counts["sim.energy_pj"] = sum(self.totals[c][1] for c in self.grid)

    def derived(self, span_ms):
        """Per-cell cache overhead: cell time minus plain build + simulation of the same cells."""
        cell = span_ms.get("harness.experiments.simulate_cell")
        if not cell:
            return {}
        plain = sum(
            span_ms.get(name, (0.0, 0))[0]
            for name in ("harness.workloads.paper_workload", "olaccel.simulate_network", "baselines.simulate_network")
        )
        return {"harness.simcache.overhead_ms": (cell[0] - plain) / cell[1]}


# ---------------------------------------------------------------------------
# quant_infer and nn_train share the dataset and the minis
# ---------------------------------------------------------------------------

MINIS = ("alexnet", "vgg", "resnet", "densenet")
#: The dataset of the accuracy figures (Figs. 2, 3, 14, 16).
DATASET = dict(num_classes=16, train_per_class=80, test_per_class=75, size=32, noise=0.8, jitter=5, seed=7)


def build_minis(layers):
    from repro.nn.data import make_dataset
    from repro.nn.zoo_mini import build_mini

    data = timed(layers, "nn.data.make_dataset_ms", make_dataset, **DATASET)
    models = {name: timed(layers, "nn.zoo_mini.build_ms", build_mini, name, num_classes=data.num_classes)
              for name in MINIS}
    return data, models


QUANT_RATIOS = (0.01, 0.03, 0.05)
#: Two calibration batches of 32: a calibration then costs about one forward
#: of the test batch, so the median item sits inside a cluster of similar items.
CAL_SAMPLES = 64
TEST_BATCH = 64
SPLIT_BATCH = 16


class QuantInfer:
    """Calibrate, quantize, deploy and run every mini at several outlier ratios."""

    def __init__(self, seed, layers):
        import numpy as np

        self.data, self.models = build_minis(layers)
        rng = np.random.default_rng([seed, 0x0A71])
        self.cal_x = self.data.train_x[rng.choice(len(self.data.train_x), CAL_SAMPLES, replace=False)]
        self.test_x = {name: self.data.test_x[rng.choice(len(self.data.test_x), TEST_BATCH, replace=False)]
                       for name in MINIS}
        self.calibrations = {}
        self.counts = {}

    def config(self, name, ratio):
        from repro.quant import QuantConfig

        return QuantConfig(ratio=ratio, first_layer_weight_bits=8 if name in ("resnet", "densenet") else 4)

    def check(self, report):
        import numpy as np

        from repro.nn.layers import Conv2d

        from references import conv2d_direct

        worst = 0.0
        checked = 0
        for name, model in self.models.items():
            # The inputs of every compute layer for the first two calibration images.
            captured = model.record_activations(self.cal_x[:2])
            for index, layer in enumerate(model.compute_layers()):
                if not isinstance(layer, Conv2d):
                    continue
                x = captured[index]
                bias = layer.bias.value if layer.bias is not None else None
                expected = conv2d_direct(x, layer.weight.value, bias, layer.stride, layer.pad, layer.groups)
                got = layer.forward(x)
                err = float(np.abs(got - expected).max()) / max(1.0, float(np.abs(expected).max()))
                worst = max(worst, err)
                checked += 1
        report("Conv2d output == sliding-window float64 convolution", worst <= 1e-10,
               f"{checked} layers, worst relative error {worst:.1e}", [])

        split_bad = []
        for name, model in self.models.items():
            x = self.test_x[name][:SPLIT_BATCH]
            whole = model.forward(x)
            half = SPLIT_BATCH // 2
            parts = np.concatenate([model.forward(x[:half]), model.forward(x[half:])])
            if not np.allclose(whole, parts, rtol=1e-9, atol=1e-9 * max(1.0, float(np.abs(whole).max()))):
                split_bad.append(name)
        report("batch-split logits are invariant", not split_bad, f"{SPLIT_BATCH} images per mini", split_bad)

    def before_timed(self):
        pass

    def run_round(self, rec):
        from repro.arch.bitcodec import decode_packed
        from repro.olaccel.mapper import compile_model
        from repro.quant import QuantizedModel, calibrate_activation_thresholds

        images = wordless = 0
        for name, model in self.models.items():
            x = self.test_x[name]
            rec.item("nn.forward_eval", model.forward, x)
            images += len(x)
            for ratio in QUANT_RATIOS:
                cfg = self.config(name, ratio)
                cal = rec.item("quant.calibrate", calibrate_activation_thresholds, model, self.cal_x, ratio=ratio)
                self.calibrations[(name, ratio)] = cal
                qm = rec.item("quant.qmodel_build", QuantizedModel, model, cal, cfg)
                with rec.timed_item():
                    program = rec.call("olaccel.mapper.compile", compile_model, model, cal, cfg)
                    decoded = [
                        rec.call("arch.bitcodec.decode", decode_packed, p.base_words, p.spill_words,
                                 n_groups=p.packed.n_groups, reduction=p.packed.reduction,
                                 out_channels=p.packed.out_channels) if p.base_words else None
                        for p in program.layers
                    ]
                problems = self.verify_program(program, decoded)
                wordless += sum(not p.base_words for p in program.layers)
                if problems:
                    rec.failures.append(f"deploy {name}@{ratio:.0%}: " + "; ".join(problems))
                rec.item("quant.qmodel_forward", qm.forward, x)
                images += len(self.cal_x) + len(x)
        self.counts = {"nn.images": images, "olaccel.mapper.wordless_layers": wordless}

    @staticmethod
    def verify_program(program, decoded):
        """Names of layers whose words do not decode to their weight levels."""
        import numpy as np

        problems = []
        for layer, packed in zip(program.layers, decoded):
            levels = layer.weight_levels.reshape(layer.weight_levels.shape[0], -1)
            if packed is None:
                if np.any(levels):
                    problems.append(f"{layer.name} ({layer.packed.n_spill} spill chunks) has no words")
            elif not np.array_equal(packed.unpack(), levels):
                problems.append(f"{layer.name} decodes to other levels")
        return problems

    def after(self, report):
        """Outlier shares of the timed phase's calibrations, on their own inputs.

        Runs after the peak resident set is read: the captured activations
        of 64 images belong to the check, not to the program.
        """
        from references import outlier_share

        off = []
        shares_at_max = []
        for name, model in self.models.items():
            captured = model.record_activations(self.cal_x)
            for ratio in QUANT_RATIOS:
                cal = self.calibrations[(name, ratio)]
                used = [i for i, layer in enumerate(cal.layers) if i > 0 and not layer.signed]
                share = outlier_share([captured[i] for i in used], [cal.layers[i].threshold for i in used])
                if abs(share - ratio) > 0.1 * ratio:
                    off.append(f"{name}@{ratio:.0%}: {share:.4f}")
                if ratio == max(QUANT_RATIOS):
                    shares_at_max.append(share)
        report("calibrated outlier share sits at the target ratio", not off,
               f"{len(self.calibrations)} calibrations", off)
        self.counts["quant.outlier_share"] = sum(shares_at_max) / len(shares_at_max)

    def derived(self, span_ms):
        return {}


STEP_BATCH = 16
#: SGD steps per mini per round. Uneven, so that the median step falls
#: inside the cluster of small-mini steps rather than between two clusters.
STEPS_PER_ROUND = {"alexnet": 3, "vgg": 2, "resnet": 1, "densenet": 1}
HELD_BATCH = 64
FD_BATCH = 4
FD_ENTRIES = 6
#: Small enough that no ReLU or max-pool switches inside +-eps (1e-5 does,
#: with batch-norm over four images), large enough for float64 round-off.
FD_EPS = 1e-7


def sgd_step(optimizer):
    optimizer.step()
    optimizer.zero_grad()


class NnTrain:
    """SGD steps on every mini: the body of ``train_model``."""

    def __init__(self, seed, layers):
        import numpy as np

        from repro.nn.train import SGD, TrainConfig

        self.data, self.models = build_minis(layers)
        cfg = TrainConfig()
        self.optimizers = {
            name: SGD(m.parameters(), cfg.lr, cfg.momentum, cfg.weight_decay, grad_clip=cfg.grad_clip)
            for name, m in self.models.items()
        }
        self.rng = np.random.default_rng([seed, 0x7A15])
        held = self.rng.choice(len(self.data.test_x), HELD_BATCH, replace=False)
        self.held = (self.data.test_x[held], self.data.test_y[held])
        self.loss_before = {}
        self.counts = {}

    def held_loss(self, model):
        """Mean loss over the held batch, in forwards of ``STEP_BATCH`` images.

        Forwards no larger than a training step keep the check out of the
        peak resident set.
        """
        from repro.nn import functional as F

        x, y = self.held
        return sum(F.cross_entropy(model.forward(x[i:i + STEP_BATCH]), y[i:i + STEP_BATCH])
                   for i in range(0, HELD_BATCH, STEP_BATCH)) / (HELD_BATCH // STEP_BATCH)

    def check(self, report):
        from repro.nn import functional as F

        from references import central_difference, gradient_agrees

        bad = []
        for name, original in self.models.items():
            model = copy.deepcopy(original)
            idx = self.rng.choice(len(self.data.train_x), FD_BATCH, replace=False)
            x, y = self.data.train_x[idx], self.data.train_y[idx]
            model.zero_grad()
            logits = model.forward(x, train=True)
            model.backward(F.cross_entropy_backward(logits, y))
            params = model.parameters()
            for k in self.rng.choice(len(params), FD_ENTRIES, replace=False):
                param = params[k]
                entry = tuple(int(self.rng.integers(0, s)) for s in param.value.shape)
                numeric = central_difference(lambda: F.cross_entropy(model.forward(x, train=True), y),
                                             param.value, entry, FD_EPS)
                if not gradient_agrees(numeric, float(param.grad[entry])):
                    bad.append(f"{name} {param.name}{list(entry)}: fd={numeric:.6g} backward={param.grad[entry]:.6g}")
        report("Model.backward == central finite differences", not bad,
               f"{FD_ENTRIES * len(self.models)} parameter entries", bad)

    def before_timed(self):
        self.loss_before = {name: self.held_loss(m) for name, m in self.models.items()}

    def run_round(self, rec):
        from repro.nn import functional as F

        train_x, train_y = self.data.train_x, self.data.train_y
        for name, model in self.models.items():
            optimizer = self.optimizers[name]
            for _ in range(STEPS_PER_ROUND[name]):
                idx = self.rng.choice(len(train_x), STEP_BATCH, replace=False)
                x, y = train_x[idx], train_y[idx]
                with rec.timed_item():
                    logits = rec.call("nn.forward_train", model.forward, x, train=True)
                    grad = rec.call("nn.cross_entropy_backward", F.cross_entropy_backward, logits, y)
                    rec.call("nn.backward", model.backward, grad)
                    rec.call("nn.train.sgd_step", sgd_step, optimizer)
        self.counts = {"nn.images": STEP_BATCH * sum(STEPS_PER_ROUND.values())}

    def after(self, report):
        after = {name: self.held_loss(m) for name, m in self.models.items()}
        rose = [f"{n}: {self.loss_before[n]:.4f} -> {after[n]:.4f}" for n in self.models
                if not after[n] < self.loss_before[n]]
        report("loss on a held batch falls over the run", not rose, f"{HELD_BATCH} images per mini", rose)

    def derived(self, span_ms):
        return {}


WORKLOAD_CLASSES = {"sim_sweep": SimSweep, "quant_infer": QuantInfer, "nn_train": NnTrain}
MIN_ITEMS = 4 * common.TAIL_BEYOND
#: Work between two reference loop measurements.
SEGMENT_S = 0.5
SETUP_REF_REPEATS = 3


def timed_phase(name, workload, rec, seconds, traced_run):
    """Run the planned rounds (more if they hold fewer than ``MIN_ITEMS`` items).

    Every run of a workload thus times the same items, and its percentiles
    are the same order statistics.
    """
    rounds = common.planned_rounds(name, seconds, traced_run)
    while rec.round < rounds or len(rec.items) < MIN_ITEMS:
        rec.start_round(traced_run and rec.round % 2 == 1)
        workload.run_round(rec)
        rec.end_round()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec):
    """Throughput, median and tail of untraced items: corrected and raw."""
    segs = rec.segments
    untraced = {k for k, seg in enumerate(segs) if not seg["traced"]}
    raw = [dt * 1e3 for k, dt in rec.items if k in untraced]
    corrected = [dt * 1e3 * segs[k]["factor"] for k, dt in rec.items if k in untraced]
    wall_raw = sum(segs[k]["wall_s"] for k in untraced)
    wall_corrected = sum(segs[k]["wall_s"] * segs[k]["factor"] for k in untraced)
    rss_mb = peak_rss_mb()
    return {
        "items": len(raw),
        "items_per_s": {"corrected": len(raw) / wall_corrected, "raw": len(raw) / wall_raw},
        "item_ms_p50": {"corrected": common.median(corrected), "raw": common.median(raw)},
        "item_ms_tail": {"corrected": common.tail(corrected), "raw": common.tail(raw)},
        "peak_rss_mb": {"corrected": rss_mb, "raw": rss_mb},
    }


def per_layer(workload, rec, setup_layers, setup_factor):
    """Every per-layer metric of the traced run; layers a workload never reaches read 0."""
    segs = rec.segments
    span_ms = {}
    probe_s = {}
    for k, name, dt, is_probe in rec.spans:
        total, count = span_ms.get(name, (0.0, 0))
        span_ms[name] = (total + dt * 1e3 * segs[k]["factor"], count + 1)
        if is_probe:
            probe_s[k] = probe_s.get(k, 0.0) + dt
    metrics = {name: 0.0 for name, _ in common.PER_LAYER}
    for name, value in setup_layers.items():
        metrics[name] = value * setup_factor
    for name, (total, count) in span_ms.items():
        metrics[name + "_ms"] = total / count
    metrics.update(workload.derived(span_ms))
    metrics.update(workload.counts)

    # Corrected work per round, without the direct calls of traced rounds.
    rounds = {}
    for k, seg in enumerate(segs):
        work = (seg["wall_s"] - probe_s.get(k, 0.0)) * seg["factor"]
        rounds.setdefault(seg["traced"], {}).setdefault(seg["round"], 0.0)
        rounds[seg["traced"]][seg["round"]] += work
    traced_work = sum(rounds[True].values())
    metrics["trace.overhead_pct"] = 100.0 * (
        common.median(list(rounds[True].values())) / common.median(list(rounds[False].values())) - 1.0)
    spans = sum(dt * segs[k]["factor"] for k, _, dt, is_probe in rec.spans if not is_probe)
    metrics["trace.unattributed_pct"] = 100.0 * (1.0 - spans / traced_work)
    metrics["host.ref_ms"] = common.median([common.ref_time(r, common.NOMINAL_REF_MS) for r in rec.refs])
    unknown = set(metrics) - {name for name, _ in common.PER_LAYER}
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from common.PER_LAYER: {sorted(unknown)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "check", "run", "trace"))
    args = parser.parse_args(argv)

    setup_layers = {}
    timed(setup_layers, "cli.import_ms", __import__, "repro.cli")
    workload = WORKLOAD_CLASSES[args.workload](args.seed, setup_layers)
    print("READY", flush=True)
    refs = [common.reference_loop() for _ in range(SETUP_REF_REPEATS)]
    setup_ref = {part: common.median([r[part] for r in refs]) for part in refs[0]}
    checks = []

    def report(name, ok, detail, problems):
        checks.append({"name": name, "ok": bool(ok), "detail": detail, "problems": [str(p) for p in problems]})

    if args.mode in ("check", "trace"):
        workload.check(report)
    if args.mode in ("setup", "check"):
        print(json.dumps({"ref_ms": setup_ref, "checks": checks}))
        return 0

    workload.before_timed()
    rss_before_timed = peak_rss_mb()
    rec = Recorder(common.REF_PARTS[args.workload])
    timed_phase(args.workload, workload, rec, args.seconds, args.mode == "trace")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "blas_threads": common.BLAS_THREADS,
        "setup_ref_ms": setup_ref,
        "ref_ms": rec.refs,
        "segments": rec.segments,
        "items": rec.items,
        "attempted": len(rec.items),
        "failures": rec.failures,
    }
    if args.mode == "run":
        result["end_to_end"] = end_to_end(rec)
        result["peak_rss_mb_before_timed"] = rss_before_timed
    workload.after(report)
    if args.mode == "trace":
        factor = common.host_factor(setup_ref, setup_ref, common.REF_PARTS["setup"])
        result["per_layer"] = per_layer(workload, rec, setup_layers, factor)
    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
