"""Workloads, correctness gate and metrics of the spikeconv benchmark.

Every workload runs the acceptance architecture 16c5-p2-32c5-p2-fc512 on
a seeded synthetic stroke dataset that set-up writes as IDX files and
reads back through ``spikeconv.datasets.load_idx``:

- ``train``: ``train_network`` on the training split, then the
  ``spikeconv eval`` pipeline as public calls, with inference inhibition
  none, on the fresh model; repeated.
- ``eval-soft``: the same pipeline with soft inhibition at column scope, on
  a model trained during set-up; repeated.

An untraced run reports the end-to-end metrics. A traced run records spans
around the same public calls (training rebuilt from ``train_layer``,
``broadcast_column`` and single-layer ``forward_times``, plus a per-layer
forward probe over every inhibition policy) and reports per-layer metrics.
Both compare sha256 digests of the model bytes, feature matrices and test
predictions against ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spikeconv import (
    BiologicalStdp,
    CodingWindow,
    DoGParams,
    InhibitionPolicy,
    LayerSpec,
    Network,
    NetworkSpec,
    RngStreams,
    Shape3,
    TrainConfig,
)
from spikeconv import training
from spikeconv.datasets import load_idx
from spikeconv.modelio import load_network, network_bytes, save_network
from spikeconv.readout import decode_grid, extract_features, mean_sparsity, sum_pool
from spikeconv.simulate import forward_times
from spikeconv.svm import accuracy, fit, predict
from spikeconv.training import (
    broadcast_column,
    encode_dataset,
    layer_t_targets,
    train_layer,
    train_network,
)

import strokes
from speed import Speed
from tracing import NullTracer, Tracer, patched

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("train", "eval-soft")

SPEC = NetworkSpec(Shape3(2, 28, 28), [
    LayerSpec("conv", 5, 5, 16, 1, 0),
    LayerSpec("pool", 2, 2, 16, 2, 0),
    LayerSpec("conv", 5, 5, 32, 1, 0),
    LayerSpec("pool", 2, 2, 32, 2, 0),
    LayerSpec("fc", 4, 4, 512, 1, 0),
])
LAYERS = ("conv1", "pool1", "conv2", "pool2", "fc")
TRAINABLE = ("conv1", "conv2", "fc")

POLICIES = {
    "none": InhibitionPolicy("none"),
    "soft-column": InhibitionPolicy("soft", 1.0, "column"),
    "wta-column": InhibitionPolicy("wta", 1.0, "column"),
    "wta-layer": InhibitionPolicy("wta", 1.0, "layer"),
    "soft-layer": InhibitionPolicy("soft", 1.0, "layer"),
}
EVAL_POLICY = {"train": "none", "eval-soft": "soft-column"}
DOG = DoGParams()
WINDOW = CodingWindow()


@dataclass(frozen=True)
class Sizes:
    name: str
    n_train: int       # training split of every trained model
    n_fit: int         # split the SVM is fitted on
    n_test: int        # held-out split: accuracy
    train_epochs: int  # epochs of the train workload's training
    model_epochs: int  # epochs of the eval workloads' model, trained in set-up
    min_rounds: int    # rounds of set-up plus operation per run, at least
    probe: int         # test samples in the traced per-layer forward probe


# every round times one forward_times call per fit and test sample, so
# min_rounds=4 gives a run at least 400 latency samples, 20 of them beyond
# the 95th percentile
FULL = Sizes("full", n_train=200, n_fit=50, n_test=50, train_epochs=3,
             model_epochs=2, min_rounds=4, probe=20)
TINY = Sizes("tiny", n_train=12, n_fit=10, n_test=10, train_epochs=1,
             model_epochs=1, min_rounds=1, probe=2)
GATE_SEED = 0
# The package never sees the workload seed, only the images generated from
# it. The training split comes from a fixed seed: the learned model sets the
# work of every later stage, and training on seed-dependent images moved the
# train workload's fc occupancy by +-12% between seeds.
NET_SEED = 1
TRAIN_SPLIT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "features_per_s": "1/s",
    "forward_ms_p50": "ms",
    "forward_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {}
    for name in TRAINABLE:
        units[f"training.train_layer.{name}.s"] = "s"
    for name in TRAINABLE:
        units[f"simulate.column_response.us_per_call.{name}"] = "us"
    units["plasticity.apply_stdp.us_per_call"] = "us"
    for name in LAYERS[:-1]:
        units[f"training.advance.{name}.s"] = "s"
    for name in TRAINABLE:
        units[f"training.win_frac.{name}"] = "count"
    for name in TRAINABLE:
        units[f"simulate.column_response.prefix_needed_frac.{name}"] = "count"
    for policy in ("none", "soft-column"):
        for name in LAYERS:
            units[f"simulate.forward.{name}.{policy}.ms_per_sample"] = "ms"
    for policy in ("none", "soft-column"):
        for name in TRAINABLE:
            units[f"simulate.forward.{name}.{policy}.spikes_per_sample"] = "count"
    for policy in ("wta-column", "wta-layer", "soft-layer"):
        for name in TRAINABLE:
            units[f"simulate.forward.{name}.{policy}.ms_per_sample"] = "ms"
    units.update({
        "encoding.encode_dataset.ms_per_image": "ms",
        "datasets.load_idx.s": "s",
        "modelio.load_network.s": "s",
        "readout.extract_features.ms_per_sample": "ms",
        "readout.mean_sparsity.s": "s",
        "svm.fit.s": "s",
        "svm.predict.s": "s",
        "readout.test_sparsity": "count",
        "svm.test_accuracy": "count",
        "trace.overhead_frac": "frac",
    })
    return units


PER_LAYER = _per_layer_units()


def train_config(epochs: int) -> TrainConfig:
    """The acceptance suite's training parameters, at ``epochs`` epochs."""
    return TrainConfig(n_epoch=epochs, rule=BiologicalStdp(0.1, 0.1), t_target=0.75)


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def array_digest(a, dtype: str) -> str:
    a = np.ascontiguousarray(a, dtype=dtype)
    return sha(repr(a.shape).encode(), a.tobytes())


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Data:
    train_paths: tuple
    fit_paths: tuple
    test_paths: tuple
    train_images: np.ndarray
    model_path: Path
    digests: dict = field(default_factory=dict)


def set_up(workload: str, seed: int, sizes: Sizes, workdir: Path, tr):
    """Generate and write the dataset; eval workloads also train their model.

    Returns the data handle and the (start, end) span of model training
    (None for the train workload, which trains in its measured operations).
    """
    paths = {}
    for name, n, split_seed in (("train", sizes.n_train, TRAIN_SPLIT_SEED),
                                ("fit", sizes.n_fit, seed), ("test", sizes.n_test, seed)):
        paths[name] = strokes.write_idx(workdir, name, *strokes.make_split(n, split_seed, name))
    data = Data(paths["train"], paths["fit"], paths["test"],
                load_idx(*paths["train"]).images, workdir / "model.spknet")
    data.digests["idx"] = sha(*(p.read_bytes() for pair in paths.values() for p in pair))
    if workload == "train":
        return data, None
    spans = []
    with timed(spans):
        net = train_model(data.train_images, train_config(sizes.model_epochs), tr)
    save_network(data.model_path, net)
    data.digests["model"] = sha(network_bytes(net))
    return data, spans[0]


@contextmanager
def timed(out: list):
    """Append the block's (start, end) span to ``out``."""
    start = time.perf_counter()
    yield
    out.append((start, time.perf_counter()))


def train_model(images, cfg: TrainConfig, tr) -> Network:
    """``train_network`` untraced; traced, the same protocol from public calls."""
    if tr.enabled:
        return _train_traced(images, cfg, tr)
    return train_network(SPEC, images, cfg, NET_SEED)


def single_layer(network: Network, index: int) -> Network:
    """A one-layer network holding layer ``index`` of ``network``."""
    spec = network.spec
    sub = Network(NetworkSpec(spec.shapes[index], [spec.layers[index]]),
                  network.w_min, network.w_max)
    sub.weights[0] = network.weights[index]
    sub.thresholds[0] = network.thresholds[index]
    return sub


def _train_traced(images, cfg: TrainConfig, tr: Tracer) -> Network:
    """``train_network`` rebuilt from its public steps, with spans per layer."""
    streams = RngStreams(NET_SEED)
    network = Network(SPEC, cfg.w_min, cfg.w_max)
    targets = iter(layer_t_targets(SPEC, cfg))
    grids = encode_dataset(images, cfg.dog, cfg.window)
    with patched(training, "column_response", lambda f: _column_probe(f, tr)), \
            patched(training, "apply_stdp", lambda f: _spanned(f, tr, "plasticity.apply_stdp")):
        for i, layer in enumerate(SPEC.layers):
            name = LAYERS[i]
            if layer.trainable:
                t_target = next(targets)
                tr.label = name
                with tr.span("training.train_layer", name):
                    w, th = train_layer(SPEC, i, grids, cfg, streams, t_target)
                broadcast_column(network, i, w, th, t_target)
            if i < len(SPEC.layers) - 1:
                sub = single_layer(network, i)
                with tr.span("training.advance", name):
                    grids = [forward_times(sub, g)[0] for g in grids]
    tr.label = None
    return network


def _spanned(real, tr: Tracer, name: str):
    def call(*args, **kwargs):
        with tr.span(name, tr.label):
            return real(*args, **kwargs)
    return call


def _column_probe(real, tr: Tracer):
    """``column_response`` with a span, winner counts and the needed prefix.

    The needed prefix counts the occupied inputs at or before the winner's
    fire time (all occupied inputs when no neuron wins): the share of the
    sorted crossing scan a winner actually depends on.
    """
    def column_response(patch_times, weights, thresholds):
        with tr.span("simulate.column_response", tr.label):
            res = real(patch_times, weights, thresholds)
        occupied = int(np.isfinite(patch_times).sum())
        won = res.winner is not None
        needed = int((patch_times <= res.fire_time).sum()) if won else occupied
        tr.add(f"patches.{tr.label}", 1)
        tr.add(f"winners.{tr.label}", int(won))
        tr.add(f"occupied.{tr.label}", occupied)
        tr.add(f"needed.{tr.label}", needed)
        return res
    return column_response


# ---------------------------------------------------------------------------
# measured operations


@dataclass
class OpResult:
    """Time spans (perf_counter start, end) and outputs of one operation."""

    train: tuple | None  # train_network (train workload only)
    stages: list         # eval stages other than feature extraction
    features: list       # the two extract_features calls
    latencies: list      # (reference, wall) seconds of one forward_times call per sample
    samples: int
    accuracy: float
    sparsity: float
    digests: dict
    consistent: bool


def run_op(workload: str, data: Data, sizes: Sizes, tr, speed: Speed) -> OpResult:
    """One measured operation: [train_network +] the eval pipeline."""
    spans = []
    if workload == "train":
        with timed(spans):
            net = train_model(data.train_images, train_config(sizes.train_epochs), tr)
        save_network(data.model_path, net)
    return evaluate(data, POLICIES[EVAL_POLICY[workload]], sizes, tr, speed,
                    spans[0] if spans else None)


def evaluate(data: Data, policy: InhibitionPolicy, sizes: Sizes, tr, speed: Speed,
             train=None) -> OpResult:
    """The ``spikeconv eval`` pipeline, then one ``forward_times`` per fit and test sample.

    The single-sample outputs must decode to the pipeline's feature rows.
    """
    stages, features = [], []
    with timed(stages):
        with tr.span("datasets.load_idx"):
            fit_set = load_idx(*data.fit_paths)
        with tr.span("datasets.load_idx"):
            test_set = load_idx(*data.test_paths)
        with tr.span("modelio.load_network"):
            net = load_network(data.model_path)
        with tr.span("encoding.encode_dataset"):
            g_fit = encode_dataset(fit_set.images, DOG, WINDOW)
        with tr.span("encoding.encode_dataset"):
            g_test = encode_dataset(test_set.images, DOG, WINDOW)
    with timed(features), tr.span("readout.extract_features"):
        f_fit = extract_features(net, g_fit, WINDOW.t_end, policy)
    with timed(features), tr.span("readout.extract_features"):
        f_test = extract_features(net, g_test, WINDOW.t_end, policy)
    with timed(stages):
        with tr.span("svm.fit"):
            model = fit(f_fit, fit_set.labels, c=1.0, seed=0)
        with tr.span("svm.predict"):
            predictions = predict(model, f_test)
        rate = accuracy(model, f_test, test_set.labels)
        with tr.span("readout.mean_sparsity"):
            sparsity = mean_sparsity(f_test)

    timed_calls = speed.samples(
        [lambda grid=grid: forward_times(net, grid, policy) for grid in g_fit + g_test])
    consistent = True
    output_times = hashlib.sha256()
    for (out, _, _), row in zip(timed_calls, np.vstack([f_fit, f_test])):
        output_times.update(np.ascontiguousarray(out[-1], dtype="<f8").tobytes())
        decoded = sum_pool(decode_grid(out[-1], net.output_t_target, WINDOW.t_end))
        consistent &= bool(np.array_equal(decoded, row))

    digests = {
        "model": sha(network_bytes(net)),
        "features.fit": array_digest(f_fit, "<f8"),
        "features.test": array_digest(f_test, "<f8"),
        "predictions": array_digest(predictions, "<i8"),
        "output_times": output_times.hexdigest(),
    }
    return OpResult(train, stages, features, [(s, w) for _, s, w in timed_calls],
                    len(g_fit) + len(g_test), rate, sparsity, digests, consistent)


def wall_seconds(span) -> float:
    start, end = span
    return end - start


def op_seconds(op: OpResult, seconds) -> dict:
    """An operation's train, eval and feature-extraction seconds.

    ``seconds`` turns a (start, end) span into seconds: ``Speed.seconds``
    at reference speed, or ``wall_seconds``.
    """
    features = sum(map(seconds, op.features))
    return {
        "train": None if op.train is None else seconds(op.train),
        "eval": features + sum(map(seconds, op.stages)),
        "features": features,
    }


# ---------------------------------------------------------------------------
# correctness gate


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def mismatches(digests: dict, expected: dict | None) -> list:
    """Keys whose digest differs from the recorded one (none recorded: no keys)."""
    if expected is None:
        return []
    return [k for k, v in digests.items() if k in expected and expected[k] != v]


def reference_digests(workload: str, seed: int, sizes: Sizes, workdir: Path) -> dict:
    """Digests of one set-up plus one operation; what ``reference.json`` records."""
    speed = Speed()
    data, _ = set_up(workload, seed, sizes, workdir, NullTracer())
    op = run_op(workload, data, sizes, NullTracer(), speed)
    return {"idx": data.digests["idx"], **op.digests}


class Gate:
    """Counts operations and failures; a failure is an exception or a wrong digest."""

    def __init__(self, workload: str, seed: int, reference: dict, sizes: Sizes):
        self.expected = reference[sizes.name][workload].get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.notes: list = []

    def check(self, what: str, digests: dict, ok: bool = True) -> bool:
        """Compare against the recorded digests and the first values seen this run."""
        bad = mismatches(digests, self.expected)
        bad += [k for k, v in digests.items() if self.first.setdefault(k, v) != v]
        if bad or not ok:
            self.notes.append(f"{what}: digest mismatch {sorted(set(bad))}" if bad
                              else f"{what}: check failed")
        return self.record(not bad and ok)

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def gate_case(self, workload: str, reference: dict, workdir: Path) -> None:
        """The fixed tiny case whose digests ``reference.json`` always records."""
        digests = reference_digests(workload, GATE_SEED, TINY, workdir)
        expected = reference["tiny"][workload][str(GATE_SEED)]
        bad = [k for k in expected if digests.get(k) != expected[k]]
        if bad:
            self.notes.append(f"tiny reference case: digest mismatch {bad}")
        self.record(not bad)


# ---------------------------------------------------------------------------
# runs


def measure(workload: str, seed: int, seconds: float, sizes: Sizes, workdir: Path) -> dict:
    """Untraced run: rounds of set-up plus one operation, for ``seconds``.

    Set-up is repeated in every round rather than once up front, so that
    set-up and operations sample the host's speed over the same stretch of
    time.
    """
    reference = load_reference()
    gate = Gate(workload, seed, reference, sizes)
    null = NullTracer()
    speed = Speed()
    gate.gate_case(workload, reference, workdir / "gate")

    setups, trainings, ops = [], [], []
    rounds = 0
    start = time.perf_counter()
    last = 0.0
    while rounds < sizes.min_rounds or time.perf_counter() - start + last <= seconds:
        rounds += 1
        t0 = time.perf_counter()
        with timed(setups):
            data, training = set_up(workload, seed, sizes, workdir, null)
        if training is not None:
            trainings.append(training)
        gate.check("set-up", data.digests)
        try:
            op = run_op(workload, data, sizes, null, speed)
        except Exception:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc()
            gate.record(False)
        else:
            if gate.check("operation", op.digests, op.consistent):
                ops.append(op)
        last = time.perf_counter() - t0
    if not ops:
        raise RuntimeError("no operation completed: " + "; ".join(gate.notes))

    if workload == "train":
        trainings = [op.train for op in ops]
    values = end_to_end(setups, trainings, ops, speed.seconds, 0)
    values["peak_rss_mb"] = peak_rss_mb()
    n_latencies = sum(len(op.latencies) for op in ops)
    counts = {
        "setup_s": len(setups), "train_s": len(trainings), "eval_s": len(ops),
        "features_per_s": len(ops), "forward_ms_p50": n_latencies,
        "forward_ms_p95": n_latencies, "peak_rss_mb": 1,
    }
    quality = {"test_accuracy": ops[0].accuracy, "test_sparsity": ops[0].sparsity,
               "speed_factor": speed.factor()}
    wall = end_to_end(setups, trainings, ops, wall_seconds, 1)
    return _result(gate, values, END_TO_END, counts, quality, wall)


def end_to_end(setups, trainings, ops, seconds, which: int) -> dict:
    """The timed end-to-end values.

    Spans become seconds through ``seconds``; each latency is taken at
    reference speed (``which`` 0) or as wall time (``which`` 1).
    """
    seconds_of = [op_seconds(op, seconds) for op in ops]
    latencies = [lat[which] * 1e3 for op in ops for lat in op.latencies]
    return {
        "setup_s": statistics.median(map(seconds, setups)),
        "train_s": statistics.median(map(seconds, trainings)),
        "eval_s": statistics.median(t["eval"] for t in seconds_of),
        "features_per_s": statistics.median(
            op.samples / t["features"] for op, t in zip(ops, seconds_of)),
        "forward_ms_p50": float(np.percentile(latencies, 50)),
        "forward_ms_p95": float(np.percentile(latencies, 95)),
    }


def trace(workload: str, seed: int, sizes: Sizes, workdir: Path) -> dict:
    """Traced run: spans around every public call, equivalence checks, per-layer probe."""
    reference = load_reference()
    gate = Gate(workload, seed, reference, sizes)
    tr = Tracer()
    null = NullTracer()
    speed = Speed()
    data, _ = set_up(workload, seed, sizes, workdir, tr)
    gate.check("set-up", data.digests)
    if workload != "train":
        plain = train_network(SPEC, data.train_images, train_config(sizes.model_epochs), NET_SEED)
        gate.check("rebuilt training vs train_network",
                   {"model": sha(network_bytes(plain))})
    gate.gate_case(workload, reference, workdir / "gate")

    plain_op = run_op(workload, data, sizes, null, speed)
    gate.check("untraced operation", plain_op.digests, plain_op.consistent)
    op = run_op(workload, data, sizes, tr, speed)
    gate.check("traced operation", op.digests, op.consistent)

    net = load_network(data.model_path)
    grids = encode_dataset(load_idx(*data.test_paths).images[:sizes.probe], DOG, WINDOW)
    gate.record(probe_layers(net, grids, tr, gate))

    values = layer_metrics(tr, sizes.probe, op)
    traced, untraced = op_seconds(op, speed.seconds), op_seconds(plain_op, speed.seconds)
    values["trace.overhead_frac"] = (
        ((traced["train"] or 0.0) + traced["eval"])
        / ((untraced["train"] or 0.0) + untraced["eval"]) - 1.0)
    return _result(gate, values, PER_LAYER, {}, {}, {})


def probe_layers(network: Network, grids, tr: Tracer, gate: Gate) -> bool:
    """Time each layer per policy with a chain of single-layer ``forward_times``.

    The chain must reproduce the full ``forward_times`` grids bitwise.
    """
    subs = [single_layer(network, i) for i in range(len(LAYERS))]
    same = True
    for pname, policy in POLICIES.items():
        for grid in grids:
            full = forward_times(network, grid, policy)
            times = grid
            for name, sub, want in zip(LAYERS, subs, full):
                with tr.span("simulate.forward", f"{name}.{pname}"):
                    times = forward_times(sub, times, policy)[0]
                tr.add(f"spikes.{name}.{pname}", int(np.isfinite(times).sum()))
                same &= bool(np.array_equal(times, want))
    if not same:
        gate.notes.append("chained single-layer forwards differ from forward_times")
    return same


def layer_metrics(tr: Tracer, probe: int, op: OpResult) -> dict:
    c = tr.counts
    v = {}
    for name in TRAINABLE:
        v[f"training.train_layer.{name}.s"] = tr.seconds("training.train_layer", name)
        calls = tr.calls("simulate.column_response", name)
        v[f"simulate.column_response.us_per_call.{name}"] = (
            tr.seconds("simulate.column_response", name) / calls * 1e6)
    v["plasticity.apply_stdp.us_per_call"] = (
        tr.seconds("plasticity.apply_stdp") / tr.calls("plasticity.apply_stdp") * 1e6)
    for name in LAYERS[:-1]:
        v[f"training.advance.{name}.s"] = tr.seconds("training.advance", name)
    for name in TRAINABLE:
        v[f"training.win_frac.{name}"] = c[f"winners.{name}"] / c[f"patches.{name}"]
        v[f"simulate.column_response.prefix_needed_frac.{name}"] = (
            c[f"needed.{name}"] / c[f"occupied.{name}"])
    for pname in POLICIES:
        for name in LAYERS:
            label = f"{name}.{pname}"
            v[f"simulate.forward.{label}.ms_per_sample"] = (
                tr.seconds("simulate.forward", label) / probe * 1e3)
            v[f"simulate.forward.{label}.spikes_per_sample"] = c[f"spikes.{label}"] / probe
    v.update({
        "encoding.encode_dataset.ms_per_image": (
            tr.seconds("encoding.encode_dataset") / op.samples * 1e3),
        "datasets.load_idx.s": tr.seconds("datasets.load_idx"),
        "modelio.load_network.s": tr.seconds("modelio.load_network"),
        "readout.extract_features.ms_per_sample": (
            tr.seconds("readout.extract_features") / op.samples * 1e3),
        "readout.mean_sparsity.s": tr.seconds("readout.mean_sparsity"),
        "svm.fit.s": tr.seconds("svm.fit"),
        "svm.predict.s": tr.seconds("svm.predict"),
        "readout.test_sparsity": op.sparsity,
        "svm.test_accuracy": op.accuracy,
    })
    return v


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(gate: Gate, values: dict, units: dict, counts: dict, quality: dict,
            wall: dict) -> dict:
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "samples": counts,
        "wall": wall,
        "quality": quality,
        "notes": gate.notes,
    }
