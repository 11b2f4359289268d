"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with the measured numbers.

The MNIST-scale criteria train real networks (conv 5x5x16 - pool 2x2 -
conv 5x5x32 - pool 2x2 - fc 512, 10k train / 10k test, 20 epochs,
biological STDP tau=0.1, t_target=0.75) and together take on the order of
an hour of CPU; everything else runs in seconds. MNIST IDX files are read
from $SPIKECONV_MNIST_DIR (default /root/data/mnist).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from spikeconv import (
    AdditiveStdp,
    BiologicalStdp,
    EnsembleMember,
    InhibitionPolicy,
    LayerSpec,
    MultiplicativeStdp,
    NetworkSpec,
    Shape3,
    ThresholdParams,
    TrainConfig,
    adapt_threshold_target,
    apply_stdp,
    decode_grid,
    extract_features,
    fit,
    accuracy,
    mean_sparsity,
    sparsity,
    train_ensemble,
    train_network,
)
from spikeconv.datasets import load_idx
from spikeconv.modelio import network_bytes
from spikeconv.simulate import forward_times
from spikeconv.training import encode_dataset

from oracles import DenseSimulator, adapt_threshold_wta
from util import random_grid, random_network, synthetic_convergence_run

MNIST_DIR = Path(os.environ.get("SPIKECONV_MNIST_DIR", "/root/data/mnist"))
SEEDS = (1, 2, 3)
N_TRAIN = 10_000
N_TEST = 10_000


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _mnist_arch(fc_maps: int = 512) -> NetworkSpec:
    return NetworkSpec(Shape3(2, 28, 28), [
        LayerSpec("conv", 5, 5, 16, 1, 0),
        LayerSpec("pool", 2, 2, 16, 2, 0),
        LayerSpec("conv", 5, 5, 32, 1, 0),
        LayerSpec("pool", 2, 2, 32, 2, 0),
        LayerSpec("fc", 4, 4, fc_maps, 1, 0),
    ])


def _criterion1_config(**kw) -> TrainConfig:
    kw.setdefault("n_epoch", 20)
    kw.setdefault("rule", BiologicalStdp(0.1, 0.1))
    kw.setdefault("t_target", 0.75)
    return TrainConfig(**kw)


@pytest.fixture(scope="session")
def mnist():
    paths = [MNIST_DIR / n for n in (
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
    if not all(p.exists() for p in paths):
        pytest.skip(
            f"MNIST IDX files not found under {MNIST_DIR} "
            f"(set SPIKECONV_MNIST_DIR); scaled criteria cannot run"
        )
    train = load_idx(paths[0], paths[1]).subset(N_TRAIN)
    test = load_idx(paths[2], paths[3]).subset(N_TEST)
    return train, test


class TestMnistDataFacts:
    def test_full_sets_and_majority_share(self):
        paths = [MNIST_DIR / n for n in (
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
        if not all(p.exists() for p in paths):
            pytest.skip(f"MNIST IDX files not found under {MNIST_DIR}")
        train = load_idx(paths[0], paths[1])
        test = load_idx(paths[2], paths[3])
        assert len(train) == 60_000 and train.images.shape[1:] == (28, 28)
        assert len(test) == 10_000 and test.images.shape[1:] == (28, 28)
        # a constant predictor of the most frequent class scores 11.35%
        counts = np.bincount(test.labels)
        majority = counts.argmax()
        assert majority == 1
        assert counts[majority] / len(test) == pytest.approx(0.1135)


@pytest.fixture(scope="session")
def encoded(mnist):
    train, test = mnist
    cfg = _criterion1_config()
    return (encode_dataset(train.images, cfg.dog, cfg.window),
            encode_dataset(test.images, cfg.dog, cfg.window))


@pytest.fixture(scope="session")
def scaled_runs(mnist, encoded):
    """Criterion-1 experiment: three seeds trained and evaluated."""
    train, test = mnist
    enc_train, enc_test = encoded
    cfg = _criterion1_config()
    spec = _mnist_arch()
    out = {"models": {}, "rates": {}, "sparsities": {}, "features": {}}
    t0 = time.time()
    for seed in SEEDS:
        net = train_network(spec, train.images, cfg, seed, encoded=enc_train)
        f_train = extract_features(net, enc_train, cfg.window.t_end)
        f_test = extract_features(net, enc_test, cfg.window.t_end)
        model = fit(f_train, train.labels, seed=0)
        out["models"][seed] = net
        out["rates"][seed] = accuracy(model, f_test, test.labels)
        out["sparsities"][seed] = mean_sparsity(f_test)
        if seed == SEEDS[0]:
            out["features"][seed] = (f_train, f_test)
    out["elapsed"] = time.time() - t0
    return out


class TestCriterion1ScaledMnist:
    def test_scaled_accuracy_and_runtime(self, scaled_runs):
        rates = [scaled_runs["rates"][s] for s in SEEDS]
        mean_rate = float(np.mean(rates))
        elapsed = scaled_runs["elapsed"]
        ok = mean_rate >= 0.90 and elapsed <= 7200
        _report(
            "criterion 1",
            ok,
            f"scaled MNIST mean accuracy {mean_rate * 100:.2f}% over seeds "
            f"{SEEDS} (per-seed {[f'{r * 100:.2f}' for r in rates]}), "
            f"runtime {elapsed / 60:.1f} min (limit 120)",
        )
        assert mean_rate >= 0.90
        assert elapsed <= 7200


class TestCriterion2InhibitionOrdering:
    def test_policy_ordering_and_exact_wta_sparsity(self, mnist, encoded):
        # one network, evaluated under the three inference policies applied
        # at the layer being read out (the published table's shape: the
        # cascade below the readout runs uninhibited). Trained with a
        # competition-filtered prefix so thresholds suit sparse traffic and
        # every sample drives the readout.
        train, test = mnist
        enc_train, enc_test = encoded
        cfg = _criterion1_config(prefix_policy="wta")
        net = train_network(_mnist_arch(), train.images, cfg, SEEDS[0],
                            encoded=enc_train)

        results = {}
        for name, policy in (
            ("none", InhibitionPolicy("none")),
            ("soft", InhibitionPolicy("soft", v_inh=1.0, layers="output")),
            ("wta", InhibitionPolicy("wta", layers="output")),
        ):
            f_train = extract_features(net, enc_train, cfg.window.t_end, policy)
            f_test = extract_features(net, enc_test, cfg.window.t_end, policy)
            model = fit(f_train, train.labels, seed=0)
            results[name] = (accuracy(model, f_test, test.labels),
                             mean_sparsity(f_test))
            if name == "wta":
                nnz = np.count_nonzero(f_test, axis=1)
                one_hot = bool(np.all(nnz == 1))
                wta_sparsity_exact = results["wta"][1] == 1.0

        ordering = results["none"][0] > results["soft"][0] > results["wta"][0]
        ok = ordering and one_hot and wta_sparsity_exact
        _report(
            "criterion 2",
            ok,
            "accuracy none/soft/wta = "
            + "/".join(f"{results[k][0] * 100:.2f}" for k in ("none", "soft", "wta"))
            + f", sparsity wta = {results['wta'][1]!r} (one-hot rows: {one_hot})",
        )
        assert ordering
        assert one_hot
        assert wta_sparsity_exact


class TestCriterion3DeltaDegeneracy:
    def test_negative_delta_silences_network(self, mnist, encoded):
        train, test = mnist
        enc_train, enc_test = encoded
        cfg = _criterion1_config(delta_t=-0.20)
        net = train_network(_mnist_arch(), train.images, cfg, SEEDS[0],
                            encoded=enc_train)

        out_spikes = 0
        for grid in enc_test:
            out_spikes += int(np.isfinite(forward_times(net, grid)[-1]).sum())
        f_train = extract_features(net, enc_train, cfg.window.t_end)
        f_test = extract_features(net, enc_test, cfg.window.t_end)
        sp = mean_sparsity(f_test)
        model = fit(f_train, train.labels, seed=0)
        rate = accuracy(model, f_test, test.labels)
        majority = np.bincount(test.labels).max() / len(test.labels)

        ok = out_spikes == 0 and sp == 0.0 and abs(rate - majority) <= 0.005
        _report(
            "criterion 3",
            ok,
            f"delta_t=-0.20: output spikes {out_spikes}, sparsity {sp!r}, "
            f"accuracy {rate * 100:.2f}% vs majority share {majority * 100:.2f}%",
        )
        assert out_spikes == 0
        assert sp == 0.0
        assert abs(rate - majority) <= 0.005


class TestCriterion4ThresholdConvergence:
    def test_winner_times_converge_to_targets(self):
        errs, shares = {}, {}
        for tt in (0.3, 0.5, 0.7, 0.9):
            mean_t, share, _ = synthetic_convergence_run(tt, seed=1, n_epoch=100)
            errs[tt] = abs(mean_t - tt)
            shares[tt] = share
        ok = all(e <= 0.05 for e in errs.values()) and all(
            s <= 0.9 for s in shares.values()
        )
        _report(
            "criterion 4",
            ok,
            "timing error per target "
            + ", ".join(f"{tt}: {errs[tt]:.3f}" for tt in errs)
            + f"; max win share {max(shares.values()):.2f}",
        )
        for tt, e in errs.items():
            assert e <= 0.05, f"t_target {tt}: error {e:.3f}"
        assert all(s <= 0.9 for s in shares.values())


class TestCriterion5OracleEquivalence:
    def test_200_randomized_networks(self):
        rng = np.random.default_rng(2024)
        policies = [
            InhibitionPolicy("none"),
            InhibitionPolicy("soft", v_inh=0.4),
            InhibitionPolicy("soft", v_inh=1.0),
            InhibitionPolicy("wta"),
            InhibitionPolicy("wta", scope="layer"),
            InhibitionPolicy("wta", layers="output"),
            InhibitionPolicy("soft", v_inh=0.7, layers="output"),
        ]
        t0 = time.time()
        checked = 0
        for trial in range(200):
            net = random_network(rng)
            n = int(rng.integers(5, net.spec.input_shape.size + 1))
            grid = random_grid(rng, net.spec.input_shape, n,
                               tie_heavy=bool(trial % 4 == 0))
            policy = policies[trial % len(policies)]
            got = forward_times(net, grid, policy)
            want = DenseSimulator(net, policy).simulate(grid)
            for li, (g, w) in enumerate(zip(got, want)):
                fired = np.isfinite(w)
                assert np.array_equal(np.isfinite(g), fired), \
                    f"trial {trial} layer {li}: spike sites differ"
                assert np.all(np.abs(g[fired] - w[fired]) < 1e-6)
                checked += int(fired.sum())
        elapsed = time.time() - t0
        ok = elapsed < 60
        _report(
            "criterion 5",
            ok,
            f"200 networks equivalent to the dense simulator "
            f"({checked} spikes matched) in {elapsed:.1f}s (limit 60)",
        )
        assert elapsed < 60


class TestCriterion6PlasticityBounds:
    def test_weights_bounded_over_1e5_triples(self):
        rng = np.random.default_rng(7)
        n = 100_000
        rules = [AdditiveStdp(0.5), MultiplicativeStdp(0.5, 3.0),
                 BiologicalStdp(0.5, 0.05), BiologicalStdp(0.5, 0.05, True)]
        batch = n // len(rules)
        checked = 0
        for rule in rules:
            shape = (1, batch)
            w = rng.uniform(0, 1, (2,) + shape)
            pre = np.where(rng.random(shape) < 0.3, np.inf, rng.random(shape))
            apply_stdp(w, 0, pre, float(rng.random()), rule, t_end=1.0)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            checked += batch
        _report("criterion 6a", True,
                f"weights in bounds after {checked} random rule/timing/weight triples")

    def test_thresholds_floored_over_1e4_sequences(self):
        rng = np.random.default_rng(8)
        violations = 0
        p = ThresholdParams(t_target=0.5, eta_th=1.0, th_min=1.0)
        for _ in range(10_000):
            n = int(rng.integers(1, 6))
            th = rng.uniform(1.0, 8.0, n)
            for _ in range(int(rng.integers(1, 8))):
                if rng.random() < 0.5:
                    i = int(rng.integers(n))
                    th[i] = adapt_threshold_target(th[i], float(rng.random()), p)
                else:
                    fires = [float(rng.random()) if rng.random() < 0.6 else None
                             for _ in range(n)]
                    if any(f is not None for f in fires):
                        th = adapt_threshold_wta(th, fires, 1.0, 1.0)
            if np.any(th < 1.0):
                violations += 1
        _report("criterion 6b", violations == 0,
                f"threshold floor violations: {violations}/10000 sequences")
        assert violations == 0


class TestCriterion7MetricIdentities:
    def test_sparsity_and_decode_identities(self):
        one_hot = np.zeros(100)
        one_hot[3] = 2.0
        a = sparsity(one_hot)
        b = sparsity(np.full(100, 0.7))
        c = sparsity(np.zeros(100))
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(1000):
            y = rng.random(int(rng.integers(2, 64)))
            scale = float(rng.uniform(1e-3, 1e3))
            worst = max(worst, abs(sparsity(scale * y) - sparsity(y)))
        # target time, window end, silence and an early spike
        decode_ok = np.array_equal(
            decode_grid(np.array([0.7, 1.0, np.inf, 0.3]), 0.7, 1.0),
            [1.0, 0.0, 0.0, 1.0],
        )
        ok = (a == pytest.approx(1.0) and b == pytest.approx(0.0, abs=1e-12)
              and c == 0.0 and worst < 1e-12 and decode_ok)
        _report(
            "criterion 7",
            ok,
            f"sparsity one-hot={a:.12f} constant={b:.2e} zero={c} "
            f"scale-invariance worst |delta|={worst:.2e}; decode boundary values exact",
        )
        assert ok


class TestCriterion8Determinism:
    def test_identical_seed_bytes_and_rows(self, mnist, encoded, scaled_runs):
        train, test = mnist
        enc_train, enc_test = encoded
        cfg = _criterion1_config()
        net0 = scaled_runs["models"][SEEDS[0]]
        net1 = train_network(_mnist_arch(), train.images, cfg, SEEDS[0],
                             encoded=enc_train)
        bytes_equal = network_bytes(net0) == network_bytes(net1)

        f_train, f_test = scaled_runs["features"][SEEDS[0]]
        f_train1 = extract_features(net1, enc_train, cfg.window.t_end)
        f_test1 = extract_features(net1, enc_test, cfg.window.t_end)
        model1 = fit(f_train1, train.labels, seed=0)
        rate1 = accuracy(model1, f_test1, test.labels)
        sp1 = mean_sparsity(f_test1)
        row0 = f"c1,{SEEDS[0]},{scaled_runs['rates'][SEEDS[0]]!r},{scaled_runs['sparsities'][SEEDS[0]]!r}"
        row1 = f"c1,{SEEDS[0]},{rate1!r},{sp1!r}"
        ok = bytes_equal and row0 == row1
        _report(
            "criterion 8",
            ok,
            f"model bytes identical: {bytes_equal}; CSV rows identical: {row0 == row1} "
            f"({row1})",
        )
        assert bytes_equal
        assert row0 == row1


class TestCriterion9MultiTargetEnsemble:
    def test_ensemble_matches_single_network(self, mnist, encoded, scaled_runs):
        train, test = mnist
        enc_train, enc_test = encoded
        cfg = _criterion1_config()
        members = [EnsembleMember(t, 128) for t in (0.65, 0.70, 0.75, 0.80)]
        nets = train_ensemble(_mnist_arch(), train.images, cfg, SEEDS[0],
                              members, encoded=enc_train)
        f_train = extract_features(nets, enc_train, cfg.window.t_end)
        f_test = extract_features(nets, enc_test, cfg.window.t_end)
        width_ok = f_train.shape[1] == sum(m.output_maps for m in members) == 512
        model = fit(f_train, train.labels, seed=0)
        ens_rate = accuracy(model, f_test, test.labels)
        single_rate = scaled_runs["rates"][SEEDS[0]]
        ok = width_ok and ens_rate >= single_rate - 0.003
        _report(
            "criterion 9",
            ok,
            f"4x128 ensemble {ens_rate * 100:.2f}% vs single 512 "
            f"{single_rate * 100:.2f}% (allowed gap 0.30 pts); "
            f"feature width {f_train.shape[1]}",
        )
        assert width_ok
        assert ens_rate >= single_rate - 0.003
