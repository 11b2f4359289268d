import struct

import numpy as np
import pytest

from spikeconv.cli import main
from spikeconv.config import DEFAULT_ARCHITECTURE, ExperimentConfig, parse_config
from spikeconv.modelio import load_features, load_labels, load_network
from spikeconv.plasticity import BiologicalStdp


class TestConfigDefaults:
    def test_standard_parameter_set(self):
        cfg = ExperimentConfig().validate()
        assert cfg.anneal == 0.95 and cfg.n_epoch == 100
        assert cfg.w_min == 0.0 and cfg.w_max == 1.0 and cfg.eta_w == 0.1
        assert cfg.beta == 1.0 and cfg.tau == 0.1
        assert cfg.t_start == 0.0 and cfg.t_end == 1.0
        assert cfg.t_target == 0.7 and cfg.eta_th == 1.0 and cfg.th_min == 1.0
        assert cfg.v_th_mean == 5.0 and cfg.v_th_std == 1.0 and cfg.v_inh == 1.0
        assert cfg.dog_size == 7 and cfg.dog_center == 1.0 and cfg.dog_surround == 4.0
        assert cfg.architecture == DEFAULT_ARCHITECTURE

    def test_empty_file_is_valid(self):
        cfg = parse_config("")
        assert isinstance(cfg.rule(), BiologicalStdp)

    def test_round_trip_of_sections(self):
        text = """
[learning]
lambda = 0.9
n_epoch = 3
[stdp]
rule = multiplicative
beta = 2.5
[threshold]
t_target = 0.75
delta_t = -0.05
[architecture]
layer1 = conv 3 3 4 1 0
layer2 = pool 2 2 4 2 0
layer3 = fc 3 3 8 1 0
"""
        cfg = parse_config(text)
        assert cfg.anneal == 0.9 and cfg.n_epoch == 3
        assert cfg.rule().beta == 2.5
        assert cfg.t_target == 0.75 and cfg.delta_t == -0.05
        assert len(cfg.architecture) == 3
        assert cfg.architecture[0].maps == 4

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ValueError, match=r"\[learning\] bogus"):
            parse_config("[learning]\nbogus = 3\n")

    def test_bad_value_rejected_with_field(self):
        with pytest.raises(ValueError, match=r"\[learning\] n_epoch"):
            parse_config("[learning]\nn_epoch = many\n")

    def test_invalid_stride_rejected_before_training(self):
        with pytest.raises(ValueError, match="stride"):
            parse_config("[architecture]\nlayer1 = conv 3 3 4 0 0\n")

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            parse_config("[stdp]\nrule = hebbian\n")

    def test_ensemble_section(self):
        cfg = parse_config("[ensemble]\nmember1 = 0.65 128\nmember2 = 0.70 128\n")
        assert cfg.ensemble == ((0.65, 128), (0.70, 128))

    def test_inline_comments_stripped(self):
        cfg = parse_config(
            "[stdp]\nrule = multiplicative  ; saturation-aware\n"
            "[architecture]\nlayer1 = conv 3 3 4 1 0  # first stage\n"
        )
        assert cfg.rule_name == "multiplicative"
        assert cfg.architecture[0].maps == 4


# ---------------------------------------------------------------------------
# CLI end-to-end on a toy dataset


TOY_CONFIG = """
[learning]
lambda = 0.95
n_epoch = 2
[stdp]
rule = multiplicative
[threshold]
t_target = 0.7
[architecture]
layer1 = conv 3 3 4 1 0
layer2 = pool 2 2 4 2 0
layer3 = fc 3 3 6 1 0
"""


def _write_idx(tmp_path, prefix, images, labels):
    n, h, w = images.shape
    ip = tmp_path / f"{prefix}-images.idx3"
    lp = tmp_path / f"{prefix}-labels.idx1"
    with open(ip, "wb") as f:
        f.write(struct.pack(">4i", 0x803, n, h, w))
        f.write((images * 255).astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">2i", 0x801, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return str(ip), str(lp)


@pytest.fixture
def toy(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.random((8, 8, 8))
    labels = rng.integers(0, 3, 8)
    ti, tl = _write_idx(tmp_path, "train", images, labels)
    vi, vl = _write_idx(tmp_path, "test", images[:6], labels[:6])
    cfg = tmp_path / "toy.ini"
    cfg.write_text(TOY_CONFIG)
    return {"cfg": str(cfg), "train": (ti, tl), "test": (vi, vl), "dir": tmp_path}


def _check_numeric_fields(lines):
    """Every rate and sparsity field, aggregates split at the ±, is a float."""
    for line in lines[1:]:
        for field in line.split(",")[2:]:
            for part in field.split("±"):
                float(part)


def _train(toy, out, seed=1):
    return main([
        "train", "--config", toy["cfg"], "--seed", str(seed), "--out", str(out),
        "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
    ])


class TestCliTrain:
    def test_train_writes_model_and_log(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        assert _train(toy, out) == 0
        assert out.exists()
        log = toy["dir"] / "m.spknet.log.csv"
        assert log.exists()
        header = log.read_text().splitlines()[0]
        assert header.startswith("layer,epoch,eta_w,eta_th")
        net = load_network(out)
        assert len(net.spec.layers) == 3

    def test_limit_train_subsets_dataset(self, toy):
        out = toy["dir"] / "lim.spknet"
        rc = main([
            "train", "--config", toy["cfg"], "--seed", "1", "--out", str(out),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--limit-train", "3",
        ])
        assert rc == 0
        log = (toy["dir"] / "lim.spknet.log.csv").read_text().splitlines()
        assert log[1].split(",")[4] == "3"  # samples column

    def test_same_seed_byte_identical_model(self, toy):
        a = toy["dir"] / "a.spknet"
        b = toy["dir"] / "b.spknet"
        _train(toy, a)
        _train(toy, b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_rejected_before_training(self, toy, capsys):
        bad = toy["dir"] / "bad.ini"
        bad.write_text("[architecture]\nlayer1 = conv 3 3 4 0 0\n")
        rc = main(["train", "--config", str(bad), "--out", "x.spknet",
                   "--train-images", toy["train"][0],
                   "--train-labels", toy["train"][1]])
        assert rc == 1
        assert "stride" in capsys.readouterr().err

    def test_missing_dataset_flags_diagnosed(self, toy, capsys):
        rc = main(["train", "--config", toy["cfg"], "--out", "x.spknet"])
        assert rc == 1
        assert "no train dataset" in capsys.readouterr().err


class TestCliEval:
    def test_eval_emits_csv_row(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        capsys.readouterr()  # drop the train command's output
        rc = main([
            "eval", str(out), "--config", toy["cfg"],
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "config,seed,recognition_rate,sparsity"
        fields = lines[1].split(",")
        assert fields[0] == "toy" and fields[1] == "m"
        rate, sp = float(fields[2]), float(fields[3])
        assert 0.0 <= rate <= 1.0 and 0.0 <= sp <= 1.0

    def test_multi_model_aggregate_row(self, toy, capsys):
        a, b = toy["dir"] / "a.spknet", toy["dir"] / "b.spknet"
        _train(toy, a, seed=1)
        _train(toy, b, seed=2)
        capsys.readouterr()
        rc = main([
            "eval", str(a), str(b), "--config", toy["cfg"],
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[-1].split(",")[1] == "aggregate"
        assert "±" in lines[-1]
        _check_numeric_fields(lines)

    def test_each_split_encoded_once(self, toy, monkeypatch):
        import spikeconv.cli

        a, b = toy["dir"] / "a.spknet", toy["dir"] / "b.spknet"
        _train(toy, a, seed=1)
        _train(toy, b, seed=2)
        calls = []
        real = spikeconv.cli.encode_dataset
        monkeypatch.setattr(spikeconv.cli, "encode_dataset",
                            lambda *args: calls.append(1) or real(*args))
        rc = main([
            "eval", str(a), str(b), "--config", toy["cfg"],
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        assert len(calls) == 2  # train and test split, shared by both models

    def test_eval_deterministic_rows(self, toy, tmp_path):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = [
            "eval", str(out), "--config", toy["cfg"],
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ]
        main(argv + ["--out", str(c1)])
        main(argv + ["--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_missing_model_diagnosed(self, toy, capsys):
        rc = main([
            "eval", "nope.spknet", "--config", toy["cfg"],
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 1
        assert "nope.spknet" in capsys.readouterr().err


class TestCliSweep:
    def test_policy_axis_three_rows(self, toy, capsys):
        rc = main([
            "sweep", "--config", toy["cfg"], "--axis", "policy",
            "--values", "wta,soft,none", "--runs", "1", "--seed", "3",
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "policy,seed,recognition_rate,sparsity"
        # one row per value plus one aggregate per value
        assert len(lines) == 1 + 3 * 2

    def test_runs_aggregate_fields_are_plain_floats(self, toy, capsys):
        rc = main([
            "sweep", "--config", toy["cfg"], "--axis", "t_target",
            "--values", "0.6", "--runs", "2", "--seed", "3",
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2 + 1
        assert lines[-1].startswith("0.6,mean±std,")
        _check_numeric_fields(lines)

    def test_empty_values_rejected(self, toy, capsys):
        rc = main([
            "sweep", "--config", toy["cfg"], "--axis", "t_target", "--values", "",
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 1
        assert "non-empty" in capsys.readouterr().err

    def test_unknown_axis_rejected_by_parser(self, toy):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "gamma", "--values", "1",
                  "--train-images", toy["train"][0],
                  "--train-labels", toy["train"][1]])

    def test_every_axis_maps_onto_config(self):
        from spikeconv.cli import _sweep_value_config

        base = ExperimentConfig().validate()
        assert _sweep_value_config(base, "t_target", "0.65").t_target == 0.65
        assert _sweep_value_config(base, "delta_t", "-0.05").delta_t == -0.05
        beta = _sweep_value_config(base, "beta", "2.5")
        assert beta.beta == 2.5 and beta.rule_name == "multiplicative"
        tau = _sweep_value_config(base, "tau", "0.5")
        assert tau.tau == 0.5 and tau.rule_name == "biological"
        pol = _sweep_value_config(base, "policy", "soft")
        assert pol.inference_inhibition == "soft"
        with pytest.raises(ValueError):
            _sweep_value_config(base, "policy", "hard")


class TestCliExportFilters:
    def test_one_image_per_map_and_reexport_identical(self, toy):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        fdir = toy["dir"] / "filters"
        assert main(["export-filters", str(out), "--layer", "0",
                     "--out", str(fdir)]) == 0
        files = sorted(fdir.iterdir())
        assert [f.name for f in files] == [f"layer0_map{m:04d}.ppm" for m in range(4)]
        blobs = [f.read_bytes() for f in files]
        assert main(["export-filters", str(out), "--layer", "0",
                     "--out", str(fdir)]) == 0
        assert [f.read_bytes() for f in sorted(fdir.iterdir())] == blobs

    def test_pooling_layer_rejected(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        rc = main(["export-filters", str(out), "--layer", "1", "--out", "x"])
        assert rc == 1
        assert "pooling" in capsys.readouterr().err

    def test_out_of_range_layer_rejected(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        assert main(["export-filters", str(out), "--layer", "9", "--out", "x"]) == 1


class TestCliFeaturesInspect:
    def test_features_dump_and_labels(self, toy):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        fp = toy["dir"] / "f.spkfeat"
        lp = toy["dir"] / "l.txt"
        rc = main([
            "features", str(out), "--config", toy["cfg"], "--out", str(fp),
            "--labels-out", str(lp),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
        ])
        assert rc == 0
        feats, has_labels = load_features(fp)
        assert has_labels and feats.shape == (8, 6)
        assert len(load_labels(lp)) == 8

    def test_inspect_prints_summary(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "input: 2 maps, 8x8" in text
        assert "layer 0: conv 3x3" in text
        assert "parameters:" in text


class TestCrossProcessDeterminism:
    def test_two_processes_same_seed_identical_bytes(self, toy):
        import subprocess
        import sys

        blobs = []
        for name in ("p1.spknet", "p2.spknet"):
            out = toy["dir"] / name
            cmd = [
                sys.executable, "-m", "spikeconv.cli", "train",
                "--config", toy["cfg"], "--seed", "7", "--out", str(out),
                "--train-images", toy["train"][0],
                "--train-labels", toy["train"][1],
            ]
            res = subprocess.run(cmd, capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestCliEnsembleTrain:
    def test_ensemble_writes_member_models(self, toy):
        cfg = toy["dir"] / "ens.ini"
        cfg.write_text(TOY_CONFIG + "\n[ensemble]\nmember1 = 0.6 3\nmember2 = 0.8 3\n")
        out = toy["dir"] / "ens.spknet"
        rc = main([
            "train", "--config", str(cfg), "--seed", "4", "--out", str(out),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
        ])
        assert rc == 0
        m0 = toy["dir"] / "ens.m0.spknet"
        m1 = toy["dir"] / "ens.m1.spknet"
        assert m0.exists() and m1.exists()
        assert load_network(m0).spec.out_shape.depth == 3
