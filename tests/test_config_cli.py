import configparser
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikeconv
from spikeconv.cli import main
from spikeconv.config import _KEYS, DEFAULT_ARCHITECTURE, ExperimentConfig, parse_config
from spikeconv.modelio import load_features, load_labels, load_network, load_svm
from spikeconv.plasticity import BiologicalStdp, MultiplicativeStdp
from spikeconv.training import EnsembleMember

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfigDefaults:
    def test_standard_parameter_set(self):
        cfg = ExperimentConfig().validate()
        tc, pol = cfg.train_config(), cfg.inference_policy()
        assert tc.anneal == 0.95 and tc.n_epoch == 100
        assert tc.w_min == 0.0 and tc.w_max == 1.0 and tc.rule.eta_w == 0.1
        assert tc.rule == BiologicalStdp(0.1, 0.1, decay_with_delay=False)
        assert MultiplicativeStdp().beta == 1.0
        assert tc.window.t_start == 0.0 and tc.window.t_end == 1.0
        assert tc.t_target == 0.7 and tc.eta_th == 1.0 and tc.th_min == 1.0
        assert tc.v_th_mean == 5.0 and tc.v_th_std == 1.0 and pol.v_inh == 1.0
        assert (tc.dog.size, tc.dog.center, tc.dog.surround) == (7, 1.0, 4.0)
        assert pol.mode == "none" and pol.scope == "column" and pol.layers == "all"
        assert cfg.architecture == DEFAULT_ARCHITECTURE

    def test_empty_file_is_valid(self):
        cfg = parse_config("")
        assert isinstance(cfg.train_config().rule, BiologicalStdp)

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
        tc = cfg.train_config()
        assert tc.anneal == 0.9 and tc.n_epoch == 3
        assert tc.rule.beta == 2.5
        assert tc.t_target == 0.75 and tc.delta_t == -0.05
        assert len(cfg.architecture) == 3
        assert cfg.architecture[0].maps == 4

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ValueError, match=r"\[learning\] bogus"):
            parse_config("[learning]\nbogus = 3\n")

    def test_bad_value_rejected_with_field(self):
        with pytest.raises(ValueError, match=r"\[learning\] n_epoch"):
            parse_config("[learning]\nn_epoch = many\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", [k for k, (_, conv) in _KEYS.items()
                                             if conv is float])
    def test_non_finite_value_rejected_with_field(self, section, key, value):
        # beta is read only by the multiplicative rule
        rule = "rule = multiplicative\n" if key == "beta" else ""
        with pytest.raises(ValueError, match=_KEYS[(section, key)][0]):
            parse_config(f"[{section}]\n{rule}{key} = {value}\n")

    def test_invalid_stride_rejected_before_training(self):
        with pytest.raises(ValueError, match="stride"):
            parse_config("[architecture]\nlayer1 = conv 3 3 4 0 0\n")

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            parse_config("[stdp]\nrule = hebbian\n")

    def test_ensemble_section(self):
        cfg = parse_config("[ensemble]\nmember1 = 0.65 128\nmember2 = 0.70 128\n")
        assert cfg.ensemble == (EnsembleMember(0.65, 128), EnsembleMember(0.70, 128))

    def test_t_targets_count_checked_against_architecture(self):
        # the default architecture has three trainable layers
        with pytest.raises(ValueError, match=r"^config: t_targets gives 2 firing targets for "
                                             r"the architecture's 3 trainable layers$"):
            parse_config("[threshold]\nt_targets = 0.5 0.6\n")
        arch = "[architecture]\nlayer1 = conv 3 3 4 1 0\nlayer2 = pool 2 2 4 2 0\n"
        assert parse_config(arch + "[threshold]\nt_targets = 0.5\n").train_config().t_targets == (0.5,)

    @pytest.mark.parametrize("value", ["nan 8", "inf 8", "abc 8", "0.7 8.5", "0.7", "0.7 0"])
    def test_bad_ensemble_member_named(self, value):
        # rejected while parsing, before any member trains
        with pytest.raises(ValueError, match=re.escape("exp: [ensemble] member2: ")):
            parse_config(f"[ensemble]\nmember1 = 0.65 8\nmember2 = {value}\n", name="exp")

    def test_inline_comments_stripped(self):
        cfg = parse_config(
            "[stdp]\nrule = multiplicative  ; saturation-aware\n"
            "[architecture]\nlayer1 = conv 3 3 4 1 0  # first stage\n"
        )
        assert isinstance(cfg.train_config().rule, MultiplicativeStdp)
        assert cfg.architecture[0].maps == 4

    def test_explicit_targets_and_offset_rejected_together(self):
        with pytest.raises(ValueError, match="not both"):
            parse_config("[threshold]\nt_targets = 0.6 0.7\ndelta_t = 0.1\n")

    def test_every_key_reaches_its_object(self):
        # every key set to a non-default value; a key whose owning field is
        # misnamed in the table would be dropped and its default kept
        text = """
[meta]
name = everything
[learning]
lambda = 0.9
n_epoch = 3
[stdp]
rule = biological
eta_w = 0.2
beta = 2.5
tau = 0.3
bio_delay_decay = true
w_min = -0.5
w_max = 2.0
[coding]
t_start = 0.1
t_end = 1.5
[threshold]
t_target = 0.8
t_targets = 0.6 0.65 0.7
eta_th = 0.5
th_min = 0.25
v_th_mean = 6.0
v_th_std = 0.5
v_inh = 0.75
[preprocess]
dog_size = 5
dog_center = 0.5
dog_surround = 3.0
[simulation]
inference_inhibition = soft
inhibition_scope = layer
inhibition_layers = output
[training]
shuffle = yes
no_winner = step
prefix_policy = wta
"""
        parser = configparser.ConfigParser()
        parser.read_string(text)
        keys = {(section, key) for section in parser.sections() for key in parser[section]}
        assert keys | {("threshold", "delta_t")} == set(_KEYS)

        cfg = parse_config(text)
        tc, pol = cfg.train_config(), cfg.inference_policy()
        assert cfg.name == "everything"
        assert (tc.anneal, tc.n_epoch) == (0.9, 3)
        assert tc.rule == BiologicalStdp(0.2, 0.3, decay_with_delay=True)
        assert (tc.w_min, tc.w_max) == (-0.5, 2.0)
        assert (tc.window.t_start, tc.window.t_end) == (0.1, 1.5)
        assert (tc.t_target, tc.t_targets) == (0.8, (0.6, 0.65, 0.7))
        assert (tc.eta_th, tc.th_min, tc.v_th_mean, tc.v_th_std) == (0.5, 0.25, 6.0, 0.5)
        assert (tc.dog.size, tc.dog.center, tc.dog.surround) == (5, 0.5, 3.0)
        assert (pol.mode, pol.v_inh, pol.scope, pol.layers) == ("soft", 0.75, "layer", "output")
        assert tc.shuffle is True
        assert (tc.no_winner, tc.prefix_policy) == ("step", "wta")
        # the rule-specific and mutually exclusive keys, each in its own file
        multi = parse_config(text.replace("rule = biological", "rule = multiplicative"))
        assert multi.train_config().rule == MultiplicativeStdp(0.2, 2.5)
        offset = parse_config(text.replace("t_targets = 0.6 0.65 0.7", "delta_t = -0.05"))
        assert offset.train_config().delta_t == -0.05

    @pytest.mark.parametrize("ensemble", [False, True])
    def test_readme_example_parses(self, ensemble):
        text = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        if ensemble:
            text = re.sub(r"^;(\[ensemble\]|member)", r"\1", text, flags=re.M)
        cfg = parse_config(text)
        assert cfg.train_config().n_epoch == 20 and len(cfg.architecture) == 5
        members = (EnsembleMember(0.65, 128), EnsembleMember(0.70, 128))
        assert cfg.ensemble == (members if ensemble else ())


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

    def test_t_targets_count_rejected_before_loading(self, toy, capsys, monkeypatch):
        import spikeconv.cli as cli

        monkeypatch.setattr(cli, "load_idx", lambda *a: pytest.fail("dataset loaded"))
        cfg = toy["dir"] / "targets.ini"
        cfg.write_text(TOY_CONFIG.replace("t_target = 0.7", "t_targets = 0.5 0.6 0.7"))
        rc = main(["train", "--config", str(cfg), "--out", str(toy["dir"] / "x.spknet"),
                   "--train-images", toy["train"][0], "--train-labels", toy["train"][1]])
        assert rc == 1
        captured = capsys.readouterr()
        assert "t_targets gives 3 firing targets for the architecture's 2 trainable layers" \
            in captured.err
        assert captured.out == ""

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


    @pytest.mark.parametrize("dims", [(2**31 - 1,) * 3, (1, 2**31 - 1, 2**31 - 1)])
    def test_oversized_idx_header_is_an_error(self, toy, capsys, dims):
        # the dataset is read before the model, so no model is needed
        crafted = toy["dir"] / "huge-images.idx3"
        crafted.write_bytes(struct.pack(">4i", 0x803, *dims) + bytes(64))
        rc = main([
            "eval", "nope.spknet", "--config", toy["cfg"],
            "--train-images", str(crafted), "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {crafted}: truncated pixel data")

    def test_svm_out_of_several_models_needs_ensemble(self, toy, capsys):
        # rejected before any model or dataset is read
        svm = toy["dir"] / "s.svm"
        rc = main(["eval", "nope1.spknet", "nope2.spknet", "--svm-out", str(svm)])
        assert rc == 1
        assert "--svm-out" in capsys.readouterr().err
        assert not svm.exists()


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

    @pytest.mark.parametrize("axis, values, trainings", [("policy", "none,soft,wta", 2),
                                                         ("t_target", "0.6,0.7", 4)])
    def test_one_training_per_distinct_network(self, toy, capsys, monkeypatch, axis, values,
                                               trainings):
        # the policy changes inference only, so its values share each seed's network
        import spikeconv.cli

        calls = []
        real = spikeconv.cli.train_network
        monkeypatch.setattr(spikeconv.cli, "train_network",
                            lambda *a, **kw: calls.append(a[3]) or real(*a, **kw))
        rc = main([
            "sweep", "--config", toy["cfg"], "--axis", axis, "--values", values,
            "--runs", "2", "--seed", "3",
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        assert len(calls) == trainings and sorted(set(calls)) == [3, 4]
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[:2] for line in lines[1:4]] == [
            [values.split(",")[0], "3"], [values.split(",")[0], "4"],
            [values.split(",")[0], "mean±std"]]

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

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_run_count_below_one_rejected_before_loading(self, toy, capsys, monkeypatch, runs):
        import spikeconv.cli as cli

        monkeypatch.setattr(cli, "load_idx", lambda *a: pytest.fail("dataset loaded"))
        rc = main([
            "sweep", "--config", toy["cfg"], "--axis", "t_target", "--values", "0.6",
            "--runs", runs,
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"--runs must be >= 1, got {runs}" in captured.err
        assert captured.out == ""

    def test_ensemble_config_rejected(self, toy, capsys):
        cfg = toy["dir"] / "ens.ini"
        cfg.write_text(TOY_CONFIG + "\n[ensemble]\nmember1 = 0.6 3\n")
        rc = main([
            "sweep", "--config", str(cfg), "--axis", "t_target", "--values", "0.6",
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 1
        assert "[ensemble]" in capsys.readouterr().err

    def test_unknown_axis_rejected_by_parser(self, toy):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "gamma", "--values", "1",
                  "--train-images", toy["train"][0],
                  "--train-labels", toy["train"][1]])

    def test_every_axis_maps_onto_config(self):
        from spikeconv.cli import _sweep_value_config

        def built(axis, value, base=ExperimentConfig().validate()):
            return _sweep_value_config(base, axis, value).train_config()

        assert built("t_target", "0.65").t_target == 0.65
        assert built("delta_t", "-0.05").delta_t == -0.05
        assert built("beta", "2.5").rule == MultiplicativeStdp(0.1, 2.5)
        assert built("tau", "0.5").rule == BiologicalStdp(0.1, 0.5)
        pol = _sweep_value_config(ExperimentConfig(), "policy", "soft")
        assert pol.inference_policy().mode == "soft"
        with pytest.raises(ValueError):
            _sweep_value_config(ExperimentConfig(), "policy", "hard")

    def test_sweep_keeps_settings_of_other_rules(self):
        from spikeconv.cli import _sweep_value_config

        # the biological rule a tau sweep builds keeps the file's delay
        # variant, set while another rule was selected
        cfg = parse_config("[stdp]\nrule = multiplicative\nbio_delay_decay = true\n")
        tau = _sweep_value_config(cfg, "tau", "0.5").train_config().rule
        assert tau == BiologicalStdp(0.1, 0.5, decay_with_delay=True)
        assert cfg.settings["rule_name"] == "multiplicative"  # copied, not mutated
        # beta under the biological rule is accepted and ignored
        base = parse_config("[stdp]\nrule = biological\nbeta = 3.0\n")
        assert base.train_config().rule == BiologicalStdp()


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

    def test_inspect_names_truncated_model(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        bad = toy["dir"] / "bad.spknet"
        bad.write_bytes(out.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["inspect", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: truncated arrays: header line")

    def test_inspect_prints_summary(self, toy, capsys):
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "input: 2 maps, 8x8" in text
        assert "layer 0: conv 3x3" in text
        assert "parameters:" in text

    def test_python_dash_m_runs_the_cli(self, toy):
        # ``python -m spikeconv`` with the package on PYTHONPATH, not installed
        out = toy["dir"] / "m.spknet"
        _train(toy, out)
        env = dict(os.environ, PYTHONPATH=str(Path(spikeconv.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-m", "spikeconv", "inspect", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "layer 0: conv 3x3" in run.stdout

    def test_inspect_counts_maps_that_fire_on_one_spike(self, tmp_path, capsys):
        from spikeconv import LayerSpec, Network, NetworkSpec, Shape3
        from spikeconv.modelio import save_network

        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 5, 1, 0),
                                             LayerSpec("pool", 2, 2, 5, 2, 0),
                                             LayerSpec("fc", 2, 2, 3, 1, 0)])
        net = Network(spec)
        # conv: every map's largest weight is 0.9, and it reaches the
        # thresholds 0.5 and 0.9 only; fc: every weight is 0.25, which
        # reaches the threshold 0.25 only
        weights = np.full((5, 2, 3, 3), 0.1)
        weights[:, 1, 2, 0] = 0.9
        net.install_column(0, weights, [0.5, 2.0, 0.9, 0.95, 4.0], 0.7)
        net.install_column(2, np.full((3, 5, 2, 2), 0.25), [0.3, 0.25, 0.26], 0.7)
        save_network(tmp_path / "k.spknet", net)
        assert main(["inspect", str(tmp_path / "k.spknet")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("layer 0: conv") and lines[1].endswith(
            " | 2 of 5 maps fire on one spike | target 0.7")
        assert "fire on one spike" not in lines[2]  # pooling holds no parameters
        assert lines[3].startswith("layer 2: fc") and lines[3].endswith(
            " | 1 of 3 maps fire on one spike | target 0.7")

    def test_inspect_counts_window_slots_zero_in_every_map(self, tmp_path, capsys):
        from spikeconv import LayerSpec, Network, NetworkSpec, Shape3
        from spikeconv.modelio import save_network

        spec = NetworkSpec(Shape3(2, 6, 6), [LayerSpec("conv", 3, 3, 4, 1, 0),
                                             LayerSpec("pool", 2, 2, 4, 2, 0),
                                             LayerSpec("fc", 2, 2, 3, 1, 0)])
        net = Network(spec)
        # conv: 18 slots, 6 of them zero in every map (one of those -0.0),
        # and one more zero in all but map 3; fc: 16 slots, none zero
        weights = np.full((4, 2, 3, 3), 0.5)
        weights[:, 0, 0, :] = 0.0
        weights[:, 1, 2, 1:] = 0.0
        weights[:, 1, 1, 1] = -0.0
        weights[:3, 0, 2, 2] = 0.0
        net.install_column(0, weights, [1.0] * 4, 0.7)
        net.install_column(2, np.full((3, 4, 2, 2), 0.25), [1.0] * 3, 0.7)
        save_network(tmp_path / "z.spknet", net)
        assert main(["inspect", str(tmp_path / "z.spknet")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert " | 6 of 18 window slots are zero in every map | " in lines[1]
        assert "window slots" not in lines[2]  # pooling holds no weights
        assert " | 0 of 16 window slots are zero in every map | " in lines[3]


class TestCrossProcessDeterminism:
    def test_two_processes_same_seed_identical_bytes(self, toy):
        import os
        import subprocess
        import sys

        import spikeconv

        # each child imports the package this process tests, from a checkout
        # as well as from an installed copy
        home = str(Path(spikeconv.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}
        blobs = []
        for name in ("p1.spknet", "p2.spknet"):
            out = toy["dir"] / name
            cmd = [
                sys.executable, "-m", "spikeconv.cli", "train",
                "--config", toy["cfg"], "--seed", "7", "--out", str(out),
                "--train-images", toy["train"][0],
                "--train-labels", toy["train"][1],
            ]
            res = subprocess.run(cmd, capture_output=True, text=True, env=env)
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

    def test_ensemble_log_rows_labelled_by_member(self, toy, capsys):
        cfg = toy["dir"] / "ens.ini"
        cfg.write_text(TOY_CONFIG + "\n[ensemble]\nmember1 = 0.6 3\nmember2 = 0.8 2\n")
        out = toy["dir"] / "ens.spknet"
        assert main([
            "train", "--config", str(cfg), "--seed", "4", "--out", str(out),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
        ]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote model {toy['dir'] / f'ens.m{m}.spknet'}" for m in (0, 1)]
        lines = (toy["dir"] / "ens.spknet.log.csv").read_text().splitlines()
        assert lines[0].startswith("layer,epoch,")
        # members in order, each one's trainable layers (0 and 2) bottom-up,
        # two epochs each over the eight training samples
        assert [line.split(",")[:2] + line.split(",")[4:5] for line in lines[1:]] == [
            [f"m{m}:{layer}", str(epoch), "8"]
            for m in (0, 1) for layer in (0, 2) for epoch in (0, 1)]
        # the last layer's win histogram has one count per output map
        assert [len(line.split(",")[-1].split(";")) for line in lines[1:]] == [4, 4, 3, 3,
                                                                               4, 4, 2, 2]

    def test_ensemble_eval_saves_one_classifier(self, toy, capsys):
        cfg = toy["dir"] / "ens.ini"
        cfg.write_text(TOY_CONFIG + "\n[ensemble]\nmember1 = 0.6 3\nmember2 = 0.8 2\n")
        out = toy["dir"] / "ens.spknet"
        assert main([
            "train", "--config", str(cfg), "--seed", "4", "--out", str(out),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
        ]) == 0
        capsys.readouterr()
        svm = toy["dir"] / "ens.svm"
        rc = main([
            "eval", str(toy["dir"] / "ens.m0.spknet"), str(toy["dir"] / "ens.m1.spknet"),
            "--ensemble", "--svm-out", str(svm), "--config", str(cfg),
            "--train-images", toy["train"][0], "--train-labels", toy["train"][1],
            "--test-images", toy["test"][0], "--test-labels", toy["test"][1],
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[1] == "ens.m0+ens.m1"
        assert load_svm(svm).weights.shape[1] == 3 + 2  # both members' features
