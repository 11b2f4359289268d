"""Command-line front end: train, eval, sweep, export-filters, features, inspect."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .core import Shape3
from .datasets import load_idx, load_split_list
from .images import write_pgm, write_ppm
from .modelio import (
    load_network,
    save_features,
    save_labels,
    save_network,
    save_svm,
)
from .readout import extract_features, mean_sparsity, reconstruct_filter
from .svm import accuracy, fit
from .training import (
    TrainingLog,
    encode_dataset,
    train_ensemble,
    train_network,
)

SWEEP_AXES = ("t_target", "delta_t", "beta", "tau", "policy")


def _add_dataset_args(p, test: bool):
    g = p.add_argument_group("dataset")
    g.add_argument("--train-images", help="IDX image file (training split)")
    g.add_argument("--train-labels", help="IDX label file (training split)")
    g.add_argument("--image-root", help="directory for split-list loading")
    g.add_argument("--train-list", help="split list: 'relative/path label' per line")
    g.add_argument("--limit-train", type=int, help="use only the first N training samples")
    if test:
        g.add_argument("--test-images", help="IDX image file (test split)")
        g.add_argument("--test-labels", help="IDX label file (test split)")
        g.add_argument("--test-list", help="split list for the test set")
        g.add_argument("--limit-test", type=int, help="use only the first N test samples")


def _load_split(args, which: str, limit):
    images = getattr(args, f"{which}_images", None)
    labels = getattr(args, f"{which}_labels", None)
    lst = getattr(args, f"{which}_list", None)
    if images and labels:
        ds = load_idx(images, labels)
    elif args.image_root and lst:
        ds = load_split_list(args.image_root, lst)
    else:
        raise ValueError(
            f"no {which} dataset: give --{which}-images/--{which}-labels "
            f"or --image-root/--{which}-list"
        )
    if limit is not None:
        if limit < 1:
            raise ValueError(f"--limit-{which} must be >= 1")
        ds = ds.subset(limit)
    return ds


def _config(args) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    return ExperimentConfig().validate()


def _spec_for(cfg: ExperimentConfig, images: np.ndarray):
    h, w = images.shape[1:]
    return cfg.network_spec(Shape3(2, h, w))


def cmd_train(args) -> int:
    cfg = _config(args)
    ds = _load_split(args, "train", args.limit_train)
    spec = _spec_for(cfg, ds.images)
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log.csv")

    members = cfg.ensemble_members()
    if members:
        logs = [TrainingLog() for _ in members]
        nets = train_ensemble(spec, ds.images, cfg.train_config(), args.seed,
                              members, logs=logs)
        for i, net in enumerate(nets):
            save_network(_member_path(out, i), net)
        merged = TrainingLog()
        for i, lg in enumerate(logs):
            merged.rows.extend((f"m{i}:{r[0]}",) + r[1:] for r in lg.rows)
        merged.write(log_path)
        print(f"wrote {len(nets)} ensemble member models to {out.parent or '.'}")
    else:
        log = TrainingLog()
        net = train_network(spec, ds.images, cfg.train_config(), args.seed, log=log)
        save_network(out, net)
        log.write(log_path)
        print(f"wrote model {out}")
    return 0


def _member_path(out: Path, index: int) -> Path:
    return out.with_name(f"{out.stem}.m{index}{out.suffix}")


def _encode(cfg: ExperimentConfig, ds):
    """A split's (encoded spike grids, labels)."""
    return encode_dataset(ds.images, cfg.dog(), cfg.window()), ds.labels


def _evaluate(cfg, networks, train, test, svm_seed: int = 0, svm_out=None):
    """Recognition rate and test sparsity; ``train``/``test`` come from ``_encode``."""
    policy = cfg.inference_policy()
    f_train = extract_features(networks, train[0], cfg.t_end, policy)
    f_test = extract_features(networks, test[0], cfg.t_end, policy)
    model = fit(f_train, train[1], c=1.0, seed=svm_seed)
    if svm_out:
        save_svm(svm_out, model)
    rate = accuracy(model, f_test, test[1])
    return rate, mean_sparsity(f_test)


def cmd_eval(args) -> int:
    cfg = _config(args)
    train_ds = _load_split(args, "train", args.limit_train)
    test_ds = _load_split(args, "test", args.limit_test)

    train, test = _encode(cfg, train_ds), _encode(cfg, test_ds)

    rows = []
    if args.ensemble:
        nets = [load_network(m) for m in args.models]
        rate, sp = _evaluate(cfg, nets, train, test, svm_out=args.svm_out)
        rows.append((cfg.name, "+".join(Path(m).stem for m in args.models), rate, sp))
    else:
        for m in args.models:
            rate, sp = _evaluate(cfg, [load_network(m)], train, test, svm_out=args.svm_out)
            rows.append((cfg.name, Path(m).stem, rate, sp))

    lines = ["config,seed,recognition_rate,sparsity"]
    for name, seed_id, rate, sp in rows:
        lines.append(f"{name},{seed_id},{rate!r},{sp!r}")
    if len(rows) > 1:
        lines.append(f"{cfg.name},aggregate,{_mean_std([r[2] for r in rows])},"
                     f"{_mean_std([r[3] for r in rows])}")
    _emit(args.out, lines)
    return 0


def _mean_std(values) -> str:
    """``mean±std`` as plain round-trip floats."""
    a = np.asarray(values, dtype=np.float64)
    return f"{float(a.mean())!r}±{float(a.std())!r}"


def _sweep_value_config(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    cfg = dataclasses.replace(cfg)
    if axis == "policy":
        if value not in ("none", "soft", "wta"):
            raise ValueError(f"unknown policy {value!r}")
        cfg.inference_inhibition = value
    elif axis == "t_target":
        cfg.t_target = float(value)
    elif axis == "delta_t":
        cfg.delta_t = float(value)
    elif axis == "beta":
        cfg.beta = float(value)
        cfg.rule_name = "multiplicative"
    elif axis == "tau":
        cfg.tau = float(value)
        cfg.rule_name = "biological"
    else:
        raise ValueError(f"unknown sweep axis {axis!r} (one of {SWEEP_AXES})")
    return cfg.validate()


def cmd_sweep(args) -> int:
    cfg = _config(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError("sweep needs a non-empty comma-separated --values list")
    for v in values:
        _sweep_value_config(cfg, args.axis, v)  # validate before any training
    train_ds = _load_split(args, "train", args.limit_train)
    test_ds = _load_split(args, "test", args.limit_test)

    # no sweep axis touches the DoG filter or the coding window, so every
    # cell shares one encoding of each split
    train, test = _encode(cfg, train_ds), _encode(cfg, test_ds)

    cells = [(v, args.seed + r) for v in values for r in range(args.runs)]
    results = {}
    for v, seed in cells:
        vcfg = _sweep_value_config(cfg, args.axis, v)
        spec = _spec_for(vcfg, train_ds.images)
        net = train_network(spec, train_ds.images, vcfg.train_config(), seed,
                            encoded=train[0])
        results[(v, seed)] = _evaluate(vcfg, [net], train, test)

    lines = [f"{args.axis},seed,recognition_rate,sparsity"]
    for v in values:
        runs = [results[(v, args.seed + r)] for r in range(args.runs)]
        for r, (rate, sp) in enumerate(runs):
            lines.append(f"{v},{args.seed + r},{rate!r},{sp!r}")
        lines.append(f"{v},mean±std,{_mean_std([r[0] for r in runs])},"
                     f"{_mean_std([r[1] for r in runs])}")
    _emit(args.out, lines)
    return 0


def cmd_export_filters(args) -> int:
    net = load_network(args.model)
    index = args.layer
    if not 0 <= index < len(net.spec.layers):
        raise ValueError(f"layer {index} out of range (0..{len(net.spec.layers) - 1})")
    layer = net.spec.layers[index]
    if not layer.trainable:
        raise ValueError(f"layer {index} is pooling and has no filters")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for m in range(layer.maps):
        img = reconstruct_filter(net, index, m)
        if img.shape[0] == 2:
            rgb = np.zeros(img.shape[1:] + (3,))
            rgb[..., 0] = img[0]  # on channel -> red
            rgb[..., 1] = img[1]  # off channel -> green; overlap reads yellow
            write_ppm(out_dir / f"layer{index}_map{m:04d}.ppm", rgb)
        else:
            write_pgm(out_dir / f"layer{index}_map{m:04d}.pgm", img.mean(axis=0))
    print(f"wrote {layer.maps} filter images to {out_dir}")
    return 0


def cmd_features(args) -> int:
    cfg = _config(args)
    ds = _load_split(args, "train", args.limit_train)
    nets = [load_network(m) for m in args.models]
    grids, _ = _encode(cfg, ds)
    feats = extract_features(nets, grids, cfg.t_end, cfg.inference_policy())
    save_features(args.out, feats, has_labels=bool(args.labels_out))
    if args.labels_out:
        save_labels(args.labels_out, ds.labels)
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} feature matrix to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    net = load_network(args.model)
    spec = net.spec
    d, h, w = spec.input_shape.astuple()
    print(f"input: {d} maps, {h}x{w}")
    for i, layer in enumerate(spec.layers):
        shp = spec.shapes[i + 1].astuple()
        line = (f"layer {i}: {layer.kind} {layer.filter_h}x{layer.filter_w} "
                f"maps={layer.maps} stride={layer.stride} padding={layer.padding} "
                f"-> {shp[0]}x{shp[1]}x{shp[2]}")
        if layer.trainable:
            wts, th = net.weights[i], net.thresholds[i]
            line += (f" | W[{wts.min():.3f}, {wts.max():.3f}] "
                     f"mean {wts.mean():.3f} | th[{th.min():.2f}, {th.max():.2f}]")
            if net.t_targets[i] is not None:
                line += f" | target {net.t_targets[i]}"
        print(line)
    n_params = sum(w.size + t.size for w, t in zip(net.weights, net.thresholds)
                   if w is not None)
    print(f"parameters: {n_params}")
    return 0


def _emit(out, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spikeconv",
        description="Unsupervised spiking convolutional networks with latency coding",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a network (or ensemble) on a dataset")
    t.add_argument("--config", help="experiment config file (key=value sections)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="output model path")
    t.add_argument("--log", help="training log CSV (default: <out>.log.csv)")
    _add_dataset_args(t, test=False)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="recognition rate + sparsity of trained models")
    e.add_argument("models", nargs="+", help="model file(s); one row per model")
    e.add_argument("--config", help="experiment config file")
    e.add_argument("--ensemble", action="store_true",
                   help="treat the models as one ensemble (features concatenate)")
    e.add_argument("--svm-out", help="save the fitted readout classifier")
    e.add_argument("--out", help="write the CSV here instead of stdout")
    _add_dataset_args(e, test=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="train+eval across one parameter axis")
    s.add_argument("--config", help="experiment config file")
    s.add_argument("--axis", required=True, choices=SWEEP_AXES)
    s.add_argument("--values", required=True, help="comma-separated axis values")
    s.add_argument("--runs", type=int, default=1, help="seeds per value")
    s.add_argument("--seed", type=int, default=0, help="base seed")
    s.add_argument("--out", help="write the CSV here instead of stdout")
    _add_dataset_args(s, test=True)
    s.set_defaults(func=cmd_sweep)

    x = sub.add_parser("export-filters", help="render learned filters as PGM/PPM")
    x.add_argument("model")
    x.add_argument("--layer", type=int, required=True)
    x.add_argument("--out", required=True, help="output directory")
    x.set_defaults(func=cmd_export_filters)

    f = sub.add_parser("features", help="dump a dataset's feature matrix")
    f.add_argument("models", nargs="+")
    f.add_argument("--config", help="experiment config file")
    f.add_argument("--out", required=True, help="feature container path")
    f.add_argument("--labels-out", help="write the label column here")
    _add_dataset_args(f, test=False)
    f.set_defaults(func=cmd_features)

    i = sub.add_parser("inspect", help="print a model summary")
    i.add_argument("model")
    i.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
