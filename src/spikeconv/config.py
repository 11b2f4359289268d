"""Experiment configuration: INI-style files, validation.

The file format is plain sectioned key=value text (configparser syntax).
Each key sets one field of the object that owns it (``TrainConfig``, the
STDP rule, ``DoGParams``, ``CodingWindow`` or ``InhibitionPolicy``); a key
left out keeps that object's own default, so an empty file is a valid
experiment. Unknown sections or keys are rejected with the offending name
in the message.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .core import Shape3
from .encoding import CodingWindow, DoGParams
from .network import LayerSpec, NetworkSpec
from .plasticity import AdditiveStdp, BiologicalStdp, MultiplicativeStdp
from .simulate import InhibitionPolicy
from .training import EnsembleMember, TrainConfig

__all__ = ["ExperimentConfig", "parse_config", "load_config", "DEFAULT_ARCHITECTURE"]

# the published MNIST stack: conv-pool-conv-pool-fc
DEFAULT_ARCHITECTURE = (
    LayerSpec("conv", 5, 5, 32, 1, 0),
    LayerSpec("pool", 2, 2, 32, 2, 0),
    LayerSpec("conv", 5, 5, 128, 1, 0),
    LayerSpec("pool", 2, 2, 128, 2, 0),
    LayerSpec("fc", 4, 4, 4096, 1, 0),
)


@dataclass
class ExperimentConfig:
    """One experiment: its name, the settings its file gave, the layers.

    ``settings`` maps the name of the dataclass field each setting owns to
    its value (see ``_KEYS``); ``train_config`` and ``inference_policy``
    build their objects from it and everything unset keeps that dataclass's
    own default, so an empty file is the package's standard parameter set.
    """

    name: str = "default"
    settings: dict = field(default_factory=dict)
    architecture: tuple = DEFAULT_ARCHITECTURE
    ensemble: tuple = ()  # one EnsembleMember per network; empty = one network

    def train_config(self) -> TrainConfig:
        s = self.settings
        name = s.get("rule_name")
        if name is not None and name not in _RULES:
            raise ValueError(f"unknown STDP rule {name!r}")
        rule = _RULES[name] if name else type(TrainConfig().rule)
        return _build(TrainConfig, s, rule=_build(rule, s), window=_build(CodingWindow, s),
                      dog=_build(DoGParams, s))

    def inference_policy(self) -> InhibitionPolicy:
        return _build(InhibitionPolicy, self.settings)

    def network_spec(self, input_shape: Shape3) -> NetworkSpec:
        return NetworkSpec(input_shape, self.architecture)

    def validate(self) -> "ExperimentConfig":
        tc = self.train_config()
        self.inference_policy()
        if not self.architecture:
            raise ValueError("architecture has no layers")
        trainable = sum(layer.trainable for layer in self.architecture)
        if tc.t_targets is not None and len(tc.t_targets) != trainable:
            raise ValueError(f"t_targets gives {len(tc.t_targets)} firing targets for "
                             f"the architecture's {trainable} trainable layers")
        return self


def _build(cls, settings: dict, **fixed):
    """``cls`` from the settings that name its fields, plus ``fixed``."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in settings.items() if k in names}, **fixed)


def _bool(value: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]


_RULES = {"additive": AdditiveStdp, "multiplicative": MultiplicativeStdp,
          "biological": BiologicalStdp}

# (section, key) -> (the owning dataclass field, converter). Owners:
# TrainConfig, the STDP rules, DoGParams, CodingWindow, InhibitionPolicy;
# "rule_name" picks the rule class and "name" is the experiment's own
_KEYS = {
    ("meta", "name"): ("name", str),
    ("learning", "lambda"): ("anneal", float),
    ("learning", "n_epoch"): ("n_epoch", int),
    ("stdp", "rule"): ("rule_name", str),
    ("stdp", "eta_w"): ("eta_w", float),
    ("stdp", "beta"): ("beta", float),
    ("stdp", "tau"): ("tau", float),
    ("stdp", "bio_delay_decay"): ("decay_with_delay", _bool),
    ("stdp", "w_min"): ("w_min", float),
    ("stdp", "w_max"): ("w_max", float),
    ("coding", "t_start"): ("t_start", float),
    ("coding", "t_end"): ("t_end", float),
    ("threshold", "t_target"): ("t_target", float),
    ("threshold", "delta_t"): ("delta_t", float),
    ("threshold", "t_targets"): ("t_targets", lambda v: tuple(float(x) for x in v.split())),
    ("threshold", "eta_th"): ("eta_th", float),
    ("threshold", "th_min"): ("th_min", float),
    ("threshold", "v_th_mean"): ("v_th_mean", float),
    ("threshold", "v_th_std"): ("v_th_std", float),
    ("threshold", "v_inh"): ("v_inh", float),
    ("preprocess", "dog_size"): ("size", int),
    ("preprocess", "dog_center"): ("center", float),
    ("preprocess", "dog_surround"): ("surround", float),
    ("simulation", "inference_inhibition"): ("mode", str),
    ("simulation", "inhibition_scope"): ("scope", str),
    ("simulation", "inhibition_layers"): ("layers", str),
    ("training", "shuffle"): ("shuffle", _bool),
    ("training", "no_winner"): ("no_winner", str),
    ("training", "prefix_policy"): ("prefix_policy", str),
}


def parse_config(text: str, name: str = "config") -> ExperimentConfig:
    """Parse and validate sectioned key=value text into a config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ValueError(f"{name}: {exc}") from None

    settings, architecture, ensemble = {}, DEFAULT_ARCHITECTURE, ()
    for section in parser.sections():
        if section == "architecture":
            architecture = _parse_rows(parser[section], name, "layer", LayerSpec.from_line)
            if not architecture:
                raise ValueError(f"{name}: [architecture] section is empty")
            continue
        if section == "ensemble":
            ensemble = _parse_rows(parser[section], name, "member", _member)
            continue
        for key, value in parser[section].items():
            entry = _KEYS.get((section, key))
            if entry is None:
                raise ValueError(f"{name}: unknown option [{section}] {key}")
            owner, conv = entry
            try:
                settings[owner] = conv(value)
            except (KeyError, ValueError):  # KeyError: not a boolean word
                raise ValueError(
                    f"{name}: bad value for [{section}] {key}: {value!r}"
                ) from None
    cfg = ExperimentConfig(settings.pop("name", name), settings, architecture, ensemble)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return cfg


def _parse_rows(section, name, prefix, parse_row):
    """The rows of a section of numbered keys (``layer1``, ``member2``, ...),
    in key-number order, each parsed by ``parse_row``; a key without
    ``prefix`` or a row ``parse_row`` refuses raises a ValueError naming it."""
    rows = []
    for key in sorted(section, key=_row_key):
        if not key.startswith(prefix):
            raise ValueError(f"{name}: unknown option [{section.name}] {key}")
        try:
            rows.append(parse_row(section[key]))
        except ValueError as exc:
            raise ValueError(f"{name}: [{section.name}] {key}: {exc}") from None
    return tuple(rows)


def _row_key(key: str):
    digits = "".join(ch for ch in key if ch.isdigit())
    return (int(digits) if digits else 0, key)


def _member(line: str) -> EnsembleMember:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError("must be 't_target output_maps'")
    return EnsembleMember(float(parts[0]), int(parts[1]))


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), name=Path(path).stem)
