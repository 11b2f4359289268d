import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import spikeconv

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(spikeconv.__file__).resolve().parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(spikeconv.__path__))


def test_modules_found():
    assert {"core", "simulate", "training", "modelio"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"spikeconv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"spikeconv.{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from spikeconv.{name} import *", namespace)
    for n in getattr(module, "__all__", ()):
        assert namespace[n] is getattr(module, n)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_names_imported_across_modules(path):
    # a module uses only another's public names; a helper that several
    # modules need gets a public name in its home module
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "spikeconv")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_forward_stacks_runs_layers(path):
    # ``simulate.forward_stacks`` holds the one loop over a network's
    # layers; every other module runs layers through it, never through
    # ``forward_layer`` itself
    callers = {
        func.name
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "forward_layer"
    }
    assert callers <= ({"forward_stacks"} if path.stem == "simulate" else set()), \
        f"{path.name} calls forward_layer in {sorted(callers)}"


def test_readme_quick_tour_runs():
    # the first Python block of the README, run as written on a few images
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    rng = np.random.default_rng(0)
    namespace = {"images": rng.random((6, 28, 28)), "labels": np.arange(6) % 2}
    exec(code, namespace)
    assert namespace["feats"].shape == (6, 512)
    assert len(namespace["layers"]) == 5


def _parameters(func) -> str:
    """A signature as plain text: names, with defaults where given."""
    from spikeconv.simulate import NO_INHIBITION

    params = []
    for p in inspect.signature(func).parameters.values():
        assert p.kind is p.POSITIONAL_OR_KEYWORD, f"{func.__name__}: {p}"
        if p.default is p.empty:
            params.append(p.name)
        elif p.default is NO_INHIBITION:
            params.append(f"{p.name}=NO_INHIBITION")
        else:
            params.append(f"{p.name}={p.default!r}")
    return "(" + ", ".join(params) + ")"


@pytest.mark.parametrize("module, name, params", [
    ("simulate", "forward_times", "(network, input_times, policy=NO_INHIBITION)"),
    ("simulate", "forward_stacks", "(network, grids, policy=NO_INHIBITION, start=0, stop=None)"),
    ("readout", "extract_features", "(networks, grids, t_end, policy=NO_INHIBITION)"),
    ("training", "train_network", "(spec, images, cfg, seed, encoded=None, log=None)"),
    ("training", "train_layer", "(spec, index, input_grids, cfg, streams, t_target, log=None)"),
])
def test_dataset_entry_signatures_are_pinned(module, name, params):
    # the stack size follows from the simulator's chunk cap; no batch-size
    # option may reach the public entries that process datasets
    func = getattr(importlib.import_module(f"spikeconv.{module}"), name)
    assert _parameters(func) == params


@pytest.mark.parametrize("module, name, params", [
    ("simulate", "column_response", "(patch_times, weights, thresholds)"),
    ("training", "broadcast_column", "(network, index, weights, thresholds, t_target=None)"),
    ("network", "Network.__init__", "(self, spec, w_min=0.0, w_max=1.0)"),
    ("network", "Network.install_column", "(self, index, weights, thresholds, t_target=None)"),
])
def test_benchmark_entry_signatures_are_pinned(module, name, params):
    # benchmarks/workloads.py calls these, or wraps column_response with a
    # function of the same three arguments, so their parameters may not move
    func = functools.reduce(getattr, name.split("."), importlib.import_module(f"spikeconv.{module}"))
    assert _parameters(func) == params
