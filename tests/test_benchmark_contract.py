"""The names the benchmark under perfbench/ binds must exist in the package,
and the output it checks must pass its checks.

``perfbench/workloads.py`` imports names from ``diractensor`` and
``perfbench/tracing.py`` wraps the functions its LAYERS and COUNTED tables
name, so removing any of them breaks every benchmark run; a verify column
that ``check_verify`` reads must stay too.  This test reads both files and
changes nothing under perfbench/.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import diractensor
from diractensor import oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # workloads.py fails here if an imported name is gone
    return module


def test_workloads_names_resolve():
    _load("workloads")  # raises if a name it imports from diractensor is gone
    # names it reads off the package only when an op runs
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "diractensor"}
    assert read and [name for name in read if not hasattr(diractensor, name)] == []


@pytest.mark.parametrize("b, kappa", [(1.0, -1), (-1.0, 1)])
def test_verify_output_passes_check_verify(tmp_path, b, kappa):
    # one channel of the verify-grid workload, as its ops call it, in each
    # family: the kappa_bar < -1/2 one, whose level 0 is the E = +M edge, and
    # its mirror
    workloads = _load("workloads")
    out = tmp_path / "verify.csv"
    rc = diractensor.cli.main(["verify", f"--b={b}", "--a=0.0", f"--kappa-min={kappa}",
                               f"--kappa-max={kappa}", "--out", str(out)])
    assert workloads.check_verify(rc, out) == []


@pytest.mark.parametrize("n", [0, 14])
def test_shoot_ladder_levels_pass_check_level(tmp_path, n):
    # the first channel of the shoot-ladder round of seed 1, as the worker
    # draws it after its warm-up, and the first of the opposite sign of b;
    # their |b| are not powers of two, so the oracle's conversion of its
    # answer from units of 1/|b| rounds, and a slip in it fails check_level
    workloads = _load("workloads")
    ladder = workloads.ShootLadder(1, PERFBENCH.parent, tmp_path)
    ladder.warmup()
    channels = ladder._channels()
    first = channels[0]
    other = next(pair for pair in channels if (pair[0].b > 0) != (first[0].b > 0))
    for params, channel in (first, other):
        assert math.frexp(abs(params.b))[0] != 0.5
        op = ladder._op(params, channel, n)
        assert op.check(op.call()) == [], op.label


@pytest.mark.parametrize("seed, index", [(37, 4), (86, 6), (193, 4)])
def test_reboxed_ladder_levels_pass_check_level(tmp_path, seed, index, monkeypatch):
    # n = 0 of a shoot-ladder channel with kappa_bar in (-0.94, -0.59), as
    # the worker draws it after its warm-up: the pencil's ghost ratio at its
    # seed mu leaves this estimate 9-42% off, so the first shot lands more
    # than 10% from the mu that boxed it and the level needs the re-box
    workloads = _load("workloads")
    ladder = workloads.ShootLadder(seed, PERFBENCH.parent, tmp_path)
    ladder.warmup()
    params, channel = ladder._channels()[index]
    assert -0.94 < channel.kappa_bar < -0.59
    op = ladder._op(params, channel, 0)
    assert op.check(op.call()) == [], op.label
    monkeypatch.setattr(oracle, "_MAX_SHOTS", 1)
    with pytest.raises(oracle.ConvergenceError):
        op.call()


def test_pencil_estimates_lie_inside_their_shots_brackets(tmp_path):
    # levels n = 0..14 of the shoot-ladder channels of seeds 1-5, as the
    # worker draws them: the pencil's estimate mu of each level, alone and
    # in the channel's ladder, sets a shot's bracket (1.5 mu, 0.5 mu), which
    # must hold the level
    workloads = _load("workloads")
    for seed in range(1, 6):
        ladder = workloads.ShootLadder(seed, PERFBENCH.parent, tmp_path)
        ladder.warmup()
        for params, channel in ladder._channels():
            levels = range(workloads.LADDER_LEVELS)
            together, _ = oracle._pencil_levels(params, channel, "upper", levels)
            for n in levels:
                [alone], _ = oracle._pencil_levels(params, channel, "upper", range(n, n + 1))
                energy = workloads.closed_form_level(params, channel, n)
                lam = energy * energy - params.mass**2 - params.b_squared
                for estimate in (alone, together[n]):
                    assert 1.5 * estimate < lam < 0.5 * estimate, (seed, channel, n)


TRACING = _load("tracing")


@pytest.mark.parametrize("layer", sorted({**TRACING.LAYERS, **TRACING.COUNTED}))
def test_traced_function_resolves(layer):
    module_name, attr = {**TRACING.LAYERS, **TRACING.COUNTED}[layer]
    assert callable(getattr(importlib.import_module(module_name), attr))
