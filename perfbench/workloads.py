"""Seeded inputs, operations and output checks of the three benchmark workloads.

An operation (``Op``) is one call into a public entry point of ``diractensor``
(``cli.main`` in-process or ``solve_bound_level``) plus a check of what came
back.  A check returns the names of the checks that failed, so an empty list
means the output is correct.  Every op also says whether its input lies in the
domain the repository's own acceptance grid covers (|kappa| <= 5, n <= 4,
|b| <= 2, or a closed-form identity that holds everywhere); a failure there is
a regression, a failure outside it is a known defect that the benchmark counts
but does not treat as a broken program.

The seed fixes one round, a list of ops with the same spread of sizes for
every seed; the worker repeats it, and the traced run repeats it a fixed
number of times so that its call counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import diractensor
from diractensor import Channel, ModelParams, bound_states_exist, cli, energy, special_state

ENERGY_TOLERANCE = 1e-7  # |E_shoot - E_closed| for a shooting level, as in verify
NORM_TOLERANCE = 1e-6
LADDER_LEVELS = 15  # n = 0..14 per channel
PRESETS = ("fig1", "fig2", "fig3a", "fig3b")


@dataclass
class Op:
    kind: str
    label: str
    validated: bool
    call: Callable[[], object]
    check: Callable[[object], list]


# ----------------------------------------------------------------- checks


def read_table(path) -> tuple[dict, list[str], list[list[str]]]:
    """Metadata header (``# key=value`` lines), column names and rows of a CSV
    written by the CLI."""
    meta, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                body.append(line)
    table = list(csv.reader(body))
    return meta, (table[0] if table else []), table[1:]


def check_verify(rc: int, path) -> list:
    if rc != 0:
        return [f"exit_code_{rc}"]
    _, columns, rows = read_table(path)
    if not rows:
        return ["no_rows"]
    passed, check = columns.index("passed"), columns.index("check")
    bad = []
    if any(row[passed] != "true" for row in rows):
        bad.append("row_not_passed")
    if not {"oracle", "zero_component"} <= {row[check] for row in rows}:
        bad.append("missing_check_kind")
    return bad


def check_preset(rc: int, output: bytes, golden: bytes) -> list:
    if rc != 0:
        return [f"exit_code_{rc}"]
    return [] if output == golden else ["golden_mismatch"]


def check_level(result, expected_energy: float, n: int) -> list:
    bad = []
    if not abs(result.energy_pair[0] - expected_energy) <= ENERGY_TOLERANCE:
        bad.append("delta_e")
    if result.node_count != n:
        bad.append("node_count")
    return bad


def check_wavefunction(rc: int, path) -> list:
    if rc != 0:
        return [f"exit_code_{rc}"]
    meta, _, rows = read_table(path)
    if not rows:
        return ["no_rows"]
    bad = []
    # an empty n_g / n_f marks the component that vanishes identically: no nodes
    if int(meta["node_count_g"]) != int(meta["n_g"] or 0):
        bad.append("node_count_g")
    if int(meta["node_count_f"]) != int(meta["n_f"] or 0):
        bad.append("node_count_f")
    if not abs(float(meta["norm"]) - 1.0) <= NORM_TOLERANCE:
        bad.append("norm")
    return bad


def check_window(rc: int, path, mass: float, b: float, column: str) -> list:
    """Every bound energy lies in M <= |E| < M* = sqrt(M^2 + b^2)."""
    if rc != 0:
        return [f"exit_code_{rc}"]
    _, columns, rows = read_table(path)
    flag, col = columns.index("bound_flag"), columns.index(column)
    bound = [float(row[col]) for row in rows if row[flag] == "true"]
    if not bound:
        return ["no_bound_rows"]
    mstar = math.hypot(mass, b)
    scale = mass if column == "E_over_M" else 1.0
    if not all(mass * (1.0 - 1e-12) <= abs(e) * scale < mstar for e in bound):
        return ["energy_window"]
    return []


# ------------------------------------------------------------------- ops


def cli_call(argv: list) -> Callable[[], int]:
    """``cli.main(argv)`` with its console output captured, as a user's shell would."""

    def call() -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    return call


def closed_form_level(params: ModelParams, channel: Channel, n: int) -> float:
    """|E| of the upper-component level with n nodes."""
    if channel.kappa_bar < -0.5 and n == 0:
        return special_state(params, channel).energy
    return abs(energy(params, channel, n))


def _binding_kappa(b: float, a: float, size: float) -> int:
    """An integer kappa with b * kappa_bar < 0 and |kappa_bar| near ``size`` (> 1/2)."""
    sign = -1 if b > 0 else 1  # kappa_bar must have the sign opposite to b
    kappa = round(sign * size - a)
    while kappa == 0 or b * (kappa + a) >= 0 or abs(kappa + a) <= 0.5:
        kappa += sign
    return kappa


def _stratified(rng: random.Random, count: int) -> list:
    """``count`` uniform draws in [0, 1), one per equal stratum, in random order."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _paired_strata(rng: random.Random, count: int) -> list:
    """``count`` pairs (i, u, v) of draws in [0, 1): u from stratum i, v from
    stratum (7 i + 3) mod count.  The pairing is the same for every seed, so
    every seed's round has the same spread of request sizes."""
    return [(i, (i + rng.random()) / count, ((7 * i + 3) % count + rng.random()) / count)
            for i in range(count)]


class Workload:
    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.rng = random.Random(seed)
        self.scratch = scratch

    def warmup(self) -> list:
        """Ops run once before timing so lazy set-up is not measured."""
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def trace_round(self) -> list:
        """Ops of the traced run, repeated ``trace_rounds`` times."""
        return self.round()


class VerifyGrid(Workload):
    """``diractensor verify`` on its default grid, one binding channel per op.

    The default grid of ``cli.run_verification`` has 138 binding channels (b
    in B_VALUES, a in A_VALUES, kappa in -5..5), each with levels n = 0..4
    and an edge-state integration; one round of the whole grid takes ~20 s,
    too long to repeat often enough in a run for the fastest of the repeats
    to filter out host interference.  A round is therefore a sixth of the
    grid: the channels sorted by |kappa_bar| (which sets their cost) and taken
    every sixth from an offset set by the seed, so every seed's sixth has the
    same spread of costs and six seeds cover the grid.  The traced run takes
    the whole grid.
    """

    name = "verify-grid"
    B_VALUES = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)
    A_VALUES = (0.0, 0.5, -0.5, 2.0, -2.0)
    SLICES = 6

    def __init__(self, seed: int, root: Path, scratch: Path):
        super().__init__(seed, root, scratch)
        self.offset = seed % self.SLICES

    def _op(self, b: float, a: float, kappa: int) -> Op:
        out = self.scratch / "verify.csv"
        argv = ["verify", f"--b={b!r}", f"--a={a!r}", f"--kappa-min={kappa}",
                f"--kappa-max={kappa}"]
        return Op("verify", " ".join(argv), True, cli_call([*argv, "--out", str(out)]),
                  lambda rc: check_verify(rc, out))

    def _grid(self) -> list:
        channels = [(abs(kappa + a), b, a, kappa)
                    for b in self.B_VALUES for a in self.A_VALUES for kappa in range(-5, 6)
                    if kappa and bound_states_exist(ModelParams(1.0, a, b),
                                                    Channel.from_kappa(kappa, a))]
        return [self._op(b, a, kappa) for _, b, a, kappa in sorted(channels)]

    def warmup(self) -> list:
        return [self._op(1.0, 0.0, -1)]

    def round(self) -> list:
        return self._grid()[self.offset::self.SLICES]

    def trace_round(self) -> list:
        return self._grid()


class ShootLadder(Workload):
    """Deep level ladders n = 0..14 solved one level at a time by shooting."""

    name = "shoot-ladder"
    trace_rounds = 6

    def _channels(self) -> list:
        rng = self.rng
        count = rng.randint(6, 8)
        out = []
        for i, u in enumerate(_stratified(rng, count)):
            b = (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.5, 2.0)
            a = rng.uniform(-2.0, 2.0)
            size = math.exp(u * math.log(30.0))  # |kappa_bar| log-uniform in [1, 30]
            params = ModelParams(1.0, a, b)
            out.append((params, Channel.from_kappa(_binding_kappa(b, a, size), a)))
        return out

    def _op(self, params: ModelParams, channel: Channel, n: int) -> Op:
        expected = closed_form_level(params, channel, n)
        label = f"b={params.b:.4f} a={params.a:.4f} kappa={channel.kappa} n={n}"
        validated = n <= 4 and abs(channel.kappa) <= 5 and abs(params.b) <= 2.0
        return Op("level", label, validated,
                  lambda: diractensor.solve_bound_level(params, channel, "upper", n),
                  lambda result: check_level(result, expected, n))

    def warmup(self) -> list:
        params, channel = self._channels()[0]
        return [self._op(params, channel, 1)]

    def round(self) -> list:
        return [self._op(params, channel, n)
                for params, channel in self._channels() for n in range(LADDER_LEVELS)]


class CliRequests(Workload):
    """A stream of single CLI requests: presets, level tables and wavefunctions."""

    name = "cli-requests"
    trace_rounds = 2
    # per round; the spectrum tables are the slowest requests, and there are
    # enough of them that the p90 latency falls among them
    TABLES = 24  # spectrum requests, and as many fig3 requests
    WAVEFUNCTIONS = 48  # per kind: acceptance grid, and deep levels

    def __init__(self, seed: int, root: Path, scratch: Path):
        super().__init__(seed, root, scratch)
        golden = root / "tests" / "golden"
        self.golden = {name: (golden / f"{name}.csv").read_bytes() for name in PRESETS}

    def _preset(self, name: str) -> Op:
        out = self.scratch / f"{name}.csv"
        command = "fig3" if name.startswith("fig3") else "spectrum"
        return Op("preset", name, True,
                  cli_call([command, "--preset", name, "--out", str(out)]),
                  lambda rc: check_preset(rc, out.read_bytes() if rc == 0 else b"",
                                          self.golden[name]))

    def _spectrum(self, i: int, u_size: float, u_levels: float) -> Op:
        rng = self.rng
        mass = rng.uniform(0.5, 2.0)
        b = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
        a = rng.uniform(-2.0, 2.0)
        size = 4 + int(u_size * 37)  # 4..40 channels
        lo, hi = (-size, -1) if b > 0 else (1, size)
        argv = ["spectrum", "--mass", repr(mass), "--b", repr(b), "--a", repr(a),
                "--kappa-min", str(lo), "--kappa-max", str(hi),
                "--n-max", str(1 + int(u_levels * 30)),
                "--branch", ("plus", "minus", "both")[i % 3]]
        if i % 4 == 0:
            argv.append("--conjugate")
        out = self.scratch / "spectrum.csv"
        return Op("spectrum", " ".join(argv), True, cli_call([*argv, "--out", str(out)]),
                  lambda rc: check_window(rc, out, mass, b, "E"))

    def _fig3(self, i: int, u_size: float, u_levels: float) -> Op:
        rng = self.rng
        mass = rng.uniform(0.5, 2.0)
        b = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
        a_values = ",".join(repr(rng.uniform(-2.0, 2.0)) for _ in range(3 + i % 3))
        size = 4.0 + u_size * 36.0
        lo, hi = (-size, -0.5) if b > 0 else (0.5, size)
        argv = ["fig3", "--mass", repr(mass), "--b", repr(b), f"--a-values={a_values}",
                "--kappa-bar-min", repr(lo), "--kappa-bar-max", repr(hi),
                "--n", str(1 + int(u_levels * 30))]
        out = self.scratch / "fig3.csv"
        return Op("fig3", " ".join(argv), True, cli_call([*argv, "--out", str(out)]),
                  lambda rc: check_window(rc, out, mass, b, "E_over_M"))

    def _wavefunction(self, i: int, u_size: float, u_level: float, deep: bool) -> Op:
        rng = self.rng
        b = (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.5, 2.0)
        a = rng.uniform(-2.0, 2.0)
        if deep:  # |kappa_bar| log-uniform in [1, 150], n up to 60
            size, n = math.exp(u_size * math.log(150.0)), int(u_level * 61)
        else:  # the acceptance grid
            size, n = 1.0 + u_size * 3.0, int(u_level * 5)
        kappa = _binding_kappa(b, a, size)
        argv = ["wavefunction", "--b", repr(b), "--a", repr(a), "--kappa", str(kappa),
                "--n", str(n), "--branch", ("plus", "minus")[i // 2 % 2]]
        out = self.scratch / "wavefunction.csv"
        validated = abs(kappa) <= 5 and n <= 4
        return Op("wavefunction", " ".join(argv), validated,
                  cli_call([*argv, "--out", str(out)]),
                  lambda rc: check_wavefunction(rc, out))

    def warmup(self) -> list:
        return [self._preset("fig1"), self._spectrum(0, 0.5, 0.5), self._fig3(0, 0.5, 0.5),
                self._wavefunction(0, 0.5, 0.5, False)]

    def round(self) -> list:
        rng = self.rng
        ops = [self._preset(name) for name in PRESETS]
        ops += [self._spectrum(*p) for p in _paired_strata(rng, self.TABLES)]
        ops += [self._fig3(*p) for p in _paired_strata(rng, self.TABLES)]
        for deep in (False, True):
            ops += [self._wavefunction(*p, deep) for p in _paired_strata(rng, self.WAVEFUNCTIONS)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, ShootLadder, CliRequests)}
