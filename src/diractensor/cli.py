"""Command-line front end: spectrum tables, wavefunction samples, figure
datasets and the analytic-vs-numeric verification matrix.

Output is data-level (CSV or JSON tables), deterministic byte for byte:
floats are written in shortest round-trip form, rows in a fixed order.  Every
command builds its table as columns, a dict of column name to values, and
the CSV writer formats each column once and joins the cells into rows; it
quotes as the csv module's minimal quoting does, without the csv module.
Exit codes: 0 success, 1 usage error or numeric overflow, 2 verification
failure, including a level the shooting oracle could not solve.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, get_args, get_type_hints

import numpy as np

from .analytic import (
    _magnitudes,
    bound_state,
    charge_conjugate,
    norm_quadrature,
    residuals,
    special_state,
    spectrum,
    state_wavefunctions,
)
from .core import Channel, ModelParams, bound_states_exist, box_radius
from .oracle import (
    NoBracketError,
    ShootingConfig,
    ShootingError,
    _pencil_levels,
    count_sign_changes,
    integrate_first_order,
    shoot_eigenvalue,
    solve_bound_level,
)

__all__ = [
    "RunConfig",
    "UsageError",
    "VerificationFailure",
    "main",
    "entry_point",
    "run_spectrum",
    "run_fig3",
    "run_wavefunction",
    "run_verification",
    "verification_grid_rows",
    "VerifyRow",
    "PRESETS",
]


class UsageError(Exception):
    """Bad flags, bad config file, or a request no parameter set can satisfy."""


class VerificationFailure(Exception):
    """At least one verification check failed."""


_BRANCH_NAME = {"plus": "particle", "minus": "antiparticle", "both": "both"}
_FLIP = {"particle": "antiparticle", "antiparticle": "particle", "both": "both"}


_SUBCOMMANDS = {
    "spectrum": "level table (fig1/fig2 presets)",
    "fig3": "fixed-level energies vs kappa for several a",
    "wavefunction": "sampled radial components of one level",
    "verify": "analytic vs shooting-oracle agreement matrix",
}
_EVERY = " ".join(_SUBCOMMANDS)


def _option(default, reads: str, help=None, choices=None, flag=None):
    """A RunConfig field read by the subcommands named in ``reads``: each of
    them, and no other, takes its flag (``--flag``, else the field name with
    '-' for '_') and its config key (the field name)."""
    return field(default=default,
                 metadata=dict(reads=reads.split(), help=help, choices=choices, flag=flag))


@dataclass
class RunConfig:
    """The options of every subcommand; the parser and the config-file
    reader are derived from these fields."""

    mass: float = _option(1.0, _EVERY)
    a: Optional[float] = _option(0.0, "spectrum wavefunction verify")
    b: Optional[float] = _option(1.0, _EVERY)
    kappa_min: int = _option(-10, "spectrum verify")
    kappa_max: int = _option(-1, "spectrum verify")
    n_max: int = _option(4, "spectrum verify")
    branch: str = _option("plus", "spectrum wavefunction", choices=("plus", "minus", "both"))
    output_format: str = _option("csv", _EVERY, choices=("csv", "json"), flag="format")
    out: Optional[str] = _option(None, _EVERY)
    conjugate: bool = _option(False, "spectrum",
                              help="emit the charge-conjugated (antifermion) spectrum")
    kappa: Optional[int] = _option(None, "wavefunction")
    n: int = _option(0, "fig3 wavefunction",
                     help="upper-component node count (default 1 for fig3, 0 for wavefunction)")
    special: bool = _option(False, "wavefunction",
                            help="the zero-upper-component edge state (kappa_bar > 1/2 side)")
    r_min: Optional[float] = _option(None, "wavefunction")
    r_max: Optional[float] = _option(None, "wavefunction")
    points: int = _option(600, "wavefunction")
    grid: str = _option("log", "wavefunction", choices=("log", "linear"))
    a_values: tuple = _option((-2.0, -1.0, 0.0, 1.0, 2.0), "fig3",
                              help="comma-separated Coulomb strengths")
    kappa_bar_min: float = _option(-10.0, "fig3")
    kappa_bar_max: float = _option(-0.5, "fig3")
    inject_energy_error: float = _option(
        0.0, "verify", help="test mode: offset analytic energies to prove failures are caught")


# Defaults of one subcommand that differ from RunConfig's.  verify's a or b
# of None selects its default grid of that parameter.
_COMMAND_DEFAULTS = {"fig3": dict(n=1),
                     "verify": dict(a=None, b=None, kappa_min=-5, kappa_max=5)}


# The presets of each subcommand that has any.
PRESETS = {
    "spectrum": {
        "fig1": dict(mass=1.0, a=0.0, b=1.0, kappa_min=-10, kappa_max=-1, n_max=4,
                     branch="plus", conjugate=False),
        "fig2": dict(mass=1.0, a=0.0, b=1.0, kappa_min=-10, kappa_max=-1, n_max=4,
                     branch="plus", conjugate=True),
    },
    "fig3": {
        "fig3a": dict(mass=1.0, b=1.0, n=1, a_values=(-2.0, -1.0, 0.0, 1.0, 2.0),
                      kappa_bar_min=-10.0, kappa_bar_max=-0.5),
        "fig3b": dict(mass=1.0, b=-1.0, n=1, a_values=(-2.0, -1.0, 0.0, 1.0, 2.0),
                      kappa_bar_min=0.5, kappa_bar_max=10.0),
    },
}


_CELL_FORMAT = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: float.__repr__,
    int: int.__repr__,
    str: str,
}


def _format_cell(value) -> str:
    """One CSV cell.  Outside ``_CELL_FORMAT`` a float subclass (numpy.float64
    among them) is written by ``float.__repr__``, as JSON writes it, and
    anything else by str; bool and None have no subclasses."""
    exact = _CELL_FORMAT.get(type(value))
    if exact is not None:
        return exact(value)
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _format_column(values) -> list[str]:
    """The CSV cells of one column: one lookup when every value has the same
    type, one pass for floats with None gaps, and quotes only where a cell
    needs them: one of a float, int, bool or None never does."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        cells = list(map(_CELL_FORMAT.get(next(iter(kinds)), _format_cell), values))
    elif kinds == {float, type(None)}:
        text = float.__repr__
        return ["" if value is None else text(value) for value in values]
    else:
        cells = list(map(_format_cell, values))
    if all(issubclass(kind, (float, int, type(None))) for kind in kinds):
        return cells
    return list(map(_quote, cells))


def _quote(cell: str) -> str:
    """A CSV field as ``csv.writer(lineterminator="\\n")`` writes it: quoted,
    with quotes doubled, when it holds a comma, a quote or a newline."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_lines(table: dict) -> list[str]:
    """Header and rows of a table of columns; no line when it has no rows."""
    columns = list(map(_format_column, table.values()))
    if not columns or not columns[0]:
        return []
    lines = [",".join(map(_quote, table)), *map(",".join, zip(*columns))]
    # the csv module writes a row of one empty field as "", not as an empty line
    return [line or '""' for line in lines] if len(columns) == 1 else lines


def _emit(table: dict, fmt: str, out: Optional[str], meta: Optional[dict] = None) -> str:
    """Render a table, a dict of column name to values, and an optional
    metadata header to CSV or JSON text, and write it to ``out`` (stdout
    when None).  JSON holds one object per row."""
    if fmt == "csv":
        lines = [f"# {key}={_format_cell(value)}" for key, value in (meta or {}).items()]
        lines += _csv_lines(table)
        text = "\n".join(lines) + "\n" if lines else ""
    elif fmt == "json":
        rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
        payload = {"meta": meta, "rows": rows} if meta else rows
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise UsageError(f"unknown output format {fmt!r} (use csv or json)")
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _kappa_list(cfg: RunConfig) -> list[int]:
    kappas = [k for k in range(cfg.kappa_min, cfg.kappa_max + 1) if k != 0]
    if not kappas:
        raise UsageError(f"no kappa != 0 in [{cfg.kappa_min}, {cfg.kappa_max}]")
    return kappas


# the columns of the spectrum table and the analytic.spectrum columns they hold
_SPECTRUM_COLUMNS = (("kappa", "kappa"), ("kappa_bar", "kappa_bar"), ("n_g", "n_g"), ("n_f", "n_f"),
                     ("n_bar", "n_bar"), ("E", "energy"), ("E_over_M", "e_over_m"),
                     ("is_special", "is_special"), ("bound_flag", "bound"))


def run_spectrum(cfg: RunConfig) -> dict[str, list]:
    """The level table, as columns; --conjugate emits the antifermion
    spectrum E^c = -E of the sign-flipped potential, which mirrors the
    original in kappa_bar with n_bar preserved."""
    params = ModelParams(cfg.mass, cfg.a, cfg.b)
    if params.b == 0.0:
        raise UsageError("b = 0: no channel binds, there is no bound spectrum to tabulate")
    branch = _BRANCH_NAME.get(cfg.branch)
    if branch is None:
        raise UsageError(f"branch must be plus, minus or both, got {cfg.branch!r}")
    kappas = _kappa_list(cfg)
    if cfg.conjugate:
        params = charge_conjugate(params)
        kappas = sorted(-k for k in kappas)
        branch = _FLIP[branch]
    levels = spectrum(params, kappas, cfg.n_max, branch)
    if not levels["kappa"]:
        raise UsageError(
            f"nothing selected: kappa in [{cfg.kappa_min}, {cfg.kappa_max}] with n <= {cfg.n_max} "
            f"has no level on the {cfg.branch} branch (the n = 0 edge level lies on one branch only)"
        )
    table = {name: levels[key] for name, key in _SPECTRUM_COLUMNS}
    if cfg.conjugate:
        for name in ("E", "E_over_M"):
            table[name] = [None if e is None else -e for e in table[name]]
    return table


def run_fig3(cfg: RunConfig) -> dict[str, list]:
    """Levels at fixed node number as a function of kappa for several Coulomb
    strengths, as columns; combinations outside the binding window are
    flagged, not dropped."""
    if cfg.b == 0:
        raise UsageError("b = 0: no channel binds")
    if not cfg.a_values:
        raise UsageError("--a-values is empty: give at least one Coulomb strength")
    table = {"a": [], "kappa": [], "kappa_bar": [], "E_over_M": [], "bound_flag": []}
    lo, hi = cfg.kappa_bar_min, cfg.kappa_bar_max
    n_g = cfg.n
    if n_g < 1:
        raise UsageError("the level index for this table must be >= 1 (n = 0 is the |E| = M edge)")
    for a in cfg.a_values:
        params = ModelParams(cfg.mass, a, cfg.b)
        k_first = math.ceil(lo - a - 1e-9)
        k_last = math.floor(hi - a + 1e-9)
        channels = [Channel.from_kappa(k, a) for k in range(k_first, k_last + 1) if k != 0]
        bound = [bound_states_exist(params, channel) for channel in channels]
        kappa_bar = np.array([c.kappa_bar for c, binds in zip(channels, bound) if binds])
        # |E| = +E on the particle branch; no arithmetic when nothing binds
        e_over_m = iter((_magnitudes(params, kappa_bar, n_g)[1] / params.mass).tolist()
                        if kappa_bar.size else ())
        table["a"] += [a] * len(channels)
        table["kappa"] += [c.kappa for c in channels]
        table["kappa_bar"] += [c.kappa_bar for c in channels]
        table["E_over_M"] += [next(e_over_m) if binds else None for binds in bound]
        table["bound_flag"] += bound
    if not table["a"]:
        raise UsageError(f"no kappa != 0 with kappa_bar in [{lo}, {hi}] for a in {cfg.a_values}")
    return table


def run_wavefunction(cfg: RunConfig) -> tuple[dict[str, list], dict]:
    """The sampled r, g and f columns plus a metadata header for one level.

    The level index n counts upper-component nodes; n = 0 with
    kappa_bar < -1/2 is the special E = M state.  The mirror special state of
    the kappa_bar > 1/2 family (zero upper component) is selected with
    --special.
    """
    if cfg.kappa is None:
        raise UsageError("wavefunction needs --kappa")
    params = ModelParams(cfg.mass, cfg.a, cfg.b)
    channel = Channel.from_kappa(cfg.kappa, cfg.a)
    branch = _BRANCH_NAME.get(cfg.branch)
    if branch not in ("particle", "antiparticle"):
        raise UsageError("wavefunction needs --branch plus or minus")
    kb = channel.kappa_bar
    if cfg.special:
        if kb < 0:
            raise UsageError("--special selects the zero-upper-component state, which "
                             "lives on the kappa_bar > 1/2 side; for kappa_bar < -1/2 use --n 0")
        state = special_state(params, channel)
    elif kb < -0.5 and cfg.n == 0:
        state = special_state(params, channel)
    else:
        state = bound_state(params, channel, cfg.n, branch)
    r_lo = cfg.r_min if cfg.r_min is not None else 1e-7 / state.gamma
    r_hi = cfg.r_max if cfg.r_max is not None else 30.0 / state.gamma
    if not (0 < r_lo < r_hi and math.isfinite(r_hi)):
        raise UsageError(f"bad radial window [{r_lo}, {r_hi}]")
    if cfg.points < 2:
        raise UsageError(f"--points must be at least 2, got {cfg.points}")
    if cfg.grid == "log":
        r = np.geomspace(r_lo, r_hi, cfg.points)
    elif cfg.grid == "linear":
        r = np.linspace(r_lo, r_hi, cfg.points)
    else:
        raise UsageError("grid must be log or linear")
    forms = state_wavefunctions(params, state)
    g, f = (form(r) for form in forms)
    meta = {
        "mass": params.mass,
        "a": params.a,
        "b": params.b,
        "kappa": channel.kappa,
        "kappa_bar": kb,
        "n_g": state.n_g,
        "n_f": state.n_f,
        "branch": state.branch,
        "energy": state.energy,
        "gamma": state.gamma,
        "node_count_g": count_sign_changes(g),
        "node_count_f": count_sign_changes(f),
        "norm": norm_quadrature(*forms),
    }
    return {"r": r.tolist(), "g": g.tolist(), "f": f.tolist()}, meta


@dataclass
class VerifyRow:
    """One row of the verify table; the fields are its columns, in order."""

    check: Optional[str] = None
    b: Optional[float] = None
    a: Optional[float] = None
    kappa: Optional[int] = None
    kappa_bar: Optional[float] = None
    n: Optional[int] = None
    e_analytic: Optional[float] = None
    e_shoot: Optional[float] = None
    delta_e: Optional[float] = None
    residual: Optional[float] = None
    node_ok: Optional[bool] = None
    passed: Optional[bool] = None


# relative half-width and RK4 fineness of the edge-level bracket.  The row
# reads both components' tails: a level between the two marches flips both,
# but at the wrong sign of E, where the coupling M + E or M - E vanishes, the
# component scaled by that coupling flips its tiny tail with no level there
_EDGE_DELTA = 1e-9
_EDGE_FINENESS = 0.1


def verification_grid_rows(
    mass: float,
    b_values,
    a_values,
    kappas,
    n_max: int,
    inject_energy_error: float = 0.0,
) -> tuple[list[VerifyRow], int, int, int, int]:
    """One verification row per (b, a, kappa, level) state, with the Numerov
    sweeps, Numerov steps and Newton steps the shooting oracle took over all
    of them and the RK4 steps of the edge-state brackets.

    Each row compares the closed-form energy against the shooting eigenvalue
    (acceptance criterion 1: |dE| <= 1e-7), shot from the channel's ladder
    of estimates, one Sturm-count pencil for levels 0..n_max.  It recounts
    nodes from the wavefunctions sampled out to where their tail has fallen
    e^(-30) below its peak, checks the energy window M <= |E| < M*, and
    measures the worst relative residual of the radial equations.
    Each channel's |E| = M edge level also gets a ``zero_component`` row: a
    bracket of relative half-width ``_EDGE_DELTA`` (its ``delta_e``) around
    sign(E) (|E| + ``inject_energy_error``), marched at ``_EDGE_FINENESS``.
    """
    rows = []
    sweeps = steps = newton_steps = rk4_steps = 0
    r_residual = np.geomspace(0.01, 30.0, 120)
    for b in b_values:
        for a in a_values:
            params = ModelParams(mass, a, b)
            for kappa in kappas:
                channel = Channel.from_kappa(kappa, a)
                if not bound_states_exist(params, channel):
                    continue
                kb = channel.kappa_bar
                mstar = params.effective_mass
                ladder = _pencil_levels(params, channel, "upper", range(n_max + 1))
                for level, estimate in enumerate(ladder):
                    state = bound_state(params, channel, level)
                    e_analytic = abs(state.energy) + inject_energy_error
                    shot = solve_bound_level(params, channel, "upper", level, estimate=estimate)
                    sweeps += shot.sweeps
                    steps += shot.steps
                    newton_steps += shot.newton_steps
                    delta = abs(e_analytic - shot.energy_pair[0])
                    r_box = box_radius(state.gamma, abs(params.b * kb) / state.gamma, 30.0)
                    r_nodes = np.geomspace(1e-6 / state.gamma, r_box, 2400)
                    forms = state_wavefunctions(params, state)
                    node_ok = all(count_sign_changes(form(r_nodes)) == (expected or 0)
                                  for form, expected in zip(forms, (state.n_g, state.n_f)))
                    window_ok = mass <= abs(state.energy) < mstar
                    residual = residuals(params, state, forms, r_residual)
                    passed = delta <= 1e-7 and node_ok and window_ok and residual < 1e-8
                    rows.append(VerifyRow(
                        check="special" if state.is_special else "oracle", b=b, a=a, kappa=kappa,
                        kappa_bar=kb, n=level, e_analytic=e_analytic,
                        e_shoot=shot.energy_pair[0], delta_e=delta, residual=residual,
                        node_ok=node_ok, passed=bool(passed),
                    ))
                # blind bracket of the edge level: both marches must grow, and the
                # tails at r_max of both components change sign between them only
                # if a level lies in between
                edge = special_state(params, channel).energy
                centre = math.copysign(abs(edge) + inject_energy_error, edge)
                tails, growing = [], True
                for side in (1.0 - _EDGE_DELTA, 1.0 + _EDGE_DELTA):
                    samp, rep = integrate_first_order(
                        params, channel, centre * side, sample_count=2, fineness=_EDGE_FINENESS
                    )
                    tails.append((samp.g[-1], samp.f[-1]))
                    rk4_steps += rep.steps
                    growing = growing and rep.classification == "growing"
                rows.append(VerifyRow(
                    check="zero_component", b=b, a=a, kappa=kappa, kappa_bar=kb, n=0,
                    e_analytic=centre, delta_e=_EDGE_DELTA * abs(centre),
                    passed=growing and all(count_sign_changes(tail) == 1 for tail in zip(*tails)),
                ))
    return rows, sweeps, steps, newton_steps, rk4_steps


def _no_binding_rows(mass, a_values, kappas, n_max: int) -> list[VerifyRow]:
    """b = 0 sweep: shooting must find no square-integrable state with |E| < M
    and at most ``n_max`` nodes."""
    rows = []
    for a in a_values:
        params = ModelParams(mass, a, 0.0)
        for kappa in kappas:
            channel = Channel.from_kappa(kappa, a)
            kb = channel.kappa_bar
            found = None
            if abs(kb) > 0.5:
                config = ShootingConfig(
                    r_min=1e-6 / mass,
                    r_max=60.0 / mass,
                    step_count=4000,
                    lambda_bracket=(-0.99 * mass * mass, -1e-4 * mass * mass),
                    tolerance=1e-9,
                )
                for node_target in range(n_max + 1):
                    try:
                        found = shoot_eigenvalue(params, channel, "upper", node_target, config)
                        break
                    except NoBracketError:
                        continue
            rows.append(VerifyRow(
                check="no_binding", b=0.0, a=a, kappa=kappa, kappa_bar=kb,
                e_shoot=None if found is None else found.energy_pair[0], passed=found is None,
            ))
    return rows


def run_verification(cfg: RunConfig) -> tuple[list[VerifyRow], str]:
    """The verify table and its summary line.  An a or b of None selects
    that parameter's default grid."""
    kappas = _kappa_list(cfg)
    if cfg.n_max < 0:
        raise UsageError("n_max must be nonnegative")
    if cfg.b == 0.0:
        a_values = (0.0, 0.5, -0.5) if cfg.a is None else (cfg.a,)
        rows = _no_binding_rows(cfg.mass, a_values, kappas, cfg.n_max)
        summary = f"b = 0 sweep over {len(rows)} channels: no bound states expected"
        return rows, summary
    b_values = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0) if cfg.b is None else (cfg.b,)
    a_values = (0.0, 0.5, -0.5, 2.0, -2.0) if cfg.a is None else (cfg.a,)
    rows, sweeps, steps, newton_steps, rk4_steps = verification_grid_rows(
        cfg.mass, b_values, a_values, kappas, cfg.n_max,
        inject_energy_error=cfg.inject_energy_error,
    )
    if not rows:
        raise UsageError(
            "no channel of the grid binds (bound states need b*kappa_bar < 0 and "
            "|kappa_bar| > 1/2): there is nothing to verify"
        )
    oracle_rows = [r for r in rows if r.check in ("oracle", "special")]
    max_delta = max((r.delta_e for r in oracle_rows), default=0.0)
    n_fail = sum(1 for r in rows if not r.passed)
    summary = (
        f"verified {len(oracle_rows)} states "
        f"({len(rows) - len(oracle_rows)} zero-component checks): "
        f"max |dE| = {max_delta:.3e}, failures = {n_fail}; "
        f"shooting took {sweeps} Numerov sweeps ({steps} Numerov steps) and "
        f"{newton_steps} Newton steps; "
        f"edge-state integration took {rk4_steps} RK4 steps"
    )
    return rows, summary


def float_list(text: str) -> tuple:
    """A comma-separated list of floats, as --a-values takes: () when every
    part is blank, and a usage error when only some are."""
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        return ()
    if not all(parts):
        raise UsageError(f"--a-values has an empty entry in {text!r}")
    return tuple(float(part) for part in parts)


@functools.cache
def _field_types() -> dict:
    """The type each RunConfig field's values convert to: its annotation,
    Optional[X] read as X."""
    types = {}
    for name, hint in get_type_hints(RunConfig).items():
        inner = [t for t in get_args(hint) if t is not type(None)]
        types[name] = inner[0] if inner else hint
    return types


def _fields_read_by(command: str) -> list:
    return [f for f in fields(RunConfig) if command in f.metadata["reads"]]


def load_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment.

    Keys are RunConfig field names, with '-' read as '_': ``output_format=json``,
    not the flag name ``format``.  Each value is converted to the type its
    field is annotated with (Optional[X] read as X).
    """
    types = _field_types()
    values = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key, raw = key.strip().replace("-", "_"), raw.strip()
        kind = types.get(key)
        if kind is None:
            raise UsageError(f"unknown config key {key!r}")
        if kind is bool:
            if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise UsageError(f"boolean expected for {key}, got {raw!r}")
            values[key] = raw.lower() in ("1", "true", "yes")
        elif kind is tuple:
            values[key] = float_list(raw)
        else:
            values[key] = kind(raw)
    return values


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag starts with a minus and a digit: -1e-12 and -1,2 are values
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process from the RunConfig fields:
    each subcommand takes the flags of the fields it reads, --preset where
    it has presets, and --config.  Parsing leaves it unchanged: every default
    is None and each parse returns a fresh Namespace."""
    parser = _Parser(
        prog="diractensor",
        description="Bound states of the Dirac equation with tensor potential a/r + b",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    types = _field_types()
    for command, help_text in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=help_text, allow_abbrev=False)
        for f in _fields_read_by(command):
            meta, kind = f.metadata, types[f.name]
            flag = "--" + (meta["flag"] or f.name.replace("_", "-"))
            if kind is bool:
                sub.add_argument(flag, dest=f.name, action="store_true", default=None,
                                 help=meta["help"])
            else:
                sub.add_argument(flag, dest=f.name, type=float_list if kind is tuple else kind,
                                 choices=meta["choices"], default=None, help=meta["help"])
        if command in PRESETS:
            sub.add_argument("--preset", choices=tuple(PRESETS[command]), default=None)
        sub.add_argument("--config", default=None, help="flat key=value file; flags override it")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The run's config.

    Merge precedence: RunConfig defaults < the subcommand's defaults < config
    file < preset < flags.  A config key the subcommand does not read is a
    usage error, as its flag would be.
    """
    flags = dict(vars(args))
    command, config, preset = flags.pop("command"), flags.pop("config"), flags.pop("preset", None)
    merged = dict(_COMMAND_DEFAULTS.get(command, {}))
    from_file = load_config_file(config) if config else {}
    foreign = set(from_file) - {f.name for f in _fields_read_by(command)}
    if foreign:
        raise UsageError(f"the {command} subcommand reads no config key {sorted(foreign)}")
    merged.update(from_file)
    if preset:
        merged.update(PRESETS[command][preset])
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help lands here with code 0
            return int(exc.code or 0)
        cfg = _resolve_config(args)
        if args.command == "spectrum":
            _emit(run_spectrum(cfg), cfg.output_format, cfg.out)
        elif args.command == "fig3":
            _emit(run_fig3(cfg), cfg.output_format, cfg.out)
        elif args.command == "wavefunction":
            table, meta = run_wavefunction(cfg)
            _emit(table, cfg.output_format, cfg.out, meta=meta)
        elif args.command == "verify":
            rows, summary = run_verification(cfg)
            table = {f.name: [getattr(row, f.name) for row in rows] for f in fields(VerifyRow)}
            _emit(table, cfg.output_format, cfg.out)
            print(summary, file=sys.stderr)
            if any(not row.passed for row in rows):
                raise VerificationFailure(summary)
        return 0
    except (UsageError, ValueError) as exc:  # UnboundChannelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1
    except (VerificationFailure, ShootingError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
