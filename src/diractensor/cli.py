"""Command-line front end: spectrum tables, wavefunction samples, figure
datasets and the verification matrix, which checks each closed-form level
once, by the oracle that resolves it: Numerov shooting for the regular
levels, a first-order RK4 bracket for the |E| = M edge levels.

Output is data-level (CSV or JSON tables), deterministic byte for byte:
floats are written in shortest round-trip form, rows in a fixed order.  Every
command builds its table as columns, a dict of column name to values
(``verify`` appends each of its rows to them, naming only the cells it
fills), and the CSV writer formats each column once and joins the cells
into rows; it quotes as the csv module's minimal quoting does, without the
csv module.
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
    _require_resolved,
    bound_state,
    charge_conjugate,
    default_radial_grid,
    norm_quadrature,
    residuals,
    sample_state,
    special_state,
    spectrum,
    state_wavefunctions,
)
from .core import Channel, ModelParams, _require_finite, bound_states_exist
from .oracle import (
    ShootingError,
    _MAX_FINENESS,
    _march_first_order,
    _pencil_levels,
    count_sign_changes,
    solve_bound_level,
)

__all__ = [
    "RunConfig",
    "UsageError",
    "main",
    "entry_point",
    "run_spectrum",
    "run_fig3",
    "run_wavefunction",
    "run_verification",
    "verification_grid_rows",
    "PRESETS",
]


class UsageError(Exception):
    """Bad flags, bad config file, or a request no parameter set can satisfy."""


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
    else:
        rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
        payload = {"meta": meta, "rows": rows} if meta else rows
        text = json.dumps(payload, indent=2) + "\n"
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
    if not cfg.a_values:
        raise UsageError("--a-values is empty: give at least one Coulomb strength")
    _require_finite("--kappa-bar-min", cfg.kappa_bar_min)
    _require_finite("--kappa-bar-max", cfg.kappa_bar_max)
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
        kappa_bar = np.array([_require_resolved(params, c) for c, ok in zip(channels, bound) if ok])
        # |E| = +E on the particle branch (M* != M checked above); no arithmetic when nothing binds
        e_over_m = iter(_magnitudes(params, kappa_bar, n_g)[2].tolist() if kappa_bar.size else ())
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
    lo, hi = default_radial_grid(state, 2)  # the ends of the state's extent
    r_lo = cfg.r_min if cfg.r_min is not None else lo
    r_hi = cfg.r_max if cfg.r_max is not None else hi
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
    samples = sample_state(params, state, r)
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
        "node_count_g": samples.node_count_g,
        "node_count_f": samples.node_count_f,
        "norm": norm_quadrature(*state_wavefunctions(params, state)),
    }
    return {"r": r.tolist(), "g": samples.g.tolist(), "f": samples.f.tolist()}, meta


# the columns of the verify table, in order
_VERIFY_COLUMNS = ("check", "b", "a", "kappa", "kappa_bar", "n", "e_analytic", "e_shoot",
                   "delta_e", "residual", "passed")


def _add_row(table: dict[str, list], **cells) -> None:
    """Append one row to a table of columns; a column it does not name gets None."""
    for name, column in table.items():
        column.append(cells.get(name))


# relative half-width of the edge-level bracket.  The row reads both
# components' tails: a level between the two marches flips both, but at the
# wrong sign of E, where the coupling M + E or M - E vanishes, the component
# scaled by that coupling flips its tiny tail with no level there
_EDGE_DELTA = 1e-9


def verification_grid_rows(
    mass: float,
    b_values,
    a_values,
    kappas,
    n_max: int,
    inject_energy_error: float = 0.0,
) -> tuple[dict[str, list], dict[str, int]]:
    """The verify table, as columns, and its work: the ``pencil_points`` of
    the channels' estimates, the Numerov ``sweeps``, Numerov ``steps`` and
    ``newton_steps`` of the shots and the ``rk4_steps`` of the edge brackets.
    Each level is checked once, by one oracle.

    An ``oracle`` row per regular level compares the closed-form energy with
    the shooting eigenvalue (acceptance criterion 1: |dE| <= 1e-7), shot from
    the channel's ladder of estimates, one Sturm-count pencil for levels
    0..n_max.  Each channel's |E| = M edge level, in either family, gets a
    ``zero_component`` row: a bracket of relative half-width ``_EDGE_DELTA``
    (its ``delta_e``) around sign(E) (|E| + ``inject_energy_error``), both
    ends marched in one scan at the coarsest fineness, ``_MAX_FINENESS``.
    At |E| = M every RK4 step matrix is exactly triangular whatever its size,
    so the discrete edge level lies at exactly +/-M, where a shot at
    lambda = -b^2 misses it by b^2 times its relative error.  Every row also
    checks the worst relative residual of the radial equations (< 1e-8),
    which fails a closed form of the wrong shape or node law.
    """
    table = {name: [] for name in _VERIFY_COLUMNS}
    work = dict.fromkeys(("pencil_points", "sweeps", "steps", "newton_steps", "rk4_steps"), 0)
    r_grid = np.geomspace(0.01, 30.0, 120)  # of the residuals
    for b in b_values:
        for a in a_values:
            params = ModelParams(mass, a, b)
            for kappa in kappas:
                channel = Channel.from_kappa(kappa, a)
                if not bound_states_exist(params, channel):
                    continue
                kb = channel.kappa_bar
                ladder, points = _pencil_levels(params, channel, "upper", range(n_max + 1))
                work["pencil_points"] += points
                for level, estimate in enumerate(ladder):
                    state = bound_state(params, channel, level)
                    if state.is_special:
                        continue  # the edge level is the bracket's, below
                    e_analytic = abs(state.energy) + inject_energy_error
                    shot = solve_bound_level(params, channel, "upper", level, estimate=estimate)
                    for key in ("sweeps", "steps", "newton_steps"):
                        work[key] += getattr(shot, key)
                    delta = abs(e_analytic - shot.energy_pair[0])
                    residual = residuals(params, state, r_grid)
                    passed = delta <= 1e-7 and mass <= abs(state.energy) and residual < 1e-8
                    _add_row(
                        table, check="oracle", b=b, a=a, kappa=kappa, kappa_bar=kb, n=level,
                        e_analytic=e_analytic, e_shoot=shot.energy_pair[0], delta_e=delta,
                        residual=residual, passed=bool(passed),
                    )
                # blind bracket of the edge level: both marches must grow, and the
                # tails at r_max of both components change sign between them only
                # if a level lies in between
                edge = special_state(params, channel)
                centre = math.copysign(abs(edge.energy) + inject_energy_error, edge.energy)
                marches = _march_first_order(
                    params, channel, (centre * (1.0 - _EDGE_DELTA), centre * (1.0 + _EDGE_DELTA)),
                    sample_count=2, fineness=_MAX_FINENESS,
                )
                tails = [(samp.g[-1], samp.f[-1]) for samp, _ in marches]
                work["rk4_steps"] += sum(rep.steps for _, rep in marches)
                bracketed = (all(rep.classification == "growing" for _, rep in marches)
                             and all(count_sign_changes(tail) == 1 for tail in zip(*tails)))
                residual = residuals(params, edge, r_grid)
                _add_row(
                    table, check="zero_component", b=b, a=a, kappa=kappa, kappa_bar=kb, n=0,
                    e_analytic=centre, delta_e=_EDGE_DELTA * abs(centre), residual=residual,
                    passed=bracketed and residual < 1e-8,
                )
    return table, work


def run_verification(cfg: RunConfig) -> tuple[dict[str, list], str]:
    """The verify table, as columns, and its summary line.  An a or b of
    None selects that parameter's default grid."""
    kappas = _kappa_list(cfg)
    if cfg.n_max < 0:
        raise UsageError("n_max must be nonnegative")
    _require_finite("--inject-energy-error", cfg.inject_energy_error)
    b_values = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0) if cfg.b is None else (cfg.b,)
    a_values = (0.0, 0.5, -0.5, 2.0, -2.0) if cfg.a is None else (cfg.a,)
    table, work = verification_grid_rows(
        cfg.mass, b_values, a_values, kappas, cfg.n_max,
        inject_energy_error=cfg.inject_energy_error,
    )
    if not table["check"]:
        raise UsageError(
            "no channel of the grid binds (bound states need b*kappa_bar < 0 and "
            "|kappa_bar| > 1/2): there is nothing to verify"
        )
    deltas = [delta for check, delta in zip(table["check"], table["delta_e"]) if check == "oracle"]
    summary = (
        f"verified {len(deltas)} shot and {len(table['check']) - len(deltas)} bracketed levels: "
        f"max |dE| = {max(deltas, default=0.0):.3e}, failures = {table['passed'].count(False)}; "
        f"the pencils had {work['pencil_points']} points; "
        f"shooting took {work['sweeps']} Numerov sweeps ({work['steps']} Numerov steps) and "
        f"{work['newton_steps']} Newton steps; "
        f"edge-state integration took {work['rk4_steps']} RK4 steps"
    )
    return table, summary


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


def _flag(f) -> str:
    return "--" + (f.metadata["flag"] or f.name.replace("_", "-"))


def load_config_file(path: str) -> list[str]:
    """The flags that flat key=value text names; '#' starts a comment.

    Keys are RunConfig field names, with '-' read as '_': ``output_format=json``,
    not the flag name ``format``.  A line becomes ``--flag=value``; a boolean
    key's 1, true or yes becomes its bare flag, and 0, false or no nothing.
    """
    by_name = {f.name: f for f in fields(RunConfig)}
    argv = []
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
        if key not in by_name:
            raise UsageError(f"unknown config key {key!r}")
        if _field_types()[key] is not bool:
            argv.append(f"{_flag(by_name[key])}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            argv.append(_flag(by_name[key]))
        elif raw.lower() not in ("0", "false", "no"):
            raise UsageError(f"boolean expected for {key}, got {raw!r}")
    return argv


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
            if kind is bool:
                sub.add_argument(_flag(f), dest=f.name, action="store_true", default=None,
                                 help=meta["help"])
            else:
                sub.add_argument(_flag(f), dest=f.name, type=float_list if kind is tuple else kind,
                                 choices=meta["choices"], default=None, help=meta["help"])
        if command in PRESETS:
            sub.add_argument("--preset", choices=tuple(PRESETS[command]), default=None)
        sub.add_argument("--config", default=None, help="flat key=value file; flags override it")
    return parser


def _set_fields(args: argparse.Namespace) -> dict:
    """The RunConfig fields a parse of one subcommand's flags set."""
    return {f.name: getattr(args, f.name) for f in _fields_read_by(args.command)
            if getattr(args, f.name) is not None}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The run's config.

    Merge precedence: RunConfig defaults < the subcommand's defaults < config
    file < preset < flags.  The subcommand's parser reads the config file's
    flags as it reads argv's, and b = 0, where nothing binds, is a usage error.
    """
    merged = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        flags = load_config_file(args.config)
        try:
            from_file = build_parser().parse_args([args.command, *flags])
        except UsageError as exc:
            raise UsageError(f"{args.config}: {exc}") from exc
        merged.update(_set_fields(from_file))
    if getattr(args, "preset", None):
        merged.update(PRESETS[args.command][args.preset])
    merged.update(_set_fields(args))
    if merged.get("b") == 0:
        raise UsageError("b = 0: the window M <= |E| < M* is empty, and no channel binds")
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
            table, summary = run_verification(cfg)
            _emit(table, cfg.output_format, cfg.out)
            print(summary, file=sys.stderr)
            if not all(table["passed"]):
                print(f"verification failed: {summary}", file=sys.stderr)
                return 2
        return 0
    except (UsageError, ValueError) as exc:  # UnboundChannelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ShootingError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
