"""Command-line front end: spectrum tables, wavefunction samples, figure
datasets and the analytic-vs-numeric verification matrix.

Output is data-level (CSV or JSON tables), deterministic byte for byte:
floats are written in shortest round-trip form, rows in a fixed order.
Exit codes: 0 success, 1 usage error or numeric overflow, 2 verification
failure, including a level the shooting oracle could not solve.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np

from .analytic import (
    bound_state,
    charge_conjugate,
    energy,
    no_bound_states,
    norm_quadrature,
    sample_state,
    special_state,
    spectrum,
    state_wavefunctions,
)
from .core import Channel, ModelParams, UnboundChannelError, bound_states_exist
from .oracle import (
    NoBracketError,
    ShootingConfig,
    ShootingError,
    effective_potential,
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


@dataclass
class RunConfig:
    mass: float = 1.0
    a: float = 0.0
    b: float = 1.0
    kappa_min: int = -10
    kappa_max: int = -1
    n_max: int = 4
    branch: str = "plus"
    output_format: str = "csv"
    out: Optional[str] = None
    conjugate: bool = False
    # wavefunction options
    kappa: Optional[int] = None
    n: int = 0
    special: bool = False
    r_min: Optional[float] = None
    r_max: Optional[float] = None
    points: int = 600
    grid: str = "log"
    # fig3 options
    a_values: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    kappa_bar_min: float = -10.0
    kappa_bar_max: float = -0.5
    # verify options
    tolerance: float = 1e-7
    inject_energy_error: float = 0.0
    b_values: Optional[tuple] = None
    a_grid: Optional[tuple] = None
    step_count: int = 6000


PRESETS = {
    "fig1": dict(
        command="spectrum", mass=1.0, a=0.0, b=1.0, kappa_min=-10, kappa_max=-1,
        n_max=4, branch="plus", conjugate=False,
    ),
    "fig2": dict(
        command="spectrum", mass=1.0, a=0.0, b=1.0, kappa_min=-10, kappa_max=-1,
        n_max=4, branch="plus", conjugate=True,
    ),
    "fig3a": dict(
        command="fig3", mass=1.0, b=1.0, n=1,
        a_values=(-2.0, -1.0, 0.0, 1.0, 2.0), kappa_bar_min=-10.0, kappa_bar_max=-0.5,
    ),
    "fig3b": dict(
        command="fig3", mass=1.0, b=-1.0, n=1,
        a_values=(-2.0, -1.0, 0.0, 1.0, 2.0), kappa_bar_min=0.5, kappa_bar_max=10.0,
    ),
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows: list[dict], fmt: str, out: Optional[str], meta: Optional[dict] = None) -> str:
    """Render rows (and optional metadata header) to CSV or JSON text."""
    if fmt == "csv":
        buf = io.StringIO()
        if meta:
            for key, value in meta.items():
                buf.write(f"# {key}={_format_cell(value)}\n")
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_format_cell(v) for v in row.values()])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {"meta": meta, "rows": rows} if meta else rows
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise UsageError(f"unknown output format {fmt!r} (use csv or json)")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _kappa_list(cfg: RunConfig) -> list[int]:
    if cfg.kappa_min > cfg.kappa_max:
        raise UsageError(f"empty kappa range [{cfg.kappa_min}, {cfg.kappa_max}]")
    return [k for k in range(cfg.kappa_min, cfg.kappa_max + 1) if k != 0]


def run_spectrum(cfg: RunConfig) -> list[dict]:
    """Rows for the level table; --conjugate emits the antifermion spectrum
    E^c = -E of the sign-flipped potential, which mirrors the original in
    kappa_bar with n_bar preserved."""
    params = ModelParams(cfg.mass, cfg.a, cfg.b)
    if no_bound_states(params):
        raise UsageError("b = 0: no channel binds, there is no bound spectrum to tabulate")
    branch = _BRANCH_NAME.get(cfg.branch)
    if branch is None:
        raise UsageError(f"branch must be plus, minus or both, got {cfg.branch!r}")
    kappas = _kappa_list(cfg)
    sign = 1.0
    if cfg.conjugate:
        params = charge_conjugate(params)
        kappas = sorted(-k for k in kappas)
        branch = _FLIP[branch]
        sign = -1.0
    rows = []
    for row in spectrum(params, kappas, cfg.n_max, branch):
        e = None if row.energy is None else sign * row.energy
        rows.append(
            {
                "kappa": row.kappa,
                "kappa_bar": row.kappa_bar,
                "n_g": row.n_g,
                "n_f": row.n_f,
                "n_bar": row.n_bar,
                "E": e,
                "E_over_M": None if e is None else e / params.mass,
                "is_special": row.is_special,
                "bound_flag": row.bound,
            }
        )
    return rows


def run_fig3(cfg: RunConfig) -> list[dict]:
    """Levels at fixed node number as a function of kappa for several Coulomb
    strengths; combinations outside the binding window are flagged, not
    dropped."""
    if cfg.b == 0:
        raise UsageError("b = 0: no channel binds")
    rows = []
    lo, hi = cfg.kappa_bar_min, cfg.kappa_bar_max
    n_g = cfg.n
    if n_g < 1:
        raise UsageError("the level index for this table must be >= 1 (n = 0 is the |E| = M edge)")
    for a in cfg.a_values:
        params = ModelParams(cfg.mass, a, cfg.b)
        k_first = math.ceil(lo - a - 1e-9)
        k_last = math.floor(hi - a + 1e-9)
        for kappa in range(k_first, k_last + 1):
            if kappa == 0:
                continue
            channel = Channel.from_kappa(kappa, a)
            bound = bound_states_exist(params, channel)
            e_over_m = energy(params, channel, n_g) / params.mass if bound else None
            rows.append(
                {
                    "a": a,
                    "kappa": kappa,
                    "kappa_bar": channel.kappa_bar,
                    "E_over_M": e_over_m,
                    "bound_flag": bound,
                }
            )
    return rows


def run_wavefunction(cfg: RunConfig) -> tuple[list[dict], dict]:
    """Sampled (r, g, f) columns plus a metadata header for one level.

    The level index n counts upper-component nodes; n = 0 with
    kappa_bar < -1/2 is the special E = M state.  The mirror special state of
    the kappa_bar > 1/2 family (zero upper component) is selected with
    --special.
    """
    if cfg.kappa is None:
        raise UsageError("wavefunction needs --kappa")
    params = ModelParams(cfg.mass, cfg.a, cfg.b)
    channel = Channel.from_kappa(cfg.kappa, cfg.a)
    if not bound_states_exist(params, channel):
        raise UsageError(
            f"channel kappa={cfg.kappa} (kappa_bar={channel.kappa_bar}) does not bind "
            f"for b={cfg.b}: bound states need b*kappa_bar < 0 and |kappa_bar| > 1/2"
        )
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
    if not 0 < r_lo < r_hi:
        raise UsageError(f"bad radial window [{r_lo}, {r_hi}]")
    if cfg.grid == "log":
        r = np.geomspace(r_lo, r_hi, cfg.points)
    elif cfg.grid == "linear":
        r = np.linspace(r_lo, r_hi, cfg.points)
    else:
        raise UsageError("grid must be log or linear")
    samples = sample_state(params, state, r)
    norm = norm_quadrature(*state_wavefunctions(params, state))
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
        "norm": norm,
    }
    rows = [
        {"r": float(rr), "g": float(gg), "f": float(ff)}
        for rr, gg, ff in zip(samples.r, samples.g, samples.f)
    ]
    return rows, meta


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


def _residual_scale(params, channel, state, r):
    """Max relative residual of the first- and second-order equations."""
    g_form, f_form = state_wavefunctions(params, state)
    g, f = g_form(r), f_form(r)
    dg, df = g_form.derivative(r), f_form.derivative(r)
    kb = channel.kappa_bar
    m, b, e = params.mass, params.b, state.energy
    scale = max(float(np.max(np.abs(g))), float(np.max(np.abs(f))))
    if scale == 0.0:
        return 0.0
    res1 = np.max(np.abs(dg + (kb / r + b) * g - (m + e) * f))
    res2 = np.max(np.abs(df - (kb / r + b) * f - (m - e) * g))
    lam = e * e - m * m - b * b
    v_up = effective_potential(params, channel, "upper")
    v_lo = effective_potential(params, channel, "lower")
    res3 = np.max(np.abs(g_form.second_derivative(r) - (v_up(r) - lam) * g))
    res4 = np.max(np.abs(f_form.second_derivative(r) - (v_lo(r) - lam) * f))
    return float(max(res1, res2, res3, res4)) / scale


def verification_grid_rows(
    mass: float,
    b_values,
    a_values,
    kappas,
    n_max: int,
    tolerance: float = 1e-7,
    inject_energy_error: float = 0.0,
    step_count: int = 6000,
) -> list[VerifyRow]:
    """One verification row per (b, a, kappa, level) state.

    Each row compares the closed-form energy against the shooting eigenvalue,
    recounts nodes from the sampled wavefunctions, checks the energy window
    M <= |E| < M*, and measures the worst relative residual of the radial
    equations.  Special |E| = M states additionally get their vanishing
    component verified by outward integration.
    """
    rows = []
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
                for level in range(n_max + 1):
                    is_special = kb < -0.5 and level == 0
                    if is_special:
                        state = special_state(params, channel)
                    else:
                        state = bound_state(params, channel, level, "particle")
                    e_analytic = abs(state.energy) + inject_energy_error
                    shot = solve_bound_level(
                        params, channel, "upper", level, step_count=step_count
                    )
                    delta = abs(e_analytic - shot.energy_pair[0])
                    samples = sample_state(
                        params, state, np.geomspace(1e-6 / state.gamma, 30.0 / state.gamma, 2400)
                    )
                    expected_f = 0 if state.n_f is None else state.n_f
                    node_ok = (
                        samples.node_count_g == (state.n_g or 0)
                        and samples.node_count_f == expected_f
                    )
                    window_ok = mass <= abs(state.energy) < mstar
                    residual = _residual_scale(params, channel, state, r_residual)
                    passed = delta <= tolerance and node_ok and window_ok and residual < 1e-8
                    rows.append(VerifyRow(
                        check="special" if is_special else "oracle", b=b, a=a, kappa=kappa,
                        kappa_bar=kb, n=level, e_analytic=e_analytic,
                        e_shoot=shot.energy_pair[0], delta_e=delta, residual=residual,
                        node_ok=node_ok, passed=bool(passed),
                    ))
                # vanishing-component check of the edge state by direct integration
                state = special_state(params, channel)
                samp, rep = integrate_first_order(
                    params, channel, state.energy, sample_count=240, fineness=2e-2
                )
                if kb < 0:
                    main_peak = float(np.max(np.abs(samp.g)))
                    zero_part = float(np.max(np.abs(samp.f)))
                else:
                    main_peak = float(np.max(np.abs(samp.f)))
                    zero_part = float(np.max(np.abs(samp.g)))
                ratio = zero_part / main_peak if main_peak > 0 else math.inf
                ok = ratio <= 1e-8 and rep.classification == "bound"
                rows.append(VerifyRow(
                    check="zero_component", b=b, a=a, kappa=kappa, kappa_bar=kb, n=0,
                    e_analytic=state.energy, residual=ratio, passed=bool(ok),
                ))
    return rows


def _no_binding_rows(mass, a_values, kappas) -> list[VerifyRow]:
    """b = 0 sweep: shooting must find no square-integrable state with |E| < M."""
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
                    match_point=1.0 / mass,
                    lambda_bracket=(-0.99 * mass * mass, -1e-4 * mass * mass),
                    tolerance=1e-9,
                )
                for node_target in range(3):
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


def run_verification(cfg: RunConfig, b_given: bool, a_given: bool) -> tuple[list[VerifyRow], str]:
    kappas = _kappa_list(cfg)
    if cfg.b == 0.0 and b_given:
        a_values = (cfg.a,) if a_given else (0.0, 0.5, -0.5)
        rows = _no_binding_rows(cfg.mass, a_values, kappas)
        summary = f"b = 0 sweep over {len(rows)} channels: no bound states expected"
        return rows, summary
    if cfg.n_max < 0:
        raise UsageError("n_max must be nonnegative")
    b_values = cfg.b_values or ((cfg.b,) if b_given else (0.5, 1.0, 2.0, -0.5, -1.0, -2.0))
    a_values = cfg.a_grid or ((cfg.a,) if a_given else (0.0, 0.5, -0.5, 2.0, -2.0))
    rows = verification_grid_rows(
        cfg.mass,
        b_values,
        a_values,
        kappas,
        cfg.n_max,
        tolerance=cfg.tolerance,
        inject_energy_error=cfg.inject_energy_error,
        step_count=cfg.step_count,
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
        f"max |dE| = {max_delta:.3e}, failures = {n_fail}"
    )
    return rows, summary


def float_list(text: str) -> tuple:
    """A comma-separated list of floats, as --a-values, --b-values and --a-grid take."""
    return tuple(float(part) for part in text.split(",") if part.strip())


def load_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment.

    Keys are RunConfig field names, with '-' read as '_': ``output_format=json``,
    not the flag name ``format``.  Each value is converted to the type its
    field is annotated with (Optional[X] read as X).
    """
    types = {}
    for name, hint in get_type_hints(RunConfig).items():
        inner = [t for t in get_args(hint) if t is not type(None)]
        types[name] = inner[0] if inner else hint
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
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--mass", type=float, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--kappa-min", type=int, default=None)
    sub.add_argument("--kappa-max", type=int, default=None)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--branch", choices=("plus", "minus", "both"), default=None)
    sub.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--preset", choices=tuple(PRESETS), default=None)
    sub.add_argument("--config", default=None, help="flat key=value file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="diractensor",
        description="Bound states of the Dirac equation with tensor potential a/r + b",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="level table (fig1/fig2 presets)")
    _add_common(sp)
    sp.add_argument("--conjugate", action="store_true", default=None,
                    help="emit the charge-conjugated (antifermion) spectrum")

    f3 = subs.add_parser("fig3", help="fixed-level energies vs kappa for several a")
    _add_common(f3)
    f3.add_argument("--n", type=int, default=None, help="upper-component node count (default 1)")
    f3.add_argument("--a-values", type=float_list, default=None,
                    help="comma-separated Coulomb strengths")
    f3.add_argument("--kappa-bar-min", type=float, default=None)
    f3.add_argument("--kappa-bar-max", type=float, default=None)

    wf = subs.add_parser("wavefunction", help="sampled radial components of one level")
    _add_common(wf)
    wf.add_argument("--kappa", type=int, default=None)
    wf.add_argument("--n", type=int, default=None, help="upper-component node count")
    wf.add_argument("--special", action="store_true", default=None,
                    help="the zero-upper-component edge state (kappa_bar > 1/2 side)")
    wf.add_argument("--r-min", type=float, default=None)
    wf.add_argument("--r-max", type=float, default=None)
    wf.add_argument("--points", type=int, default=None)
    wf.add_argument("--grid", choices=("log", "linear"), default=None)

    vf = subs.add_parser("verify", help="analytic vs shooting-oracle agreement matrix")
    _add_common(vf)
    vf.add_argument("--tolerance", type=float, default=None)
    vf.add_argument("--inject-energy-error", type=float, default=None,
                    help="test mode: offset analytic energies to prove failures are caught")
    vf.add_argument("--b-values", type=float_list, default=None,
                    help="comma-separated grid of b values")
    vf.add_argument("--a-grid", type=float_list, default=None,
                    help="comma-separated grid of a values")
    vf.add_argument("--step-count", type=int, default=None)

    return parser


_VERIFY_DEFAULTS = dict(kappa_min=-5, kappa_max=5)


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    """Merge precedence: dataclass defaults < config file < preset < flags."""
    merged: dict = {}
    if args.command == "verify":
        merged.update(_VERIFY_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(load_config_file(config_path))
    preset_name = getattr(args, "preset", None)
    if preset_name:
        preset = dict(PRESETS[preset_name])
        expected = preset.pop("command")
        if expected != args.command:
            raise UsageError(f"preset {preset_name} belongs to the {expected} subcommand")
        merged.update(preset)
    explicit = set()
    valid = {f.name for f in fields(RunConfig)}
    for key, value in vars(args).items():
        if key in ("command", "preset", "config") or value is None:
            continue
        if key not in valid:
            continue
        merged[key] = value
        explicit.add(key)
    unknown = set(merged) - valid
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return replace(RunConfig(), **merged), explicit


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help lands here with code 0
            return int(exc.code or 0)
        cfg, explicit = _resolve_config(args)
        if args.command == "spectrum":
            _emit(run_spectrum(cfg), cfg.output_format, cfg.out)
        elif args.command == "fig3":
            _emit(run_fig3(cfg), cfg.output_format, cfg.out)
        elif args.command == "wavefunction":
            rows, meta = run_wavefunction(cfg)
            _emit(rows, cfg.output_format, cfg.out, meta=meta)
        elif args.command == "verify":
            rows, summary = run_verification(cfg, "b" in explicit, "a" in explicit)
            _emit([vars(row) for row in rows], cfg.output_format, cfg.out)
            print(summary, file=sys.stderr)
            if any(not row.passed for row in rows):
                raise VerificationFailure(summary)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnboundChannelError, ValueError) as exc:
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
