import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diractensor
from diractensor import (
    Channel,
    ModelParams,
    NoBracketError,
    analytic,
    bound_state,
    bound_states_exist,
    charge_conjugate,
    cli,
    core,
    energy,
    oracle,
    solve_bound_level,
    special_state,
    spectrum,
)
from diractensor.cli import (
    RunConfig,
    build_parser,
    load_config_file,
    main,
    run_fig3,
    run_spectrum,
    run_wavefunction,
)


def run_cli(*argv):
    return main(list(argv))


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def row_view(table):
    """The rows of a table of columns, one dict per row."""
    return [dict(zip(table, cells)) for cells in zip(*table.values())]


def reference_csv(rows, meta):
    """The row-by-row, cell-by-cell csv.writer output that column-wise output must match."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return float.__repr__(value)
        return str(value)

    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={cell(value)}\n")
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([cell(v) for v in row.values()])
    return buf.getvalue()


def reference_spectrum(params, kappas, n_max, branch):
    """The level table row by row: one special_state per binding channel and
    one bound_state per level and branch, as dicts keyed like the columns of
    analytic.spectrum, sorted by the documented key (|kappa_bar|, kappa_bar,
    n_bar or -1, branch or "")."""
    branches = ("particle", "antiparticle") if branch == "both" else (branch,)
    rows = []
    for kappa in kappas:
        channel = Channel.from_kappa(kappa, params.a)
        row = dict(kappa=channel.kappa, kappa_bar=channel.kappa_bar, n_g=None, n_f=None,
                   n_bar=None, energy=None, e_over_m=None, branch=None, is_special=False,
                   bound=False)
        if not bound_states_exist(params, channel):
            rows.append(row)
            continue
        states = [special_state(params, channel)]
        for level in range(1, n_max + 1):
            n_g = level if channel.kappa_bar < -0.5 else level - 1
            states += [bound_state(params, channel, n_g, br) for br in branches]
        rows += [{**row, "n_g": state.n_g, "n_f": state.n_f, "n_bar": state.n_bar,
                  "energy": state.energy, "e_over_m": state.energy / params.mass,
                  "branch": state.branch, "is_special": state.is_special, "bound": True}
                 for state in states if state.branch in branches]
    return sorted(rows, key=lambda row: (abs(row["kappa_bar"]), row["kappa_bar"],
                                         -1.0 if row["n_bar"] is None else row["n_bar"],
                                         row["branch"] or ""))


_TEXT = st.text(alphabet=[",", '"', "\n", "\r", "a", " "], max_size=4)
_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]) | st.floats()
_CELLS = {
    "text": _TEXT,
    "float": _FLOATS,
    "float64": _FLOATS.map(np.float64),
    "float_or_none": _FLOATS | st.none(),
    "int": st.integers(-10**20, 10**20),
    "bool": st.booleans(),
    "none": st.none(),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def tables(draw):
    """1-4 columns of 0-5 rows; each column draws its cells of one kind, or of any."""
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 5))
    return {name: draw(st.lists(draw(st.sampled_from(list(_CELLS.values()))),
                                min_size=rows, max_size=rows))
            for name in names}


def read_meta(path):
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, value = line[2:].strip().split("=", 1)
            meta[key] = value
    return meta


class TestSpectrumCommand:
    def test_fig1_first_row_is_exact_edge_level(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("spectrum", "--preset", "fig1", "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 50
        assert rows[0]["kappa"] == "-1"
        assert rows[0]["n_g"] == "0"
        assert rows[0]["E_over_M"] == "1.0"
        assert rows[0]["is_special"] == "true"

    def test_fig1_contains_sqrt7_over_2(self, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli("spectrum", "--preset", "fig1", "--out", str(out))
        rows = read_csv_rows(out)
        target = [r for r in rows if r["kappa"] == "-1" and r["n_g"] == "1"]
        assert target and float(target[0]["E_over_M"]) == pytest.approx(
            math.sqrt(7) / 2, rel=1e-15
        )

    def test_fig2_mirrors_fig1_exactly(self, tmp_path):
        fig1 = tmp_path / "fig1.csv"
        fig2 = tmp_path / "fig2.csv"
        run_cli("spectrum", "--preset", "fig1", "--out", str(fig1))
        run_cli("spectrum", "--preset", "fig2", "--out", str(fig2))
        rows1 = read_csv_rows(fig1)
        rows2 = read_csv_rows(fig2)
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1, rows2):
            assert int(r2["kappa"]) == -int(r1["kappa"])
            assert float(r2["kappa_bar"]) == -float(r1["kappa_bar"])
            assert r2["E"] == r1["E"]  # byte-equal energies
            assert r2["n_bar"] == r1["n_bar"]

    def test_empty_kappa_range_is_usage_error(self):
        assert run_cli("spectrum", "--kappa-min", "3", "--kappa-max", "-3") == 1

    @pytest.mark.parametrize("command", [("spectrum",), ("verify", "--b", "1")])
    def test_range_holding_only_kappa_zero_is_usage_error(self, command, capsys):
        # kappa = 0 is skipped, so [0, 0] selects no row at all
        assert run_cli(*command, "--kappa-min", "0", "--kappa-max", "0") == 1
        out, err = capsys.readouterr()
        assert out == "" and "no kappa" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_selection_without_a_level_is_usage_error(self, fmt, tmp_path, capsys):
        # the only level of kappa = -1 with n <= 0 is the E = +M edge level,
        # which the minus branch does not carry
        out = tmp_path / f"spectrum.{fmt}"
        assert run_cli("spectrum", "--b", "1", "--kappa-min", "-1", "--kappa-max", "-1",
                       "--n-max", "0", "--branch", "minus", "--format", fmt,
                       "--out", str(out)) == 1
        assert "nothing selected" in capsys.readouterr().err
        assert not out.exists()

    def test_unbound_channels_flagged(self):
        rows = row_view(run_spectrum(RunConfig(b=1.0, kappa_min=-2, kappa_max=2, n_max=1)))
        unbound = [r for r in rows if not r["bound_flag"]]
        assert {r["kappa"] for r in unbound} == {1, 2}
        assert all(r["E"] is None for r in unbound)

    def test_minus_branch(self):
        rows = row_view(run_spectrum(RunConfig(b=1.0, kappa_min=-1, kappa_max=-1, n_max=2,
                                               branch="minus")))
        bound = [r for r in rows if r["bound_flag"]]
        assert len(bound) == 2  # the special level has no minus twin
        assert all(r["E"] < 0 for r in bound)

    def test_out_of_memory_is_an_error_exit(self, monkeypatch, capsys):
        # stands in for an --n-max whose ladder numpy cannot allocate
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "spectrum", too_large)
        assert run_cli("spectrum", "--n-max", "100000000000") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

    def test_level_past_the_effective_mass_is_an_error_exit(self, tmp_path, capsys):
        # at b/M = 1e-4 the levels from n = 7629 on round onto M* = hypot(M, b)
        out = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--b", "1e-4", "--kappa-min", "-1", "--kappa-max", "-1",
                       "--n-max", "10000", "--out", str(out)) == 1
        assert "must stay below the effective mass" in capsys.readouterr().err
        assert not out.exists()


class TestSpectrumAgainstRowwiseReference:
    """The column-wise table equals one built level by level from bound_state."""

    @pytest.mark.parametrize("params,kappas", [
        (ModelParams(1.0, 0.25, 1.0), [-3, 2, -1, -3, 1, -2, -1]),
        # kappa_bar = kappa + 2**54 rounds 1 and 2 onto one value, so only the
        # stable sort decides their order
        (ModelParams(1.0, 2.0**54, -1.0), [2, 1, -1, 3, 1]),
    ])
    @pytest.mark.parametrize("branch", ["particle", "antiparticle", "both"])
    def test_repeated_and_unsorted_kappas(self, params, kappas, branch):
        expected = reference_spectrum(params, kappas, 3, branch)
        table = spectrum(params, kappas, 3, branch)
        assert row_view(table) == expected
        assert [list(map(type, row.values())) for row in row_view(table)] == [
            list(map(type, row.values())) for row in expected]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(mass=st.floats(0.1, 10.0), a=st.floats(-3.0, 3.0), b=st.floats(0.01, 100.0),
           b_sign=st.sampled_from([1.0, -1.0]), kappa_min=st.integers(-12, 12),
           width=st.integers(0, 12), n_max=st.integers(0, 31),
           branch=st.sampled_from(["plus", "minus", "both"]), conjugate=st.booleans())
    def test_cli_bytes(self, mass, a, b, b_sign, kappa_min, width, n_max, branch, conjugate):
        params = ModelParams(mass, a, b_sign * b)
        kappas = [k for k in range(kappa_min, kappa_min + width + 1) if k != 0]
        lib_branch = {"plus": "particle", "minus": "antiparticle", "both": "both"}[branch]
        if conjugate:  # the spectrum of the sign-flipped potential, reported as E^c = -E
            flip = {"particle": "antiparticle", "antiparticle": "particle", "both": "both"}
            params, kappas = charge_conjugate(params), sorted(-k for k in kappas)
            lib_branch = flip[lib_branch]

        def signed(value):
            return -value if conjugate and value is not None else value

        rows = [{"kappa": row["kappa"], "kappa_bar": row["kappa_bar"], "n_g": row["n_g"],
                 "n_f": row["n_f"], "n_bar": row["n_bar"], "E": signed(row["energy"]),
                 "E_over_M": signed(row["e_over_m"]), "is_special": row["is_special"],
                 "bound_flag": row["bound"]}
                for row in reference_spectrum(params, kappas, n_max, lib_branch)]
        # "--a=-1e-12", since argparse reads a separate "-1e-12" as a flag
        argv = ["spectrum", f"--mass={mass!r}", f"--a={a!r}", f"--b={b_sign * b!r}",
                f"--kappa-min={kappa_min}", f"--kappa-max={kappa_min + width}",
                f"--n-max={n_max}", f"--branch={branch}", *(["--conjugate"] if conjugate else [])]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "spectrum.csv"
            with contextlib.redirect_stderr(io.StringIO()):
                rc = run_cli(*argv, "--out", str(out))
            assert rc == (0 if rows else 1)
            assert (out.read_bytes() if rc == 0 else b"") == reference_csv(rows, {}).encode()


class TestFig3Command:
    def test_frozen_value(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert run_cli("fig3", "--preset", "fig3a", "--out", str(out)) == 0
        rows = read_csv_rows(out)
        hit = [r for r in rows if r["a"] == "0.0" and r["kappa"] == "-2"]
        assert len(hit) == 1
        assert float(hit[0]["E_over_M"]) == pytest.approx(math.sqrt(14) / 3, rel=1e-14)

    def test_excluded_window_flagged_not_dropped(self):
        cfg = RunConfig(b=1.0, n=1, a_values=(0.5,), kappa_bar_min=-10.0, kappa_bar_max=-0.5)
        rows = row_view(run_fig3(cfg))
        edge = [r for r in rows if r["kappa"] == -1]
        assert len(edge) == 1
        assert edge[0]["kappa_bar"] == -0.5
        assert edge[0]["bound_flag"] is False
        assert edge[0]["E_over_M"] is None

    def test_only_kappa_bar_matters(self):
        # shifting a by +1 while shifting kappa by -1 leaves each level alone
        base = row_view(run_fig3(RunConfig(b=1.0, n=1, a_values=(0.0,),
                                           kappa_bar_min=-10.0, kappa_bar_max=-0.5)))
        shifted = row_view(run_fig3(RunConfig(b=1.0, n=1, a_values=(1.0,),
                                              kappa_bar_min=-10.0, kappa_bar_max=-0.5)))
        table = {r["kappa_bar"]: r["E_over_M"] for r in base}
        for row in shifted:
            if row["kappa_bar"] in table:
                assert row["E_over_M"] == table[row["kappa_bar"]]

    def test_fig3b_side(self, tmp_path):
        out = tmp_path / "f3b.csv"
        assert run_cli("fig3", "--preset", "fig3b", "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert all(float(r["kappa_bar"]) > 0 for r in rows)
        bound = [r for r in rows if r["bound_flag"] == "true"]
        assert bound and all(1.0 < float(r["E_over_M"]) < math.sqrt(2.0) for r in bound)

    @pytest.mark.parametrize("b,n", [(1.0, 1), (1.3, 7), (-0.8, 4), (-2.0, 30)])
    def test_e_over_m_is_energy_bit_for_bit(self, b, n):
        cfg = RunConfig(mass=1.7, b=b, n=n, a_values=(-1.25, 0.0, 0.4), kappa_bar_min=-12.0,
                        kappa_bar_max=12.0)
        rows = row_view(run_fig3(cfg))
        assert any(row["bound_flag"] for row in rows) and not all(row["bound_flag"] for row in rows)
        for row in rows:
            params = ModelParams(1.7, row["a"], b)
            expected = (energy(params, Channel.from_kappa(row["kappa"], row["a"]), n) / 1.7
                        if row["bound_flag"] else None)
            assert row["E_over_M"] == expected

    def test_level_zero_rejected(self):
        assert run_cli("fig3", "--preset", "fig3a", "--n", "0") == 1

    @pytest.mark.parametrize("argv", [("--kappa-bar-min", "3", "--kappa-bar-max", "1"),
                                      ("--a-values", "0", "--kappa-bar-min", "-0.4",
                                       "--kappa-bar-max", "0.4")])
    def test_table_that_selects_nothing_is_usage_error(self, argv, capsys):
        assert run_cli("fig3", *argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "no kappa" in err

    @pytest.mark.parametrize("text", ["", " ", ",", " , "])
    def test_empty_a_values_is_usage_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a_values={text}\n")
        for argv in ((f"--a-values={text}",), ("--config", str(cfg))):
            assert run_cli("fig3", "--n", "1", *argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "--a-values is empty" in err

    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "0, ,1.5"])
    def test_empty_entry_in_a_values_is_usage_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a_values={text}\n")
        out = tmp_path / "f3.csv"
        for argv in ((f"--a-values={text}",), ("--config", str(cfg))):
            assert run_cli("fig3", "--n", "1", *argv, "--out", str(out)) == 1
            assert "--a-values has an empty entry" in capsys.readouterr().err
            assert not out.exists()

    def test_a_values_flag_is_a_comma_list(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert run_cli("fig3", "--preset", "fig3a", "--a-values", "0, 1.5",
                       "--out", str(out)) == 0
        assert {r["a"] for r in read_csv_rows(out)} == {"0.0", "1.5"}
        assert run_cli("fig3", "--preset", "fig3a", "--a-values", "x") == 1


class TestWavefunctionCommand:
    def test_special_state_lower_column_zero(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run_cli("wavefunction", "--kappa", "-1", "--n", "0", "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert all(float(r["f"]) == 0.0 for r in rows)
        meta = read_meta(out)
        assert meta["energy"] == "1.0"
        assert meta["n_f"] == ""

    def test_boundary_values_tiny(self, tmp_path):
        out = tmp_path / "wf.csv"
        run_cli("wavefunction", "--kappa", "-1", "--n", "1", "--out", str(out))
        rows = read_csv_rows(out)
        peak = max(abs(float(r["g"])) for r in rows)
        assert abs(float(rows[0]["g"])) < 1e-6 * peak
        assert abs(float(rows[0]["f"])) < 1e-6 * peak
        assert abs(float(rows[-1]["g"])) < 1e-6 * peak
        assert abs(float(rows[-1]["f"])) < 1e-6 * peak

    def test_header_nodes_match_recount(self, tmp_path):
        out = tmp_path / "wf.csv"
        run_cli("wavefunction", "--kappa", "-2", "--n", "3", "--points", "2400",
                "--out", str(out))
        meta = read_meta(out)
        rows = read_csv_rows(out)
        g = np.array([float(r["g"]) for r in rows])
        f = np.array([float(r["f"]) for r in rows])
        assert int(meta["node_count_g"]) == int(np.count_nonzero(g[1:] * g[:-1] < 0))
        assert int(meta["node_count_f"]) == int(np.count_nonzero(f[1:] * f[:-1] < 0))
        assert (int(meta["node_count_g"]), int(meta["node_count_f"])) == (3, 2)

    def test_norm_header(self, tmp_path):
        out = tmp_path / "wf.csv"
        run_cli("wavefunction", "--kappa", "-1", "--n", "2", "--out", str(out))
        assert float(read_meta(out)["norm"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("window", [("--r-max", "inf"),
                                        ("--r-max", "1e400", "--grid", "linear")])
    def test_nonfinite_radial_window_is_usage_error(self, window, capsys):
        # unchecked, an infinite r_max writes rows of inf,nan,nan and node_count_g=0
        assert run_cli("wavefunction", "--kappa", "-2", "--n", "1", *window) == 1
        out, err = capsys.readouterr()
        assert out == "" and "bad radial window" in err

    def test_grid_float64_cannot_space_is_an_error_exit(self, capsys):
        # one ulp of window holds no 5 distinct points: sample_state's
        # RadialSamples rejects the grid rather than writing repeated rows
        assert run_cli("wavefunction", "--kappa", "-1", "--n", "1", "--r-min", "1",
                       "--r-max", "1.0000000000000002", "--points", "5", "--grid", "linear") == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the radial grid must be strictly increasing\n"

    def test_huge_finite_window_writes_zero_tail(self, tmp_path, capsys):
        # (2 gamma r)^p would overflow where e^(-x/2) has underflowed; the float64 value is 0
        out = tmp_path / "wf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("wavefunction", "--kappa", "-2", "--n", "1", "--r-max", "1e300",
                           "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv_rows(out)
        values = np.array([[float(row["g"]), float(row["f"])] for row in rows])
        assert np.all(np.isfinite(values))
        assert float(rows[-1]["r"]) == 1e300 and values[-1].tolist() == [0.0, 0.0]
        assert read_meta(out)["node_count_g"] == "1"

    @pytest.mark.parametrize("points", ["1", "0"])
    def test_too_few_points_is_usage_error(self, points, capsys):
        assert run_cli("wavefunction", "--kappa", "-2", "--n", "1", "--points", points) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--points must be at least 2" in err

    def test_unbound_channel_exits_nonzero(self, capsys):
        assert run_cli("wavefunction", "--kappa", "1", "--n", "1") == 1
        err = capsys.readouterr().err
        assert "b*kappa_bar < 0" in err and "|kappa_bar| > 1/2" in err

    @pytest.mark.parametrize("argv", [("--kappa", "-150"), ("--kappa", "-89", "--n", "12")])
    def test_large_order_writes_finite_unit_norm_rows(self, argv, tmp_path):
        # alpha = 299 and 177: Gamma(n + alpha + 1) alone overflows float64 from alpha ~ 171
        out = tmp_path / "wf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("wavefunction", "--b", "1", *argv, "--out", str(out)) == 0
        values = np.array([[float(row[k]) for k in ("r", "g", "f")] for row in read_csv_rows(out)])
        assert len(values) == 600 and np.all(np.isfinite(values))
        assert np.max(np.abs(values[:, 1])) > 0.0
        assert abs(float(read_meta(out)["norm"]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("kappa, n, extra", [
        (-20, 5, ""), (-5, 60, ""), (-89, 12, ""), (-66, 55, "--b 1.137"), (-150, 60, ""),
        (3, 40, "--b -1"),
        # S = |kappa_bar - 1/2| of 0.01 and 0.05: the rule's inner end underflows
        # to 0 or lies near 1e-300, below the 1e-6/gamma floor
        (1, 0, "--a -0.49 --b -1"), (1, 40, "--a -0.45 --b -1"),
        # S = 1/2 with the inner end near 1e-27/|B|, under 600 log points
        (-2, 57, "--b 0.9239390221960464 --a 0.29693106209797504 --branch minus"),
        (-1, 22, "--b 0.5878460480153862 --a 0.13344074058237698 --branch minus"),
        (1, 49, "--b -1.6273700960755253 --a 0.5259981139463021"),
    ])
    def test_default_window_holds_every_node(self, kappa, n, extra, tmp_path):
        # the default window is the state's extent; the 30/gamma one it
        # replaced counted 4, 34, 0, 4, 0 and 27 upper-component nodes in the
        # first six cases
        out = tmp_path / "wf.csv"
        assert run_cli("wavefunction", "--kappa", str(kappa), "--n", str(n), *extra.split(),
                       "--out", str(out)) == 0
        meta = read_meta(out)
        assert meta["n_g"] == str(n)
        assert (meta["node_count_g"], meta["node_count_f"]) == (meta["n_g"], meta["n_f"])

    def test_overflow_is_an_error_exit(self, monkeypatch, capsys):
        # stands in for any float64 overflow raised while sampling
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "state_wavefunctions", overflow)
        assert run_cli("wavefunction", "--kappa", "-2", "--n", "1") == 1
        assert capsys.readouterr().err.startswith("error: numeric overflow:")

    def test_nonfinite_norm_is_an_error_exit(self, tmp_path, capsys):
        # from n ~ 370 some Gauss weights of the norm overflow, and the norm
        # would be nan: no number is better than a wrong one at exit 0
        out = tmp_path / "wf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("wavefunction", "--kappa", "-1", "--n", "400", "--b", "1",
                           "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: numeric overflow:") and "Traceback" not in err
        assert not out.exists()

    def test_mirror_special_flag(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run_cli("wavefunction", "--b", "-1", "--kappa", "2", "--special",
                       "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert all(float(r["g"]) == 0.0 for r in rows)
        assert read_meta(out)["energy"] == "-1.0"

    def test_json_meta_and_rows(self, tmp_path):
        out = tmp_path / "wf.json"
        run_cli("wavefunction", "--kappa", "-1", "--n", "1", "--format", "json",
                "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["meta"]["gamma"] == 0.5
        assert len(payload["rows"]) == 600


class TestVerifyCommand:
    def test_small_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-2",
                       "--kappa-max", "-1", "--n-max", "1", "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert rows and all(r["passed"] == "true" for r in rows)
        # level 0 of each channel is the E = M edge level: the bracket checks
        # it, and only the level above it is shot
        assert [(r["check"], r["kappa"], r["n"]) for r in rows] == [
            ("oracle", "-2", "1"), ("zero_component", "-2", "0"),
            ("oracle", "-1", "1"), ("zero_component", "-1", "0")]
        oracle_rows = [r for r in rows if r["check"] == "oracle"]
        assert max(float(r["delta_e"]) for r in oracle_rows) < 1e-7
        # the summary line ends with the shooting work, each level shot from
        # its channel's ladder of estimates, and the work of the edge-state
        # brackets, one scan of the pair M (1 -/+ 1e-9) per channel
        params = ModelParams(1.0, 0.0, 1.0)
        shots = []
        for kappa in (-2, -1):
            channel = Channel.from_kappa(kappa)
            ladder = oracle._pencil_levels(params, channel, "upper", range(2))
            shots.append(solve_bound_level(params, channel, "upper", 1, estimate=ladder[1]))
        sweeps = sum(shot.sweeps for shot in shots)
        steps = sum(shot.steps for shot in shots)
        newton_steps = sum(shot.newton_steps for shot in shots)
        pair = (params.mass * (1.0 - 1e-9), params.mass * (1.0 + 1e-9))
        reports = [report for kappa in (-2, -1)
                   for _, report in oracle._march_first_order(
                       params, Channel.from_kappa(kappa), pair, sample_count=2, fineness=0.25)]
        rk4_steps = sum(report.steps for report in reports)
        assert rk4_steps > 0
        assert capsys.readouterr().err.strip().endswith(
            f"shooting took {sweeps} Numerov sweeps ({steps} Numerov steps) and "
            f"{newton_steps} Newton steps; "
            f"edge-state integration took {rk4_steps} RK4 steps")

    def test_one_pencil_per_channel(self, monkeypatch):
        calls = []
        pencil = oracle._pencil_levels

        def counted(params, channel, component, levels):
            calls.append((params.b, params.a, channel.kappa, component, levels))
            return pencil(params, channel, component, levels)

        def unexpected(*args):
            raise AssertionError("a level was estimated on its own pencil")

        monkeypatch.setattr(cli, "_pencil_levels", counted)
        monkeypatch.setattr(oracle, "_pencil_levels", unexpected)
        assert run_cli("verify", "--b", "1", "--a", "0.5", "--kappa-min", "-3",
                       "--kappa-max", "3", "--n-max", "3", "--out", os.devnull) == 0
        # kappa_bar = kappa + 1/2 binds for b = 1 where it lies below -1/2
        assert calls == [(1.0, 0.5, kappa, "upper", range(4)) for kappa in (-3, -2)]

    def test_one_closed_form_pair_per_level(self, monkeypatch):
        # each row, shot level or edge bracket, builds its closed-form pair
        # once, for its residual
        states = []
        pair = analytic.state_wavefunctions

        def counted(params, state):
            states.append(state)
            return pair(params, state)

        monkeypatch.setattr(cli, "state_wavefunctions", counted)
        monkeypatch.setattr(analytic, "state_wavefunctions", counted)
        table, _ = cli.verification_grid_rows(1.0, (1.0,), (0.5,), [-3, -2, -1, 1, 2, 3], 3)
        rows = row_view(table)
        assert all(row["passed"] for row in rows)
        assert [(state.channel.kappa, state.n_g, state.is_special) for state in states] == [
            (row["kappa"], row["n"], row["check"] == "zero_component") for row in rows]
        assert [row["check"] for row in rows] == (["oracle"] * 3 + ["zero_component"]) * 2

    @pytest.mark.parametrize("mutation", [
        lambda kb, n_g: n_g,
        lambda kb, n_g: max(n_g - 2 if kb < 0 else n_g + 2, 0),
        lambda kb, n_g: max(n_g + 1 if kb < 0 else n_g - 1, 0),
    ], ids=["n_f=n_g", "n_g-+2", "flipped"])
    def test_wrong_node_law_fails_on_the_residual(self, mutation, monkeypatch, tmp_path, capsys):
        # the law is stated once, so a wrong one passes BoundState's guard and
        # must fail the rows it moves; a degree below 0 is clipped to 0, since
        # LaguerreSpec rejects it (exit 1) before any row is written
        law = core.lower_degree
        for name, module in list(sys.modules.items()):
            if name.startswith("diractensor") and getattr(module, "lower_degree", None) is law:
                monkeypatch.setattr(module, "lower_degree", mutation)
        moved = 0
        for b in ("1", "-1"):
            out = tmp_path / f"verify{b}.csv"
            assert run_cli("verify", "--b", b, "--a", "0.5", "--kappa-min", "-3",
                           "--kappa-max", "3", "--n-max", "3", "--out", str(out)) == 2
            assert "node law violated" not in capsys.readouterr().err
            for row in read_csv_rows(out):
                kb, n_g = float(row["kappa_bar"]), int(row["n"])
                if row["check"] == "zero_component":
                    continue  # the edge state has no lower component to move
                if mutation(kb, n_g) != law(kb, n_g):
                    moved += 1
                    assert float(row["residual"]) >= 1e-8 and row["passed"] == "false"
                    # a regular level keeps both components, whatever degree
                    # the law gives the lower one, so it is not the edge state
                    assert row["check"] == "oracle"
        assert moved >= 16

    def test_large_kappa_grid_passes(self):
        # the edge states at kappa <= -13 and the oracle levels at kappa <= -26
        # peak beyond 30/gamma; the integration box follows the r^p tail there
        table, _ = cli.verification_grid_rows(1.0, (1.0,), (0.0,), [-60, -40, -26, -20, -13], 2)
        rows = row_view(table)
        assert [row["check"] for row in rows] == ["oracle", "oracle", "zero_component"] * 5
        assert [(row["check"], row["kappa"], row["n"]) for row in rows if not row["passed"]] == []

    def test_injected_error_detected(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "1",
                       "--inject-energy-error", "1e-3", "--out", str(out))
        assert code == 2
        rows = read_csv_rows(out)
        assert [r["check"] for r in rows] == ["oracle", "zero_component"]
        assert all(r["passed"] == "false" for r in rows)

    @pytest.mark.parametrize("b", [1.0, 1e3, 1e-3])
    @pytest.mark.parametrize("kappa", [-1, 2, -5])
    def test_edge_bracket_off_the_level_fails(self, b, kappa):
        # the edge row brackets its centre by 1e-9 (relative); centred on the
        # closed form it passes, and centred 10 half-widths off to either side
        # it must fail, at every scale of b and in both families
        sign = 1.0 if kappa < 0 else -1.0
        for error, want in ((0.0, True), (1e-8, False), (-1e-8, False)):
            table, _ = cli.verification_grid_rows(1.0, (sign * b,), (0.0,), [kappa], 0,
                                                  inject_energy_error=error)
            edge = [row for row in row_view(table) if row["check"] == "zero_component"]
            assert [(row["e_analytic"], row["passed"]) for row in edge] == [
                (sign * (1.0 + error), want)]

    def test_edge_bracket_at_the_wrong_sign_fails(self, monkeypatch, tmp_path):
        # the antiparticle energy in place of the particle one (and back): at
        # -E the coupling M + E (or M - E) vanishes, so one component's tail
        # flips with no level there, and only the other one can tell
        def wrong_sign(params, channel):
            state = analytic.special_state(params, channel)
            return replace(state, energy=-state.energy)

        monkeypatch.setattr(cli, "special_state", wrong_sign)
        for b in ("1", "-2"):
            out = tmp_path / f"verify{b}.csv"
            assert run_cli("verify", "--b", b, "--kappa-min", "-3", "--kappa-max", "3",
                           "--n-max", "1", "--out", str(out)) == 2
            rows = read_csv_rows(out)
            edge = [row["passed"] for row in rows if row["check"] == "zero_component"]
            assert len(edge) == 13 and set(edge) == {"false"}
            assert all(row["passed"] == "true" for row in rows if row["check"] != "zero_component")

    @pytest.mark.parametrize("b, kappas", [("1000", ("-3", "-1")), ("-1000", ("1", "3"))])
    def test_large_b_edge_levels_pass(self, b, kappas, tmp_path):
        # at |b| = 1000 a Numerov shot at lambda = -b^2 misses E = M by more
        # than 1e-7; the bracket works in E, and holds there
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--b", b, "--a", "0", "--kappa-min", kappas[0],
                       "--kappa-max", kappas[1], "--n-max", "4", "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert [row["check"] for row in rows].count("zero_component") == 3
        assert all(row["passed"] == "true" for row in rows)

    @pytest.mark.parametrize("b", ["1", "-1"])
    def test_edge_closed_form_off_shape_fails_on_the_residual(self, b, monkeypatch, tmp_path):
        # a decay rate 10% too large keeps E = +/-M, so the bracket holds; the
        # residual of the closed form must fail every edge row, in both families
        exact = analytic.special_state

        def too_steep(params, channel):
            state = exact(params, channel)
            return replace(state, gamma=1.1 * state.gamma)

        for name, module in list(sys.modules.items()):
            if name.startswith("diractensor") and getattr(module, "special_state", None) is exact:
                monkeypatch.setattr(module, "special_state", too_steep)
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--b", b, "--out", str(out)) == 2
        rows = read_csv_rows(out)
        edge = [row for row in rows if row["check"] == "zero_component"]
        assert len(edge) == 23
        assert all(row["passed"] == "false" and float(row["residual"]) >= 1e-8 for row in edge)
        assert all(row["passed"] == "true" for row in rows if row["check"] == "oracle")

    def test_deep_levels_pass(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-2",
                       "--kappa-max", "-2", "--n-max", "12", "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert [int(r["n"]) for r in rows if r["check"] == "oracle"] == list(range(1, 13))

    def test_oracle_failure_is_a_verification_exit(self, monkeypatch, capsys):
        # stands in for a shooting failure, such as a level the pencil cannot hold
        def no_bracket(*args, **kwargs):
            raise NoBracketError("no level with 10 nodes")

        monkeypatch.setattr(cli, "solve_bound_level", no_bracket)
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "1")
        assert code == 2
        assert capsys.readouterr().err.startswith("verification failed: no level")

    @pytest.mark.parametrize("b", ["1", "-1"])
    def test_binding_rule_without_its_sign_test_fails(self, b, monkeypatch, capsys):
        # a rule that binds both signs of b*kappa_bar sends the grid to the
        # wrong-sign channels, where the pencil holds no level below the
        # window top, so verify fails
        exact = core.bound_states_exist

        def no_sign_test(params, channel):
            exact(params, channel)  # keeps the check that the channel was built for params.a
            return abs(channel.kappa_bar) > 0.5

        for name, module in list(sys.modules.items()):
            if name.startswith("diractensor") and getattr(module, "bound_states_exist", None) is exact:
                monkeypatch.setattr(module, "bound_states_exist", no_sign_test)
        assert run_cli("verify", "--b", b, "--a", "0", "--kappa-min", "-2", "--kappa-max", "2",
                       "--n-max", "2") == 2
        assert "the pencil puts no 2-node level below the window top" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("verify", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "1"),
        ("spectrum", "--kappa-min", "-1", "--kappa-max", "-1"),
        ("wavefunction", "--kappa", "-1", "--n", "1"),
        ("fig3",),
    ])
    def test_window_float64_cannot_resolve_is_an_error_exit(self, command, capsys):
        # the oracle solves the b = 1 problem at any b, but at b/M = 1e-200
        # M* = sqrt(M^2 + b^2) rounds to M, and the closed forms say so; fig3
        # writes no E_over_M with bound_flag true there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*command, "--b", "1e-200")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: M* = sqrt(M^2 + b^2) rounds to M = 1.0 at b/M = 1e-200: "
                       "float64 cannot resolve the window M <= |E| < M*\n")

    def test_every_check_writes_one_header(self, tmp_path):
        # both checks write the same columns, and cells a check does not fill
        # stay empty
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "0", "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == ",".join(cli._VERIFY_COLUMNS)
        edge = [row for row in read_csv_rows(out) if row["check"] == "zero_component"]
        assert len(edge) == 1
        assert edge[0]["e_shoot"] == "" and float(edge[0]["residual"]) < 1e-8

    def test_grid_without_binding_channel_is_usage_error(self, tmp_path, capsys):
        # b > 0 binds only kappa_bar < -1/2, so kappa 1..3 leave nothing to check
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "1",
                       "--kappa-max", "3", "--out", str(out))
        assert code == 1
        assert "nothing to verify" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_n_max_is_usage_error(self, capsys):
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "-1")
        assert code == 1
        assert "n_max" in capsys.readouterr().err


class TestOutputHygiene:
    def test_byte_determinism(self, tmp_path):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        run_cli("spectrum", "--preset", "fig1", "--out", str(one))
        run_cli("spectrum", "--preset", "fig1", "--out", str(two))
        assert one.read_bytes() == two.read_bytes()

    def test_csv_json_numeric_parity(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        run_cli("spectrum", "--preset", "fig1", "--out", str(csv_path))
        run_cli("spectrum", "--preset", "fig1", "--format", "json", "--out", str(json_path))
        csv_rows = read_csv_rows(csv_path)
        json_rows = json.loads(json_path.read_text())
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            # shortest round-trip decimals parse back to identical floats
            assert float(c["E"]) == j["E"]
            assert float(c["kappa_bar"]) == j["kappa_bar"]

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        assert run_cli("spectrum", "--preset", "fig1", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_stdout_emission(self, capsys):
        assert run_cli("spectrum", "--kappa-min", "-1", "--kappa-max", "-1",
                       "--n-max", "0") == 0
        out = capsys.readouterr().out
        assert out.startswith("kappa,")

    MIXED_ROWS = [
        {"text": 'a "quoted", cell', "x": -0.0, "k": 3, "flag": True, "f64": np.float64(0.1),
         "mixed": None},
        {"text": "plain", "x": math.inf, "k": -7, "flag": False, "f64": np.float64(-2.5),
         "mixed": 5e-324},
        {"text": "", "x": math.nan, "k": 0, "flag": True, "f64": np.float64(1e300),
         "mixed": 1e300},
        {"text": "tail", "x": 5e-324, "k": 10**20, "flag": False, "f64": np.float64(0.0),
         "mixed": False},
    ]
    MIXED_TABLE = dict(zip(MIXED_ROWS[0], map(list, zip(*map(dict.values, MIXED_ROWS)))))
    MIXED_META = {"none": None, "flag": True, "count": 12, "value": -0.0, "f64": np.float64(0.5),
                  "name": "x,y"}

    def test_columnwise_csv_matches_rowwise_reference(self, tmp_path):
        out = tmp_path / "mixed.csv"
        text = cli._emit(self.MIXED_TABLE, "csv", str(out), meta=self.MIXED_META)
        expected = reference_csv(self.MIXED_ROWS, self.MIXED_META)
        assert text == expected
        assert out.read_bytes() == expected.encode()
        assert '"a ""quoted"", cell"' in text

    def test_float_subclass_cells_parse_back(self, tmp_path):
        # numpy.float64 cells are written as plain decimals, as JSON writes them,
        # not as their repr "np.float64(0.1)"
        out = tmp_path / "mixed.csv"
        cli._emit(self.MIXED_TABLE, "csv", str(out), meta=self.MIXED_META)
        rows = read_csv_rows(out)
        assert [float(row["f64"]) for row in rows] == [row["f64"] for row in self.MIXED_ROWS]
        assert float(read_meta(out)["f64"]) == self.MIXED_META["f64"]

    def test_json_matches_reference(self, tmp_path):
        out = tmp_path / "mixed.json"
        text = cli._emit(self.MIXED_TABLE, "json", str(out), meta=self.MIXED_META)
        expected = json.dumps({"meta": self.MIXED_META, "rows": self.MIXED_ROWS}, indent=2) + "\n"
        assert text == expected
        assert out.read_bytes() == expected.encode()


    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tables(), st.dictionaries(st.text(alphabet="ab", min_size=1), _CELLS["mixed"],
                                     max_size=2))
    def test_emit_matches_csv_module_and_json_row_view(self, table, meta):
        rows = row_view(table)
        assert cli._emit(table, "csv", os.devnull, meta=meta) == reference_csv(rows, meta)
        payload = {"meta": meta, "rows": rows} if meta else rows
        assert cli._emit(table, "json", os.devnull, meta=meta) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--preset", "fig1"),
        ("spectrum", "--preset", "fig2"),
        ("fig3", "--preset", "fig3a"),
        ("wavefunction", "--kappa", "-2", "--n", "3"),
        ("wavefunction", "--kappa", "-150", "--n", "40", "--b", "1"),
        ("verify", "--b", "1", "--a", "0", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "1"),
    ])
    def test_csv_is_the_json_table_written_by_the_csv_module(self, argv, tmp_path):
        # shortest round-trip floats parse back exactly, so the JSON rows
        # rebuild the CSV byte for byte: column order, signs, None and bool cells
        csv_path, json_path = tmp_path / "table.csv", tmp_path / "table.json"
        assert run_cli(*argv, "--out", str(csv_path)) == 0
        assert run_cli(*argv, "--format", "json", "--out", str(json_path)) == 0
        payload = json.loads(json_path.read_text())
        rows, meta = (payload["rows"], payload["meta"]) if isinstance(payload, dict) else (payload, {})
        assert rows
        assert csv_path.read_bytes() == reference_csv(rows, meta).encode()

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "1"),
        ("fig3", "--a-values", "0", "--kappa-bar-min", "-2", "--kappa-bar-max", "-1"),
    ])
    def test_e_over_m_past_float64_is_an_error_exit(self, argv, capsys):
        # at M = 1e-320 and b = 1, b/M and every regular level's |E|/M are
        # past float64's range: an error, not an inf E_over_M at exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, "--mass", "1e-320")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: numeric overflow:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "2"),
        ("fig3", "--a-values", "0", "--kappa-bar-min", "-2", "--kappa-bar-max", "-1"),
        ("wavefunction", "--kappa", "-1", "--n", "1"),
        ("verify", "--a", "0", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "1"),
    ])
    def test_b_squared_past_float64_names_b(self, argv, capsys):
        # from |b| ~ 1.3e154, b^2 is past float64's range: one message that
        # names b, from every subcommand
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, "--b", "1e200")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "error: numeric overflow: b^2 is past float64's range at b = 1e+200\n"


class TestStartupAndParserReuse:
    GOLDEN = Path(__file__).resolve().parent / "golden"

    def test_import_loads_no_scipy(self):
        src = str(Path(diractensor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, diractensor.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_does_not_carry_over(self, tmp_path):
        fig2, fig1 = tmp_path / "fig2.csv", tmp_path / "fig1.csv"
        assert run_cli("spectrum", "--conjugate", "--out", str(fig2)) == 0
        assert run_cli("spectrum", "--out", str(fig1)) == 0
        assert fig2.read_bytes() == (self.GOLDEN / "fig2.csv").read_bytes()
        assert fig1.read_bytes() == (self.GOLDEN / "fig1.csv").read_bytes()

    def test_option_value_does_not_carry_over(self, tmp_path):
        short, full = tmp_path / "short.csv", tmp_path / "full.csv"
        assert run_cli("wavefunction", "--kappa", "-2", "--points", "50", "--out", str(short)) == 0
        assert run_cli("wavefunction", "--kappa", "-2", "--out", str(full)) == 0
        assert len(read_csv_rows(short)) == 50
        assert len(read_csv_rows(full)) == 600

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--a", "-1e-12", "--kappa-min", "-1", "--kappa-max", "-1", "--n-max", "0"),
        ("wavefunction", "--b", "1", "--a", "-5e-05", "--kappa", "-2", "--n", "1"),
        ("fig3", "--kappa-bar-min", "-1E+1", "--a-values", "-1e-3,2"),
        ("verify", "--b", "-1e+0", "--a", "-2.5e-1", "--kappa-min", "1", "--kappa-max", "2",
         "--n-max", "1"),
    ])
    def test_negative_value_in_exponent_form_is_a_value(self, argv, tmp_path):
        # "--a -1e-12" writes what "--a=-1e-12" writes
        apart, joined = tmp_path / "apart.csv", tmp_path / "joined.csv"
        pairs = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        assert run_cli(*argv, "--out", str(apart)) == 0
        assert run_cli(argv[0], *pairs, "--out", str(joined)) == 0
        assert apart.read_bytes() == joined.read_bytes()

    def test_flag_followed_by_a_flag_is_usage_error(self, capsys):
        assert run_cli("spectrum", "--a", "--b", "1") == 1
        assert "argument --a: expected one argument" in capsys.readouterr().err

    def test_usage_error_leaves_next_request_alone(self, tmp_path, capsys):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert run_cli("spectrum", "--out", str(before)) == 0
        assert run_cli("spectrum", "--conjugate", "--n-max", "many", "--out", str(after)) == 1
        assert "--n-max" in capsys.readouterr().err
        assert not after.exists()
        assert run_cli("spectrum", "--out", str(after)) == 0
        assert after.read_bytes() == before.read_bytes()


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nb=2.0\nkappa_min=-2\nkappa_max=-1\nn_max=1\n")
        out = tmp_path / "s.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--out", str(out)) == 0
        rows = read_csv_rows(out)
        mstar = math.sqrt(1.0 + 4.0)
        bound = [r for r in rows if r["bound_flag"] == "true"]
        assert all(float(r["E"]) < mstar for r in bound)
        assert any(float(r["E"]) > math.sqrt(2.0) for r in bound)  # b=2 took effect
        # explicit flag wins over the file
        out2 = tmp_path / "s2.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--b", "1.0",
                       "--out", str(out2)) == 0
        rows2 = read_csv_rows(out2)
        bound2 = [r for r in rows2 if r["bound_flag"] == "true"]
        assert all(float(r["E"]) < math.sqrt(2.0) for r in bound2)

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option=3\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1

    def test_missing_config_file(self):
        assert run_cli("spectrum", "--config", "/nonexistent/path.cfg") == 1

    def test_preset_subcommand_mismatch(self):
        assert run_cli("spectrum", "--preset", "fig3a") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("spectrum", "--frobnicate") == 1

    def test_load_config_file_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a_values=-2,-1,0\nconjugate=true\nbranch=both\n")
        values = load_config_file(str(cfg))
        assert values == {"a_values": (-2.0, -1.0, 0.0), "conjugate": True, "branch": "both"}

    def test_load_config_file_every_field(self, tmp_path):
        expected = {
            "mass": 2.5, "a": -0.5, "b": 1.5, "kappa_min": -7, "kappa_max": -2, "n_max": 3,
            "branch": "minus", "output_format": "json", "out": "table.json", "conjugate": False,
            "kappa": -3, "n": 2, "special": True, "r_min": 0.001, "r_max": 40.0, "points": 250,
            "grid": "linear", "a_values": (-1.0, 0.5), "kappa_bar_min": -8.0,
            "kappa_bar_max": -1.5, "inject_energy_error": 0.002,
        }
        assert set(expected) == {f.name for f in fields(RunConfig)}
        text = "".join(f"{key}={value}\n" for key, value in expected.items()
                       if not isinstance(value, tuple))
        text += "a_values=-1, 0.5\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        values = load_config_file(str(cfg))
        assert values == expected
        for key, value in values.items():
            assert type(value) is type(expected[key]), key

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,key", [("fig3", "kappa_bar_min"), ("fig3", "kappa_bar_max"),
                                             ("verify", "inject_energy_error")])
    def test_nonfinite_value_is_usage_error_naming_the_flag(self, command, key, value,
                                                             monkeypatch, tmp_path, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was shot with a non-finite value")

        monkeypatch.setattr(cli, "verification_grid_rows", no_grid)
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        for argv in ((f"{flag}={value}",), ("--config", str(cfg))):
            assert run_cli(command, *argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {flag} must be finite")

    def test_bad_boolean_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("conjugate=maybe\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1
        assert "boolean expected for conjugate" in capsys.readouterr().err


class TestOptionsPerSubcommand:
    """Each subcommand takes the flags and config keys of the RunConfig fields
    it reads, and no others."""

    SUBCOMMANDS = ("spectrum", "fig3", "wavefunction", "verify")
    SMALL_GRID = ("--b", "1", "--a", "0", "--kappa-min", "-1", "--kappa-max", "-1",
                  "--n-max", "0")

    def test_flags_are_the_fields_each_subcommand_reads(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(self.SUBCOMMANDS)
        read = set()
        for command in self.SUBCOMMANDS:
            sub = subparsers.choices[command]
            dests = {action.dest for action in sub._actions if action.dest != "help"}
            names = {f.name for f in fields(RunConfig) if command in f.metadata["reads"]}
            presets = {"preset"} if command in ("spectrum", "fig3") else set()
            assert dests == names | presets | {"config"}, command
            read |= names
        assert read == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("argv", [
        ("fig3", "--preset", "fig3a", "--a", "1"),
        ("fig3", "--preset", "fig3a", "--branch", "minus"),
        ("fig3", "--preset", "fig3a", "--kappa-min", "-3"),
        ("wavefunction", "--kappa", "-2", "--n-max", "3"),
        ("verify", *SMALL_GRID, "--branch", "minus"),
        ("verify", *SMALL_GRID, "--tolerance", "1"),
        ("verify", *SMALL_GRID, "--step-count", "800"),
        ("verify", *SMALL_GRID, "--b-values", "1,2"),
        ("verify", *SMALL_GRID, "--a-grid", "0"),
        ("verify", *SMALL_GRID, "--preset", "fig1"),
        ("wavefunction", "--kappa", "-2", "--preset", "fig1"),
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        assert run_cli(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_key_the_subcommand_does_not_read_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b=2\npoints=5\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1
        assert "points" in capsys.readouterr().err

    def test_verify_tolerance_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance=1\n")
        assert run_cli("verify", "--config", str(cfg)) == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, b_values, a_values", [
        ((), (0.5, 1.0, 2.0, -0.5, -1.0, -2.0), (0.0, 0.5, -0.5, 2.0, -2.0)),
        (("--b", "2"), (2.0,), (0.0, 0.5, -0.5, 2.0, -2.0)),
        (("--a", "0.5"), (0.5, 1.0, 2.0, -0.5, -1.0, -2.0), (0.5,)),
    ])
    def test_verify_grid_of_b_and_a(self, argv, b_values, a_values, monkeypatch):
        grids = []

        def record(mass, b_grid, a_grid, *args, **kwargs):
            grids.append((tuple(b_grid), tuple(a_grid)))
            table = {name: [] for name in cli._VERIFY_COLUMNS}
            cli._add_row(table, passed=True)
            return table, dict.fromkeys(("sweeps", "steps", "newton_steps", "rk4_steps"), 0)

        monkeypatch.setattr(cli, "verification_grid_rows", record)
        assert run_cli("verify", *argv) == 0
        assert grids == [(b_values, a_values)]

    def test_fig3_level_defaults_to_one(self, tmp_path):
        bare, explicit = tmp_path / "bare.csv", tmp_path / "explicit.csv"
        assert run_cli("fig3", "--b", "1", "--a-values", "0", "--out", str(bare)) == 0
        assert run_cli("fig3", "--b", "1", "--a-values", "0", "--n", "1",
                       "--out", str(explicit)) == 0
        assert bare.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("fig3", "--a-values", "0"),
        ("wavefunction", "--kappa", "-1"),
        ("verify", "--kappa-min", "-1", "--kappa-max", "1"),
    ])
    @pytest.mark.parametrize("b", ["--b 0", "--b -0.0", "b=0 in the config"])
    def test_b_zero_is_usage_error(self, argv, b, tmp_path, capsys):
        # at b = 0 the window M <= |E| < M* is empty: one check refuses it
        # for every subcommand, whether a flag or a config key sets it
        if b.startswith("--"):
            code = run_cli(*argv, *b.split())
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("b=0\n")
            code = run_cli(*argv, "--config", str(cfg))
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: b = 0: the window M <= |E| < M* is empty, and no channel binds\n")

    def test_verify_reads_b_and_a_from_config(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "verify.csv"
        cfg.write_text("b=2\na=0\nkappa_min=-2\nkappa_max=-1\nn_max=0\n")
        assert run_cli("verify", "--config", str(cfg), "--out", str(out)) == 0
        rows = read_csv_rows(out)
        assert rows and {(r["b"], r["a"]) for r in rows} == {("2.0", "0.0")}

    def test_no_abbreviated_flags(self):
        # --a-v would otherwise stand for --a-values
        assert run_cli("fig3", "--preset", "fig3a", "--a-v", "0") == 1
