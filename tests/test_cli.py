import csv
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from diractensor import NoBracketError, cli
from diractensor.cli import (
    RunConfig,
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

    def test_b_zero_is_usage_error(self, capsys):
        assert run_cli("spectrum", "--b", "0") == 1
        assert "no channel binds" in capsys.readouterr().err

    def test_empty_kappa_range_is_usage_error(self):
        assert run_cli("spectrum", "--kappa-min", "3", "--kappa-max", "-3") == 1

    def test_unbound_channels_flagged(self):
        rows = run_spectrum(RunConfig(b=1.0, kappa_min=-2, kappa_max=2, n_max=1))
        unbound = [r for r in rows if not r["bound_flag"]]
        assert {r["kappa"] for r in unbound} == {1, 2}
        assert all(r["E"] is None for r in unbound)

    def test_minus_branch(self):
        rows = run_spectrum(RunConfig(b=1.0, kappa_min=-1, kappa_max=-1, n_max=2, branch="minus"))
        bound = [r for r in rows if r["bound_flag"]]
        assert len(bound) == 2  # the special level has no minus twin
        assert all(r["E"] < 0 for r in bound)


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
        rows = run_fig3(cfg)
        edge = [r for r in rows if r["kappa"] == -1]
        assert len(edge) == 1
        assert edge[0]["kappa_bar"] == -0.5
        assert edge[0]["bound_flag"] is False
        assert edge[0]["E_over_M"] is None

    def test_only_kappa_bar_matters(self):
        # shifting a by +1 while shifting kappa by -1 leaves each level alone
        base = run_fig3(RunConfig(b=1.0, n=1, a_values=(0.0,),
                                  kappa_bar_min=-10.0, kappa_bar_max=-0.5))
        shifted = run_fig3(RunConfig(b=1.0, n=1, a_values=(1.0,),
                                     kappa_bar_min=-10.0, kappa_bar_max=-0.5))
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

    def test_level_zero_rejected(self):
        assert run_cli("fig3", "--preset", "fig3a", "--n", "0") == 1

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

    def test_unbound_channel_exits_nonzero(self, capsys):
        assert run_cli("wavefunction", "--kappa", "1", "--n", "1") == 1
        err = capsys.readouterr().err
        assert "b*kappa_bar < 0" in err and "|kappa_bar| > 1/2" in err

    def test_overflow_is_an_error_exit(self, monkeypatch, capsys):
        # stands in for overflows such as the closed-form normaliser's at kappa = -150
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "sample_state", overflow)
        assert run_cli("wavefunction", "--kappa", "-2", "--n", "1") == 1
        assert capsys.readouterr().err.startswith("error: numeric overflow:")

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
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-2",
                       "--kappa-max", "-1", "--n-max", "1", "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert rows and all(r["passed"] == "true" for r in rows)
        oracle_rows = [r for r in rows if r["check"] in ("oracle", "special")]
        assert max(float(r["delta_e"]) for r in oracle_rows) < 1e-7

    def test_injected_error_detected(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "1",
                       "--inject-energy-error", "1e-3", "--out", str(out))
        assert code == 2
        rows = read_csv_rows(out)
        assert any(r["passed"] == "false" for r in rows)

    def test_oracle_failure_is_a_verification_exit(self, monkeypatch, capsys):
        # stands in for shooting failures such as the missing bracket at n >= 10
        def no_bracket(*args, **kwargs):
            raise NoBracketError("no level with 10 nodes")

        monkeypatch.setattr(cli, "solve_bound_level", no_bracket)
        code = run_cli("verify", "--b", "1", "--a", "0", "--kappa-min", "-1",
                       "--kappa-max", "-1", "--n-max", "1")
        assert code == 2
        assert capsys.readouterr().err.startswith("verification failed: no level")

    def test_b_zero_sweep(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli("verify", "--b", "0", "--kappa-min", "-3", "--kappa-max", "3",
                       "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert rows and all(r["check"] == "no_binding" and r["passed"] == "true" for r in rows)

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

    def test_stdout_emission(self, capsys):
        assert run_cli("spectrum", "--kappa-min", "-1", "--kappa-max", "-1",
                       "--n-max", "0") == 0
        out = capsys.readouterr().out
        assert out.startswith("kappa,")


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
            "kappa_bar_max": -1.5, "tolerance": 1e-6, "inject_energy_error": 0.002,
            "b_values": (0.5, -2.0), "a_grid": (0.0,), "step_count": 5000,
        }
        assert set(expected) == {f.name for f in fields(RunConfig)}
        text = "".join(f"{key}={value}\n" for key, value in expected.items()
                       if not isinstance(value, tuple))
        text += "a_values=-1,0.5\nb-values=0.5, -2\na_grid=0\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        values = load_config_file(str(cfg))
        assert values == expected
        for key, value in values.items():
            assert type(value) is type(expected[key]), key

    def test_bad_boolean_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("conjugate=maybe\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1
        assert "boolean expected for conjugate" in capsys.readouterr().err
