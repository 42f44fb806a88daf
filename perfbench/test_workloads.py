"""Tests of the benchmark's own checks, tracer and import-time parsing.

Run from the repository root:  python3 -m pytest perfbench
Each output check has a negative control that must be scored wrong, so no
check passes by construction.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import diractensor  # noqa: E402
from diractensor import Channel, ModelParams, cli, oracle  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_GRID = ["--b", "1", "--a", "0", "--kappa-min", "-2", "--kappa-max", "-1", "--n-max", "1"]


def test_verify_check_passes_clean_grid_and_fails_injected_error(tmp_path):
    out = tmp_path / "verify.csv"
    rc = workloads.cli_call(["verify", *SMALL_GRID, "--out", str(out)])()
    assert workloads.check_verify(rc, out) == []
    rc = workloads.cli_call(
        ["verify", *SMALL_GRID, "--inject-energy-error", "1e-3", "--out", str(out)])()
    assert workloads.check_verify(rc, out) == ["exit_code_2"]
    # the row check alone also catches it, whatever the exit code says
    assert workloads.check_verify(0, out) == ["row_not_passed"]


def test_preset_check_fails_on_one_altered_byte(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = workloads.cli_call(["spectrum", "--preset", "fig1", "--out", str(out)])()
    golden = (HERE.parent / "tests" / "golden" / "fig1.csv").read_bytes()
    assert workloads.check_preset(rc, out.read_bytes(), golden) == []
    altered = bytearray(golden)
    altered[len(altered) // 2] ^= 1
    assert workloads.check_preset(rc, out.read_bytes(), bytes(altered)) == ["golden_mismatch"]


def test_level_check_fails_on_detuned_energy():
    params, channel = ModelParams(1.0, 0.0, 1.0), Channel.from_kappa(-2)
    result = diractensor.solve_bound_level(params, channel, "upper", 2)
    exact = workloads.closed_form_level(params, channel, 2)
    assert workloads.check_level(result, exact, 2) == []
    assert workloads.check_level(result, exact + 1e-6, 2) == ["delta_e"]
    assert workloads.check_level(result, exact, 3) == ["node_count"]


def test_wavefunction_check_catches_known_node_count_defect(tmp_path):
    out = tmp_path / "wf.csv"
    rc = workloads.cli_call(["wavefunction", "--kappa", "-2", "--n", "3", "--out", str(out)])()
    assert workloads.check_wavefunction(rc, out) == []
    # the sampling box 30/gamma cuts off the tail: 4 nodes reported for n = 5
    rc = workloads.cli_call(["wavefunction", "--kappa", "-20", "--n", "5", "--out", str(out)])()
    assert "node_count_g" in workloads.check_wavefunction(rc, out)


def test_window_check_fails_when_energies_leave_the_window(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = workloads.cli_call(["spectrum", "--preset", "fig1", "--out", str(out)])()
    assert workloads.check_window(rc, out, 1.0, 1.0, "E") == []
    assert workloads.check_window(rc, out, 1.0, 0.1, "E") == ["energy_window"]
    assert workloads.check_window(rc, out, 1.1, 1.0, "E") == ["energy_window"]


@pytest.mark.parametrize("name", ["shoot-ladder", "cli-requests"])
def test_rounds_repeat_for_a_seed(tmp_path, name):
    labels = [[op.label for op in workloads.WORKLOADS[name](7, HERE.parent, tmp_path).round()]
              for _ in range(2)]
    assert labels[0] == labels[1]
    other = [op.label for op in workloads.WORKLOADS[name](8, HERE.parent, tmp_path).round()]
    assert other != labels[0]


def test_tracer_nests_spans_and_restores_functions():
    original_cli = cli.solve_bound_level
    tracer = tracing.Tracer(workloads.closed_form_level)
    tracer.install()
    try:
        assert cli.solve_bound_level is not original_cli
        assert diractensor.solve_bound_level is oracle.solve_bound_level
        diractensor.solve_bound_level(ModelParams(1.0, 0.0, 1.0), Channel.from_kappa(-1),
                                      "upper", 1)
    finally:
        tracer.uninstall()
    assert cli.solve_bound_level is original_cli
    names = [span[0] for span in tracer.spans]
    assert names == ["oracle.solve_bound_level"] + ["oracle.shoot_eigenvalue"] * 2
    assert all(span[3] == 0 for span in tracer.spans[1:])
    metrics = tracer.layer_metrics(1.0)
    assert metrics["oracle.shoot_eigenvalue.per_level"][0] == 2
    assert metrics["oracle.count_sign_changes.per_level"][0] > 2
    assert metrics["oracle.solve_bound_level.max_abs_dE"][0] < 1e-7


def test_import_split_attributes_nested_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     _ctypes",
        "import time:        20 |         50 |   scipy.special",
        "import time:         5 |        205 | diractensor",
        "import time:         7 |          7 | encodings",
    ])
    split = run.import_split(report)
    assert split == pytest.approx({"numpy": 150e-6, "scipy": 50e-6, "diractensor": 5e-6})
