import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import nfisac
from nfisac import cli, harness

GOLDEN_DESK = pathlib.Path(__file__).parent / "data" / "desk_sweep.csv"

SMALL = {
    "geometry": {"n_tx": 4, "n_rx": 4, "n_rf": 2, "carrier_freq_hz": 28.0e9},
    "users": [{"angle_deg": 17.0, "distance_m": 5.0}],
    "target": {"kind": "point", "distance_m": 0.2, "angle_deg": 15.0,
               "reflection": 0.05},
    "constraints": {"sinr_db": None, "ee_threshold": 0.0, "frame_length": 8,
                    "sensing_noise_dbm": 0.0, "power_dbm": 20.0},
    "trials": 0,
}


def _config_file(tmp_path, **overrides):
    d = json.loads(json.dumps(SMALL))
    for k, v in overrides.items():
        if isinstance(v, dict) and k not in ("target",):
            d.setdefault(k, {}).update(v)
        else:
            d[k] = v
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return str(path)


def _strip_comments(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#")) + "\n"


def test_check_subcommand_all_pass(tmp_path):
    out = tmp_path / "check.txt"
    assert cli.main(["check", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines and all(ln.startswith("PASS ") for ln in lines)


def test_sweep_subcommand_writes_parseable_csv(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "res.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# schema_version=")
    table = harness.parse_results_csv(_strip_comments(text))
    assert table.select(metric="bound_trace")


def test_sweep_arch_restriction(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "res.csv"
    assert cli.main(["sweep", "--config", cfg, "--arch", "fully",
                     "--out", str(out)]) == 0
    table = harness.parse_results_csv(_strip_comments(out.read_text()))
    assert {r.arch for r in table.rows} == {"fully"}


def test_sweep_json_format(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "res.json"
    assert cli.main(["sweep", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == harness.SCHEMA_VERSION


def test_heatmap_subcommand(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "map.csv"
    assert cli.main(["heatmap", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,gain"
    assert len(lines) > 100


def test_estimate_subcommand_deterministic(tmp_path):
    cfg = _config_file(tmp_path, trials=2)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["estimate", "--config", cfg, "--seed", "5",
                     "--out", str(out1)]) == 0
    assert cli.main(["estimate", "--config", cfg, "--seed", "5",
                     "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    table = harness.parse_results_csv(out1.read_text())
    assert table.select(metric="mle_rmse_distance")[0].trials == 2
    assert table.select(metric="crb_rmse_angle")


def test_estimate_without_configured_trials_runs_two(tmp_path):
    # trials 0 (no sweep trials) still gives the estimate two, so every
    # standard error is finite
    cfg = _config_file(tmp_path, trials=0)
    out = tmp_path / "a.csv"
    assert cli.main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    table = harness.parse_results_csv(out.read_text())
    for name in ("distance", "angle"):
        (row,) = table.select(metric=f"mle_rmse_{name}")
        assert row.trials == 2 and math.isfinite(row.stderr) and row.stderr > 0


def test_desk_sweep_matches_golden_table(tmp_path):
    # `nfisac sweep --scale desk`, its 200 MLE trials included, against the
    # table written before the system model had one owner per piece: status
    # rows exactly, every other value to 1e-8 relative (1e-12 absolute for
    # values at rounding level, as the fully-connected factorization residual)
    out = tmp_path / "desk.csv"
    assert cli.main(["sweep", "--scale", "desk", "--out", str(out)]) == 0
    text, golden = out.read_text(), GOLDEN_DESK.read_text()
    assert [ln for ln in text.splitlines() if ln.startswith("#")] == \
        [ln for ln in golden.splitlines() if ln.startswith("#")]
    rows = harness.parse_results_csv(_strip_comments(text)).sorted_rows()
    expected = harness.parse_results_csv(_strip_comments(golden)).sorted_rows()
    assert [(r.sweep_var, r.sweep_value, r.arch, r.metric, r.trials) for r in rows] == \
        [(r.sweep_var, r.sweep_value, r.arch, r.metric, r.trials) for r in expected]
    for r, e in zip(rows, expected):
        if r.metric == "status":
            assert r.value == e.value
        else:
            assert r.value == pytest.approx(e.value, rel=1e-8, abs=1e-12), (r.arch, r.metric)
            assert r.stderr == pytest.approx(e.stderr, rel=1e-8, abs=1e-12), (r.arch, r.metric)


def test_infeasible_scenario_exit_code(tmp_path, capsys):
    cfg = _config_file(tmp_path, constraints={"sinr_db": 400.0})
    assert cli.main(["estimate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "violated: sinr" in err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert cli.main(["sweep", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("user, expected", [(None, "1 1 1"), ("3", "3 1 1")])
def test_cli_fixes_one_blas_thread_before_numpy_loads(user, expected):
    # a fresh interpreter that loads the CLI first: every BLAS variable the
    # user left unset reads 1 before numpy loads, and one the user set wins;
    # it loads no scipy module
    env = {k: v for k, v in os.environ.items() if k not in nfisac.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    code = ("import os, sys, nfisac.cli; "
            "print(*(os.environ[v] for v in nfisac.BLAS_THREAD_VARS)); "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[:2] == [expected, ""]


def test_checks_and_a_desk_design_run_without_scipy():
    # a fresh interpreter in which every scipy import raises ImportError:
    # the CLI's invariant checks and a desk point-target design need numpy
    # alone
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    code = ("import sys; sys.modules['scipy'] = None; "
            "from nfisac import cli, config, harness; "
            "status = cli.main(['check', '--scale', 'desk']); "
            "scn = config.config_to_scenario(config.default_config('desk')); "
            "print(status, harness.optimize_scenario(scn)[2].status)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n")[-2] == "0 converged"
