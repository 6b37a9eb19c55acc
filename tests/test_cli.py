import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twrc import (
    PRESETS,
    Scenario,
    SolverError,
    ValidationError,
    db_to_linear,
    hbc_boundary,
    load_scenario,
    mabc_boundary,
    preset_scenario,
    run_compare,
    run_thresholds,
    validate_gains,
)
from twrc import cli
from twrc.cli import MAX_ALPHA_GRID, MAX_GAMMA2_POINTS, MAX_THETA_POINTS, main
from twrc.outer import Thresholds

ALL_PROTOCOLS = ("mabc", "tdbc", "hbc", "six-state-df", "six-state", "comabc")


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestScenario:
    def test_presets(self):
        assert PRESETS["case-a"] == (10.0, 15.0, 3.0)
        assert PRESETS["case-b"] == (20.0, 20.0, 8.0)
        assert PRESETS["case-c"] == (30.0, 35.0, 13.0)
        assert PRESETS["low-snr"] == (0.0, 5.0, -7.0)
        sc = preset_scenario("case-a")
        assert (sc.gamma1_db, sc.gamma2_db, sc.gamma3_db) == (10.0, 15.0, 3.0)
        assert sc.theta_points == 181
        assert sc.alpha_grid == 33

    def test_load_scenario_file(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(
            "# demo\n"
            "name = demo\n"
            "gamma1_db = 10\n"
            "gamma2_db = 15\n"
            "gamma3_db = 3\n"
            "theta_points = 17\n"
            "protocols = outer, mabc\n"
        )
        sc = load_scenario(f)
        assert sc.name == "demo"
        assert sc.theta_points == 17
        assert sc.alpha_grid == 33
        assert sc.protocols == ("outer", "mabc")

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("name = x\ngamma1_db = ten\n")
        with pytest.raises(ValidationError, match="bad.cfg:2"):
            load_scenario(f)

    def test_unknown_protocol_rejected(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text(
            "name = x\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n"
            "protocols = warp-drive\n")
        with pytest.raises(ValidationError, match="warp-drive"):
            load_scenario(f)

    def test_ordering_violation_after_conversion(self, tmp_path):
        f = tmp_path / "o.cfg"
        f.write_text("name = x\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 20\n")
        sc = load_scenario(f)
        with pytest.raises(ValidationError):
            sc.gains(auto_swap=True)

    def test_missing_keys(self, tmp_path):
        f = tmp_path / "m.cfg"
        f.write_text("name = x\n")
        with pytest.raises(ValidationError, match="missing required"):
            load_scenario(f)

    @pytest.mark.parametrize("field", ["theta_points", "alpha_grid"])
    @pytest.mark.parametrize("value", [3.5, 4.0, "5"])
    def test_grid_sizes_must_be_integers(self, field, value):
        # refused when the scenario is built, before any sweep starts
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            preset_scenario("case-a", **{field: value})

    def test_grid_sizes_take_numpy_integers(self, tmp_path):
        sc = preset_scenario("case-a", theta_points=np.int64(3), alpha_grid=np.int32(2),
                             protocols=("six-state-df",))
        assert type(sc.theta_points) is int and type(sc.alpha_grid) is int
        run_compare(sc, out_dir=tmp_path)
        summary = json.loads((tmp_path / "case-a_summary.json").read_text())
        assert (summary["scenario"]["theta_points"], summary["scenario"]["alpha_grid"]) == (3, 2)


@pytest.fixture(scope="module")
def compare_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    sc = preset_scenario("case-a", theta_points=9, alpha_grid=3,
                         protocols=ALL_PROTOCOLS)
    paths = run_compare(sc, out_dir=out)
    return out, paths


class TestRunCompare:

    def test_emits_seven_csvs_and_summary(self, compare_out):
        out, paths = compare_out
        csvs = [p for p in paths if p.suffix == ".csv"]
        assert len(csvs) == 7  # outer plus the six protocols
        assert (out / "case-a_summary.json").exists()

    def test_csv_roundtrip_matches_library(self, compare_out, case_a):
        out, _ = compare_out
        _, rows = read_csv(out / "case-a_mabc.csv")
        for row in rows[:4]:
            k = float(row["k"])
            p = mabc_boundary(k, case_a)
            assert float(row["ra"]) == pytest.approx(p.ra, abs=1e-9)
            assert float(row["rb"]) == pytest.approx(p.rb, abs=1e-9)

    def test_csv_columns(self, compare_out):
        out, _ = compare_out
        header, rows = read_csv(out / "case-a_outer.csv")
        assert header == ["theta_deg", "k", "ra", "rb",
                          "lambda1", "lambda2", "lambda3", "lambda4",
                          "lambda5", "lambda6", "active_state_count"]
        assert len(rows) == 9 + 2  # interior angles plus both axis endpoints
        assert all(int(r["active_state_count"]) <= 4 for r in rows)

    def test_summary_orders_protocols(self, compare_out):
        out, _ = compare_out
        summary = json.loads((out / "case-a_summary.json").read_text())
        assert summary["schema_version"] == 1
        protos = summary["protocols"]
        # the six-state protocol dominates every decode-and-forward protocol
        # (the lattice-forwarding CoMABC may exceed it near the sum-rate bulge)
        six = protos["six-state"]["symmetric_rate"]
        for name in ("mabc", "tdbc", "hbc", "six-state-df"):
            assert six >= protos[name]["symmetric_rate"] - 1e-9
        assert protos["outer"]["max_gap_vs_outer"] == 0.0
        assert protos["comabc"]["max_gap_vs_outer"] >= 0.0

    def test_duplicate_protocols_run_once(self, tmp_path):
        sc = preset_scenario("case-a", theta_points=3, protocols=("mabc", "outer", "mabc"))
        paths = run_compare(sc, out_dir=tmp_path)
        assert [p.name for p in paths] == ["case-a_outer.csv", "case-a_mabc.csv",
                                           "case-a_summary.json"]

    def test_empty_protocols_means_outer_only(self, tmp_path):
        sc = preset_scenario("case-b", theta_points=5)
        paths = run_compare(sc, out_dir=tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["case-b_outer.csv", "case-b_summary.json"]

    def test_deterministic_output(self, tmp_path):
        sc = preset_scenario("low-snr", theta_points=7, alpha_grid=2,
                             protocols=("mabc", "six-state-df"))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        p1 = run_compare(sc, out_dir=d1)
        p2 = run_compare(sc, out_dir=d2)
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_auto_swap_mirrors_back(self, tmp_path):
        sc = Scenario(name="swapped", gamma1_db=15.0, gamma2_db=10.0,
                      gamma3_db=3.0, theta_points=9, protocols=("hbc",))
        run_compare(sc, out_dir=tmp_path)
        summary = json.loads((tmp_path / "swapped_summary.json").read_text())
        assert summary["scenario"]["swapped"] is True
        _, rows = read_csv(tmp_path / "swapped_hbc.csv")
        thetas = [float(r["theta_deg"]) for r in rows]
        assert thetas == sorted(thetas)
        # mirrored sweep must agree with computing on the pre-swapped gains
        g = validate_gains(db_to_linear(10.0), db_to_linear(15.0), db_to_linear(3.0))
        for row in rows:
            k = float(row["k"])
            if math.isinf(k) or k == 0.0:
                continue
            p = hbc_boundary(1.0 / k, g)
            assert float(row["ra"]) == pytest.approx(p.rb, abs=1e-9)
            assert float(row["rb"]) == pytest.approx(p.ra, abs=1e-9)


class TestThresholdsCsv:
    def test_anchor_row_and_monotone(self, tmp_path):
        path = run_thresholds((0.0, 40.0, 5.0), (1.0, 0.5, 0.1), tmp_path / "th.csv")
        _, rows = read_csv(path)
        anchor = [r for r in rows if r["c"] == "1" and r["gamma2_db"] == "20"]
        assert len(anchor) == 1
        assert float(anchor[0]["threshold_db"]) == pytest.approx(15.78896859662137, abs=1e-6)
        for c in ("1", "0.5", "0.1"):
            col = [float(r["threshold_db"]) for r in rows if r["c"] == c]
            assert all(b >= a - 1e-9 for a, b in zip(col, col[1:]))

    def test_single_row_when_step_exceeds_range(self, tmp_path):
        path = run_thresholds((20.0, 25.0, 10.0), (1.0,), tmp_path / "one.csv")
        _, rows = read_csv(path)
        assert len(rows) == 1

    def test_fractional_step_keeps_the_last_row(self, tmp_path, monkeypatch):
        # summing 0.01 ten thousand times overshoots 100 and lost the last row
        monkeypatch.setattr(cli, "capacity_thresholds", lambda g: Thresholds(gamma30=1.0))
        path = run_thresholds((0.0, 100.0, 0.01), (1.0,), tmp_path / "fine.csv")
        _, rows = read_csv(path)
        assert len(rows) == 10_001
        assert [r["gamma2_db"] for r in rows[-2:]] == ["99.99", "100"]
        assert rows[1234]["gamma2_db"] == "12.34"

    def test_grid_above_limit_is_2(self, tmp_path, capsys):
        rc = main(["thresholds", "--gamma2-db", "0:40:1e-9", "--out", str(tmp_path)])
        assert rc == 2
        assert f"<= {MAX_GAMMA2_POINTS} points" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_at_limit_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "capacity_thresholds", lambda g: Thresholds(gamma30=1.0))
        top = (MAX_GAMMA2_POINTS - 1) * 0.001
        path = run_thresholds((0.0, top, 0.001), (1.0,), tmp_path / "max.csv")
        assert len(path.read_text().splitlines()) == 1 + MAX_GAMMA2_POINTS

    def test_bad_c_values_is_2(self, tmp_path, capsys):
        rc = main(["thresholds", "--gamma2-db", "0:10:5", "--c-values", "abc",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--c-values" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_empty_c_values_is_2(self, tmp_path, capsys):
        rc = main(["thresholds", "--gamma2-db", "0:0:1", "--c-values", "",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "at least one c" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejects_bad_range(self, tmp_path):
        with pytest.raises(ValidationError):
            run_thresholds((10.0, 5.0, 1.0), (1.0,), tmp_path / "x.csv")
        with pytest.raises(ValidationError):
            run_thresholds((0.0, 10.0, 0.0), (1.0,), tmp_path / "x.csv")
        with pytest.raises(ValidationError):
            run_thresholds((0.0, 10.0, 1.0), (1.5,), tmp_path / "x.csv")


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        rc = main(["outer", "--preset", "case-a", "--theta-points", "5",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("name = x\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 99\n")
        rc = main(["compare", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_preset_is_2(self, tmp_path, capsys):
        rc = main(["outer", "--preset", "nope", "--out", str(tmp_path)])
        assert rc == 2

    def test_duplicate_scenario_key_is_2(self, tmp_path, capsys):
        f = tmp_path / "dup.cfg"
        f.write_text("name = x\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n"
                     "gamma1_db = 12\n")
        rc = main(["compare", "--scenario", str(f), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "dup.cfg:5: duplicate key 'gamma1_db'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_scenario_with_preset_is_2(self, tmp_path, capsys):
        f = tmp_path / "s.cfg"
        f.write_text("name = x\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", str(f), "--preset", "case-b",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_neither_scenario_nor_preset_is_2(self, tmp_path, capsys):
        rc = main(["compare", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "provide either --scenario FILE or --preset NAME" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_io_error_is_4(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        (tmp_path / "read-only").mkdir()
        # os.access grants root everything, so the test denies write access itself
        access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: "read-only" not in str(path) and access(path, mode))

        def sweep_region(*args, **kwargs):
            raise AssertionError("swept before finding --out unusable")

        # an unusable --out is found before any sweep runs, and nothing is made
        monkeypatch.setattr(cli, "sweep_region", sweep_region)
        for sub in ("blocker/sub", "blocker/sub/deeper", "read-only/sub"):
            rc = main(["outer", "--preset", "case-a", "--theta-points", "5",
                       "--out", str(tmp_path / sub)])
            assert rc == 4, sub
            assert capsys.readouterr().err.startswith("i/o error: ")
        assert blocker.read_text() == "file, not a directory"
        assert list((tmp_path / "read-only").iterdir()) == []

    @pytest.mark.parametrize("cause, code, prefix", [
        (SolverError("time shares sum to 1.000000003, above 1"), 3, "solver error: "),
        (ValidationError("time shares sum to 1.000000003, above 1"), 2, "error: "),
    ], ids=["solver-error", "validation-error"])
    def test_sweep_failure_exits_as_its_cause(self, tmp_path, capsys, monkeypatch,
                                              cause, code, prefix):
        def evaluate(gains, alpha_grid):
            def point(k):
                if k >= 1.0:
                    raise cause
                return mabc_boundary(k, gains)
            return point

        monkeypatch.setitem(cli._EVALUATORS, "mabc", evaluate)
        out = tmp_path / "out"
        rc = main(["sweep", "--preset", "case-a", "--protocol", "mabc",
                   "--theta-points", "5", "--out", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith(prefix + "evaluator failed at theta = 45.0 deg")
        assert err.rstrip().endswith(str(cause))
        assert not out.exists()

    def test_non_utf8_scenario_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"name = caf\xe9\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n")
        assert main(["outer", "--scenario", str(cfg), "--out", str(tmp_path)]) == 2
        assert "latin1.cfg: not UTF-8" in capsys.readouterr().err

    def test_overflowing_db_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("name = big\ngamma1_db = 4000\ngamma2_db = 4000\ngamma3_db = 3\n")
        assert main(["outer", "--scenario", str(cfg), "--out", str(tmp_path)]) == 2
        assert "4000.0 overflows" in capsys.readouterr().err
        out = tmp_path / "th"
        assert main(["thresholds", "--gamma2-db=4000:4001:1", "--out", str(out)]) == 2
        assert "4000.0 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_single_protocol(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "case-a", "--protocol", "comabc",
                   "--theta-points", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "case-a_comabc.csv").exists()
        assert (tmp_path / "case-a_outer.csv").exists()

    def test_thresholds_cli(self, tmp_path, capsys):
        rc = main(["thresholds", "--gamma2-db", "10:20:5", "--c-values", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "thresholds.csv").exists()

    def test_thresholds_cli_range_below_0_db(self, tmp_path, capsys):
        # the documented = form; "--gamma2-db -40:40:1" would read the range as an option
        assert main(["thresholds", "--gamma2-db=-40:40:1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "thresholds.csv")
        for c in ("1", "0.5", "0.1"):
            grid = [r["gamma2_db"] for r in rows if r["c"] == c]
            assert grid == [str(db) for db in range(-40, 41)]

    @pytest.mark.parametrize("name", ["../escaped", "sub/x", "..", ".", "a\\b"])
    def test_name_that_leaves_out_dir_is_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name = {name}\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n")
        rc = main(["outer", "--scenario", str(cfg), "--theta-points", "5",
                   "--out", str(out)])
        assert rc == 2
        assert "scenario name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]

    def test_empty_name_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name =\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n")
        assert main(["outer", "--scenario", str(cfg), "--out", str(tmp_path)]) == 2

    def test_theta_points_above_limit_is_2(self, tmp_path, capsys):
        rc = main(["outer", "--preset", "case-a",
                   "--theta-points", str(MAX_THETA_POINTS + 1), "--out", str(tmp_path)])
        assert rc == 2
        assert f"<= {MAX_THETA_POINTS}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_alpha_grid_above_limit_is_2(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "case-a", "--protocol", "six-state-df",
                   "--alpha-grid", str(MAX_ALPHA_GRID + 1), "--out", str(tmp_path)])
        assert rc == 2
        assert f"<= {MAX_ALPHA_GRID}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_limits_themselves_are_accepted(self):
        sc = preset_scenario("case-a", theta_points=MAX_THETA_POINTS, alpha_grid=MAX_ALPHA_GRID)
        assert (sc.theta_points, sc.alpha_grid) == (MAX_THETA_POINTS, MAX_ALPHA_GRID)


def _written(capsys):
    return [Path(line).name for line in capsys.readouterr().out.splitlines()]


class TestMainScenarioPlumbing:
    """How main() combines a scenario file with the command line."""

    @pytest.fixture
    def cfg(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("name = plumb\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n"
                     "theta_points = 5\nalpha_grid = 3\nprotocols = mabc, hbc\n")
        return f

    def test_compare_keeps_the_file_protocols(self, cfg, tmp_path, capsys):
        assert main(["compare", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ["plumb_outer.csv", "plumb_mabc.csv", "plumb_hbc.csv",
                                    "plumb_summary.json"]

    def test_compare_without_protocols_anywhere_is_outer_only(self, tmp_path, capsys):
        f = tmp_path / "bare.cfg"
        f.write_text("name = bare\ngamma1_db = 10\ngamma2_db = 15\ngamma3_db = 3\n"
                     "theta_points = 5\n")
        assert main(["compare", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ["bare_outer.csv", "bare_summary.json"]

    def test_compare_protocols_flag_replaces_the_file_list(self, cfg, tmp_path, capsys):
        assert main(["compare", "--scenario", str(cfg), "--protocols", "comabc",
                     "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ["plumb_outer.csv", "plumb_comabc.csv",
                                    "plumb_summary.json"]

    def test_compare_grid_overrides(self, cfg, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(cfg), "--theta-points", "7",
                     "--alpha-grid", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "plumb_summary.json").read_text())
        assert summary["scenario"]["theta_points"] == 7
        assert summary["scenario"]["alpha_grid"] == 2
        assert sorted(summary["protocols"]) == ["hbc", "mabc", "outer"]
        _, rows = read_csv(out / "plumb_hbc.csv")
        assert len(rows) == 7 + 2

    def test_outer_drops_the_file_protocols(self, cfg, tmp_path, capsys):
        assert main(["outer", "--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ["plumb_outer.csv", "plumb_summary.json"]

    def test_sweep_runs_only_the_named_protocol(self, cfg, tmp_path, capsys):
        assert main(["sweep", "--scenario", str(cfg), "--protocol", "six-state",
                     "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ["plumb_outer.csv", "plumb_six-state.csv",
                                    "plumb_summary.json"]

    def test_preset_compare_defaults_to_all_protocols(self, tmp_path, capsys):
        assert main(["compare", "--preset", "low-snr", "--theta-points", "3",
                     "--alpha-grid", "2", "--out", str(tmp_path / "o")]) == 0
        assert _written(capsys) == ([f"low-snr_{p}.csv" for p in ("outer", *ALL_PROTOCOLS)]
                                    + ["low-snr_summary.json"])


@pytest.mark.parametrize("name", cli.PROTOCOL_IDS)
@pytest.mark.parametrize("k", [-math.inf, math.nan])
def test_every_evaluator_rejects_bad_ray_ratios(name, k):
    g = validate_gains(db_to_linear(10.0), db_to_linear(15.0), db_to_linear(3.0))
    with pytest.raises(ValidationError):
        cli.protocol_evaluator(name, g, alpha_grid=2)(k)


def test_python_dash_m_twrc_help():
    import twrc

    env = dict(os.environ, PYTHONPATH=str(Path(twrc.__file__).resolve().parents[1]))
    # twrc.cli must not be imported before runpy runs it, or runpy warns
    for module in ("twrc", "twrc.cli"):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", module, "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (module, proc.stderr)
        assert "usage: twrc" in proc.stdout
