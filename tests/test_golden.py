"""Golden values of `twrc compare` on the four presets with every protocol id.

`golden_compare.json` holds, per preset, every CSV file's lines and the summary
JSON of

    twrc compare --preset NAME --theta-points 7 --alpha-grid 3 --protocols <all ids>

Headers, row counts, theta_deg, k and active_state_count must match exactly;
rates and shares within a relative 1e-9 (absolute 1e-12 near zero), so the
check holds on other CPUs' BLAS kernels.  To rewrite the file after a
deliberate output change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from twrc import PRESETS
from twrc.cli import main

GOLDEN = Path(__file__).with_name("golden_compare.json")
ALL_IDS = ("outer", "outer-analytic", "mabc", "tdbc", "hbc",
           "six-state-df", "six-state", "comabc")
EXACT_COLUMNS = ("theta_deg", "k", "active_state_count")


def compare_outputs(preset: str, out: Path) -> dict:
    """Run `compare` on one preset; return its files in golden form."""
    rc = main(["compare", "--preset", preset, "--theta-points", "7", "--alpha-grid", "3",
               "--protocols", ",".join(ALL_IDS), "--out", str(out)])
    assert rc == 0
    csvs = {p.name: p.read_text().splitlines() for p in sorted(out.glob("*.csv"))}
    return {"csv": csvs, "summary": json.loads((out / f"{preset}_summary.json").read_text())}


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _assert_json_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_compare_matches_golden(preset, golden, tmp_path):
    got, want = compare_outputs(preset, tmp_path), golden[preset]
    assert sorted(got["csv"]) == sorted(want["csv"])
    for name, want_lines in want["csv"].items():
        got_rows = [line.split(",") for line in got["csv"][name]]
        want_rows = [line.split(",") for line in want_lines]
        header = want_rows[0]
        assert got_rows[0] == header, name
        assert len(got_rows) == len(want_rows), name
        for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
            for col, gv, wv in zip(header, g, w, strict=True):
                if col in EXACT_COLUMNS:
                    assert gv == wv, f"{name} row {i} {col}"
                else:
                    assert _close(float(gv), float(wv)), f"{name} row {i} {col}: {gv} != {wv}"
    _assert_json_close(got["summary"], want["summary"], f"{preset}_summary")


if __name__ == "__main__":
    import tempfile

    data = {}
    for name in sorted(PRESETS):
        with tempfile.TemporaryDirectory() as tmp:
            data[name] = compare_outputs(name, Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
