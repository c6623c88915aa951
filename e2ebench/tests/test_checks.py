"""Each output check passes on the recorded output and fails on a perturbed
makespan, cell or row."""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from e2ebench import checks

ROOT = Path(__file__).resolve().parents[2]


def _bump(x: float) -> float:
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("name", ["macro-gemm-n32768", "macro-gemm-n49152-stream"])
def test_runtime_row(name):
    row = checks.bench_row(ROOT, name)
    args = (row["makespan_s"], row["events"], row["tasks"], dict(row["transfers"]))
    assert checks.check_runtime_row(row, *args) == []
    assert checks.check_runtime_row(row, _bump(args[0]), *args[1:])
    assert checks.check_runtime_row(row, args[0], args[1] + 1, *args[2:])
    transfers = dict(args[3], p2p=args[3]["p2p"] - 1)
    assert checks.check_runtime_row(row, *args[:3], transfers)


def test_missing_row():
    with pytest.raises(KeyError):
        checks.bench_row(ROOT, "no-such-row")


CELLS = [("gemm/8192/2048", True, 7.5, 0.125), ("trsm/8192/2048", False, None, None)]
RENDERS = {"fig3": "== fig3 ==\nrow 1", "table2": "== table2 ==\nrow 2"}


def test_sweep_digest_matches_itself():
    digest = checks.sweep_digest(CELLS, RENDERS)
    assert checks.check_sweep(digest, checks.sweep_digest(list(reversed(CELLS)), RENDERS)) == []


def test_sweep_perturbed_cell():
    digest = checks.sweep_digest(CELLS, RENDERS)
    cells = [("gemm/8192/2048", True, _bump(7.5), 0.125), CELLS[1]]
    assert checks.check_sweep(digest, checks.sweep_digest(cells, RENDERS))


def test_sweep_perturbed_row_names_the_experiment():
    digest = checks.sweep_digest(CELLS, RENDERS)
    renders = dict(RENDERS, fig3="== fig3 ==\nrow 1.01")
    (message,) = checks.check_sweep(digest, checks.sweep_digest(CELLS, renders))
    assert "fig3" in message


def test_recorded_sweep_digest_is_well_formed():
    import json

    expected = json.loads(checks.EXPECTED_SWEEP.read_text())
    assert expected["cells"] > 0 and len(expected["experiments"]) == 12
    assert expected["checks"] == {"pass": 53, "fail": 3}


def test_served_cell():
    best = {"library": "xkblas", "routine": "gemm", "n": 8192, "nb": 2048,
            "tflops": 7.5, "seconds": 0.125, "flops": 1e12, "source": "cache"}
    direct = SimpleNamespace(library="XKBlas", routine="gemm", n=8192, nb=2048,
                             tflops=7.5, seconds=0.125, flops=1e12)
    assert checks.check_served(best, direct) == []
    assert checks.check_served(best, SimpleNamespace(**dict(vars(direct),
                                                           seconds=_bump(0.125))))
    assert checks.check_served(best, SimpleNamespace(**dict(vars(direct), nb=4096)))
