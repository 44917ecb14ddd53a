"""The summary arithmetic of tools/bench_pairs.py, on made-up runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"data_per_ref_s": "higher", "setup_s": "lower"}


def _run(rate, setup, points):
    metrics = {"data_per_ref_s": {"value": rate}, "setup_s": {"value": setup}}
    return {
        "result": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics},
        "host_factor": 1.0,
        "sweep_wall_s": sum(y for _, y in points) / len(points),
        "reference_wall_s": sum(x for x, _ in points) / len(points),
        "ref_sweep_walls": points,
    }


def test_the_side_fit_recovers_an_offset_that_host_phases_would_hide():
    # sweep = 0.2 + 0.3 * reference, and the change's sweeps 0.01 s faster
    # on the line; the change drew slower references, so its raw sweeps
    # alone look no faster
    def line(x, off=0.0):
        return x, 0.2 + 0.3 * x + off

    runs = {
        "parent": [_run(1, 1, [line(0.5), line(0.6)]), _run(1, 1, [line(0.55), line(0.65)])],
        "change": [_run(1, 1, [line(0.6, -0.01), line(0.7, -0.01)]), _run(1, 1, [line(0.65, -0.01), line(0.75, -0.01)])],
    }
    fit = bench_pairs.fits(runs)["with_side"]
    assert fit["slope"] == pytest.approx(0.3) and fit["parent_intercept_s"] == pytest.approx(0.2)
    assert fit["change_offset_s"] == pytest.approx(-0.01)


@pytest.mark.parametrize(
    "change_rates, met",
    [
        ([110] * 9 + [90], True),  # 9/10 wins, median +10 beyond the parent's spread
        ([110] * 8 + [90] * 2, False),  # 8/10 wins
        ([100.6] * 10, False),  # 10/10 wins, gain inside the parent's spread
    ],
)
def test_the_claim_needs_nine_of_ten_wins_and_a_gain_beyond_the_parent_iqr(change_rates, met):
    parent_rates = [99, 100, 99.5, 100, 99, 100.5, 100, 100, 99, 100.5]
    points = [(0.5, 0.35), (0.6, 0.38)]
    runs = {
        "parent": [_run(x, 0.1, points) for x in parent_rates],
        "change": [_run(x, 0.1, points) for x in change_rates],
    }
    order = ["parent", "change"] * 5
    summary = bench_pairs.summarize(runs, order, list(range(10)), BETTER)
    assert summary["change_wins"]["setup_s"] == "0/10"  # ties count for neither side
    result = bench_pairs.claim("gate:data_per_ref_s", {"gate": summary}, BETTER)["result"]
    assert result.startswith("met" if met else "not met")
