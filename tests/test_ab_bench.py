"""The A/B summary of scripts/ab_bench.py, on canned samples."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_canned_pairs(ab_bench):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0]  # wins pairs 1, 3, 5; ties pair 2
    pairs = [({"wall_s": p, "hits": p}, {"wall_s": c, "hits": c})
             for p, c in zip(parent, change)]
    summary = ab_bench.summarize(pairs, {"wall_s": "lower", "hits": "higher"})
    assert summary["wall_s"] == {
        "parent_median": 3.0, "change_median": 2.5,
        # inclusive quartiles of 1..5 are 2 and 4
        "parent_quartile_spread": 2.0,
        "change_wins": 3, "parent_wins": 1, "pairs": 5}
    assert (summary["hits"]["change_wins"], summary["hits"]["parent_wins"]) == (1, 3)


def test_quartile_spread_of_one_run_is_zero(ab_bench):
    assert ab_bench.quartile_spread([0.7]) == 0.0
    assert ab_bench.quartile_spread([1.0, 3.0]) == 1.0  # quartiles 1.5 and 2.5


def _trace(values: dict) -> dict:
    """A canned `--trace 1` run as run_once returns it."""
    return {"meta": {"commit": "x"},
            "result": {"metrics": {name: {"value": v, "unit": "ms"}
                                   for name, v in values.items()}}}


def test_check_times_pair_each_checks_cold_ms(ab_bench):
    parent = _trace({"checks.box-kernel-product.cold_ms": 80.0,
                     "checks.box-kernel-product.warm_ms": 70.0,
                     "checks.subtorus-not-principal.cold_ms": 65.0,
                     "checks.gone.cold_ms": 1.0,
                     "exact_linalg.snf.calls": 231})
    change = _trace({"checks.subtorus-not-principal.cold_ms": 50.0,
                     "checks.box-kernel-product.cold_ms": 60.0,
                     "checks.new.cold_ms": 2.0,
                     "exact_linalg.snf.calls": 190})
    # in the parent's order; warm times, other metrics and one-sided checks are left out
    assert ab_bench.check_times(parent, change) == [
        ("box-kernel-product", 80.0, 60.0), ("subtorus-not-principal", 65.0, 50.0)]
