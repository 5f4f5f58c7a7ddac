"""The summing-up of benchmarks/alternate.py, run on fixed inputs: no
benchmark or subprocess runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "alternate.py"
_SPEC = importlib.util.spec_from_file_location("alternate", _PATH)
alternate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(alternate)


def test_seeds_reads_ranges_and_lists():
    assert alternate.seeds("1-10") == list(range(1, 11))
    assert alternate.seeds("1,3,5") == [1, 3, 5]
    assert alternate.seeds("2-4,9") == [2, 3, 4, 9]
    assert alternate.seeds("7") == [7]
    with pytest.raises(ValueError):
        alternate.seeds("one")


def test_layer_times_keeps_median_and_minimum_in_ms():
    # The fields of pytest-benchmark's --benchmark-json document that are read.
    doc = {
        "machine_info": {},
        "benchmarks": [
            {"name": "test_a[x]", "stats": {"median": 0.025, "min": 0.020, "max": 0.1}},
            {"name": "test_b", "stats": {"median": 0.5, "min": 0.25, "mean": 0.6}},
        ],
    }
    assert alternate.layer_times(doc) == {
        "test_a[x]": 25.0,
        "test_a[x] min": 20.0,
        "test_b": 500.0,
        "test_b min": 250.0,
    }
    assert alternate.layer_times({"benchmarks": []}) == {}


def test_summary_of_pairs():
    pairs = [(10.0, 9.0), (12.0, 11.0), (11.0, 12.0), (13.0, 8.0)]
    lower = alternate.summary(pairs, "lower")
    assert lower["parent_median"] == 11.5 and lower["change_median"] == 10.0
    assert lower["parent_quartiles"] == [10.75, 12.25]
    assert lower["change_quartiles"] == [8.75, 11.25]
    assert lower["parent_range"] == [10.0, 13.0] and lower["change_range"] == [8.0, 12.0]
    assert lower["change_vs_parent"] == pytest.approx(-1.5 / 11.5)
    assert (lower["change_better_pairs"], lower["pairs"]) == (3, 4)
    assert alternate.summary(pairs, "higher")["change_better_pairs"] == 1
    # One pair: each side's quartiles are its one value; a tie wins no pair.
    one = alternate.summary([(2.0, 2.0)], "lower")
    assert one["parent_quartiles"] == one["change_quartiles"] == [2.0, 2.0]
    assert one["change_better_pairs"] == 0 and one["change_vs_parent"] == 0
    assert alternate.summary([(0.0, 1.0)], "lower")["change_vs_parent"] is None
