import pytest

from kexnet.errors import InvalidSizeError, SearchTooLargeError
from kexnet.oracle import (
    chromatic_index_lower_bound,
    min_steps_bruteforce,
    overhead_table,
)
from kexnet.schedule import validate_schedule
from kexnet.topology import TopologyKind


def test_star_4():
    assert min_steps_bruteforce(TopologyKind.STAR, 4).min_steps == 3


def test_star_5_below_protocol():
    # the protocol takes 6 steps at n=5; the true minimum is 5
    assert min_steps_bruteforce(TopologyKind.STAR, 5).min_steps == 5


@pytest.mark.parametrize("n", range(2, 9))
def test_fcn_full_always_one(n):
    assert min_steps_bruteforce(TopologyKind.FCN_FULL, n).min_steps == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_matching_bound_is_tight(n):
    result = min_steps_bruteforce(TopologyKind.STAR, n)
    assert result.min_steps == chromatic_index_lower_bound(n)


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", range(2, 7))
def test_witnesses_validate(kind, n):
    result = min_steps_bruteforce(kind, n)
    assert validate_schedule(result.witness).ok
    assert len(result.witness.steps) == result.min_steps


def test_search_ceiling():
    with pytest.raises(SearchTooLargeError):
        min_steps_bruteforce(TopologyKind.STAR, 9)
    assert min_steps_bruteforce(TopologyKind.LCH, 7).min_steps == 12
    result = min_steps_bruteforce(TopologyKind.LCH, 8)
    assert result.min_steps == 16
    assert validate_schedule(result.witness).ok
    assert len(result.witness.steps) == 16
    with pytest.raises(SearchTooLargeError):
        min_steps_bruteforce(TopologyKind.LCH, 9)


def test_bound_examples():
    assert chromatic_index_lower_bound(6) == 5
    assert chromatic_index_lower_bound(7) == 7
    assert chromatic_index_lower_bound(2) == 1
    with pytest.raises(InvalidSizeError):
        chromatic_index_lower_bound(1)


def test_overhead_examples():
    table = dict((row[0], row) for row in overhead_table(range(2, 11)))
    assert table[5] == (5, 6, 5, 1)
    assert table[2] == (2, 1, 1, 0)
    assert table[9] == (9, 12, 9, 3)


def test_overhead_nonnegative():
    for _, steps, bound, overhead in overhead_table(range(2, 51)):
        assert overhead == steps - bound >= 0


def test_overhead_range_checked():
    with pytest.raises(InvalidSizeError):
        overhead_table(range(2, 60))


def test_result_deterministic():
    a = min_steps_bruteforce(TopologyKind.STAR, 6)
    b = min_steps_bruteforce(TopologyKind.STAR, 6)
    assert a == b
