import pytest

from singulus.tables import BettiTable


def test_of_sorts_columns_and_fills_missing():
    t = BettiTable.of(3, 3, {2: [5, 3], 1: [2, 1, 1]})
    assert t.column(1) == (1, 1, 2)
    assert t.column(2) == (3, 5)
    assert t.column(3) == ()
    assert t.m(1) == 3


def test_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        BettiTable.of(1, 3, {})
    with pytest.raises(ValueError, match="d >= 3"):
        BettiTable.of(2, 2, {})
    with pytest.raises(ValueError, match="sorted"):
        BettiTable(2, 3, ((2, 1), ()))
    with pytest.raises(ValueError, match="non-negative"):
        BettiTable.of(2, 3, {1: [-1]})
    # a bool is an int to Python, but no shift
    for shift in (True, False):
        with pytest.raises(ValueError, match="entries must be non-negative integers"):
            BettiTable.of(2, 3, {1: [shift, 2, 2], 2: [3]})
    with pytest.raises(ValueError, match="columns"):
        BettiTable(2, 3, ((1,),))
    # n and d are integers, not floats or bools
    cols = ((2, 2, 2), (4,))
    for n, d, message in ((2.0, 3, "n >= 2"), (True, 3, "n >= 2"), (2, 3.0, "d >= 3"), (2, True, "d >= 3")):
        with pytest.raises(ValueError, match=message):
            BettiTable(n, d, cols)


@pytest.mark.parametrize("key", [4, 0, -1, "1", True, 1.0], ids=repr)
def test_of_rejects_mapping_keys_outside_the_columns(key):
    with pytest.raises(ValueError, match=f"column index {key!r} is not an integer in 1..3"):
        BettiTable.of(3, 3, {key: [1], 1: [2, 2, 2, 2]})


def test_column_index_range():
    t = BettiTable.of(2, 3, {1: [2, 2]})
    with pytest.raises(ValueError):
        t.column(0)
    with pytest.raises(ValueError):
        t.column(3)


def test_max_nonempty():
    assert BettiTable.of(3, 3, {1: [2], 2: [4]}).max_nonempty() == 2
    assert BettiTable.of(3, 3, {}).max_nonempty() is None


def test_equality_and_sequence_construction():
    a = BettiTable.of(2, 4, [[1, 2], [3]])
    b = BettiTable.of(2, 4, {1: [2, 1], 2: [3]})
    assert a == b
