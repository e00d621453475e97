import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singulus.errors import BadPrimeError
from singulus.linalg import (
    QQ,
    Field,
    Pivots,
    SparseMatrix,
    _NonUnitPivot,
    _echelon,
    deterministic_primes,
    is_probable_prime,
    rank_mod_p,
    rank_rational,
    reduce_mod,
    rref,
)
from _helpers import (
    dense_rational_rank,
    dense_rref,
    entries,
    from_dense,
    kernel_dim,
    matmul,
    residue,
    to_dense,
)

M61 = 2**61 - 1


def test_reduce_mod_inverts_denominator():
    m = SparseMatrix(1, 1, [(0, 0, Fraction(1, 2))])
    r = reduce_mod(m, 7)
    assert entries(r) == {(0, 0): 4}
    assert r.modulus == 7


def test_reduce_mod_drops_zero_entries():
    m = SparseMatrix(1, 1, [(0, 0, 3)])
    r = reduce_mod(m, 3)
    assert entries(r) == {}
    assert (r.rows, r.cols) == (1, 1)


def test_reduce_mod_residues_are_ints():
    m = SparseMatrix(2, 3, [(0, 0, 1), (0, 2, 5), (1, 1, 6)])
    r = reduce_mod(m, 7)
    assert (r.rows, r.cols, r.modulus) == (2, 3, 7)
    assert entries(r) == entries(m)
    m = SparseMatrix(2, 3, [(0, 0, 1), (0, 2, -1), (1, 1, 7)])
    assert entries(reduce_mod(m, 7)) == {(0, 0): 1, (0, 2): 6}
    # residues are ints even where a value equals an int in [0, p)
    m = SparseMatrix(1, 3, [(0, 0, 3), (0, 1, Fraction(3)), (0, 2, Fraction(10))])
    r = reduce_mod(m, 7)
    assert entries(r) == {(0, 0): 3, (0, 1): 3, (0, 2): 3}
    assert {type(v) for v in entries(r).values()} == {int}
    assert rank_mod_p(m, 7).rank == 1


def test_reduce_mod_bad_prime():
    m = SparseMatrix(1, 1, [(0, 0, Fraction(1, 3))])
    with pytest.raises(BadPrimeError):
        reduce_mod(m, 3)


def test_reduce_mod_names_the_factor_of_a_composite_modulus():
    m = SparseMatrix(1, 1, [(0, 0, Fraction(1, 3))])
    with pytest.raises(BadPrimeError, match=r"entry \(0,0\) divisible by 3") as info:
        reduce_mod(m, 15)
    assert info.value.prime == 3


def test_reduce_mod_repeated_values():
    m = SparseMatrix(
        2,
        4,
        [
            (0, 0, 3),
            (0, 1, Fraction(1, 2)),
            (0, 2, 3),
            (0, 3, Fraction(9, 2)),
            (1, 0, Fraction(1, 2)),
            (1, 1, 6),
            (1, 3, 5),
        ],
    )
    r = reduce_mod(m, 3)
    assert (r.rows, r.cols, r.modulus) == (2, 4, 3)
    # 3, 6 and 9/2 vanish mod 3 and are not stored
    assert entries(r) == {(0, 1): 2, (1, 0): 2, (1, 3): 2}
    assert entries(r) == {
        rc: residue(v, 3) for rc, v in entries(m).items() if residue(v, 3)
    }


def test_reduce_mod_bad_prime_with_repeated_values():
    m = SparseMatrix(
        2,
        2,
        [
            (0, 0, Fraction(1, 2)),
            (0, 1, Fraction(1, 2)),
            (1, 0, Fraction(2, 3)),
            (1, 1, Fraction(2, 3)),
        ],
    )
    assert entries(reduce_mod(m, 5)) == {(0, 0): 3, (0, 1): 3, (1, 0): 4, (1, 1): 4}
    with pytest.raises(BadPrimeError, match=r"entry \(1,0\) divisible by 3"):
        reduce_mod(m, 3)


def test_rank_identity():
    eye = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for p in (2, 5, 101):
        assert rank_mod_p(eye, p).rank == 3


def test_rank_characteristic_dependence():
    m = from_dense([[1, 1], [1, -1]])
    assert rank_mod_p(m, 2).rank == 1
    assert rank_mod_p(m, 5).rank == 2
    assert rank_rational(m).rank == 2


def test_rank_vandermonde_mod_101():
    nodes = [1, 2, 3, 4]
    vm = from_dense([[x**j for j in range(4)] for x in nodes])
    pivots = rank_mod_p(vm, 101)
    assert pivots.rank == 4
    assert set(pivots) == {0, 1, 2, 3}


def test_kernel_dim_examples():
    assert kernel_dim(SparseMatrix(2, 5), 7) == 5
    eye = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_dim(eye, 7) == 0
    assert kernel_dim(from_dense([[1, 2, 3]]), 7) == 2


def test_rank_rational_outer_product():
    u = [1, -2, 3, 5, 7]
    v = [2, 0, -1, 4, 9]
    m = from_dense([[a * b for b in v] for a in u])
    assert rank_rational(m).rank == 1


def test_rank_rational_matches_large_prime_on_random_matrices():
    rng = random.Random(411)
    for _ in range(100):
        dense = [[rng.randint(-30, 30) for _ in range(6)] for _ in range(6)]
        m = from_dense(dense)
        rank = dense_rational_rank(dense)
        assert rank_rational(m).rank == rank
        assert rank_mod_p(m, M61).rank == rank


def test_rank_certificate_consistency():
    m = from_dense([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    pivots = rank_rational(m)
    assert pivots.rank == 2
    assert set(pivots) == {0, 2}


sparse_matrices = st.builds(
    lambda rows, cols, cells: SparseMatrix(
        rows,
        cols,
        {
            (r % rows, c % cols): v
            for (r, c, v) in cells
        },
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(min_value=-20, max_value=20).filter(bool),
        max_size=12,
    ).map(lambda d: [(r, c, v) for (r, c), v in d.items()]),
)


@given(sparse_matrices)
def test_modular_rank_bounds_rational_rank(m):
    rq = rank_rational(m).rank
    for p in (2, 7, 1009):
        assert rank_mod_p(m, p).rank <= rq
    assert rank_mod_p(m, M61).rank == rq


@given(sparse_matrices)
def test_kernel_plus_rank_is_cols(m):
    for p in (5, 97):
        assert kernel_dim(m, p) + rank_mod_p(m, p).rank == m.cols


@settings(max_examples=40)
@given(sparse_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation(m, rng):
    rows = list(range(m.rows))
    cols = list(range(m.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = SparseMatrix(
        m.rows,
        m.cols,
        [(rows[r], cols[c], v) for (r, c), v in entries(m).items()],
    )
    assert rank_rational(permuted).rank == rank_rational(m).rank
    assert rank_mod_p(permuted, 101).rank == rank_mod_p(m, 101).rank


@given(sparse_matrices)
def test_rank_agrees_with_dense_oracle(m):
    assert rank_rational(m).rank == dense_rational_rank(to_dense(m))


def test_rref_normal_forms_touch_only_free_columns():
    rows = [
        {0: Fraction(1), 1: Fraction(2), 3: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(2), 2: Fraction(5), 3: Fraction(2)},
    ]
    pivots = rref(rows, QQ)
    free = {0, 1, 2, 3} - set(pivots)
    for row in pivots.values():
        assert set(row) <= free


def test_rref_mod_p_rank_matches_elimination():
    rng = random.Random(5)
    for _ in range(25):
        dense = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        m = from_dense(dense)
        rows = [
            {c: residue(v, 97) for c, v in enumerate(row) if v % 97} for row in dense
        ]
        rank = len(dense_rref(dense, 97))
        assert len(rref(rows, Field(97))) == rank
        assert rank_mod_p(m, 97).rank == rank


@given(sparse_matrices)
def test_rref_matches_dense_reference_over_QQ(m):
    rows = [{c: Fraction(v) for c, v in row.items()} for row in m.data]
    assert rref(rows, QQ) == _tails(dense_rref(to_dense(m)))


@given(sparse_matrices)
def test_rref_matches_dense_reference_mod_97(m):
    rows = [{c: residue(v, 97) for c, v in row.items() if v % 97} for row in m.data]
    assert rref(rows, Field(97)) == _tails(dense_rref(to_dense(m), 97))


def _tails(pivots):
    """Pivot rows with their leading 1 dropped, as the kernel stores them."""
    return {c: {cc: v for cc, v in row.items() if cc != c} for c, row in pivots.items()}


@given(sparse_matrices)
@example(from_dense([[1, 1], [1, 6]]))  # splits mod 35
def test_every_result_is_pivots_of_tails_on_the_same_pivot_columns(m):
    """rank_mod_p, rank_rational and rref all return Pivots whose rows
    leave out their own column, on the same pivot columns."""
    rows = [{c: Fraction(v) for c, v in row.items()} for row in m.data]
    pairs = [(rank_rational(m), rref(rows, QQ))]
    for p in (97, 35):
        try:
            pairs.append((rank_mod_p(m, p), rref(reduce_mod(m, p).data, Field(p))))
        except _NonUnitPivot:
            assert p == 35
    for echelon, reduced in pairs:
        assert set(echelon) == set(reduced)
        for pivots in (echelon, reduced):
            assert isinstance(pivots, Pivots) and pivots.rank == len(pivots)
            assert all(c not in row for c, row in pivots.items())


@given(sparse_matrices)
def test_lead_marks_the_leading_columns_of_every_row_prefix(m):
    """lead names the row behind each pivot: the pivots of the first t rows
    are the leading columns of their span, and the named rows are a basis."""
    rational = [{c: Fraction(v) for c, v in row.items()} for row in m.data]
    rows97 = reduce_mod(m, 97).data
    runs = [
        (rational, QQ, rank_rational(m)),
        (rows97, Field(97), rank_mod_p(m, 97)),
        (rows97, Field(97), rref(rows97, Field(97))),
    ]
    for rows, field, pivots in runs:
        assert set(pivots.lead) == set(pivots)
        for t in range(len(rows) + 1):
            assert {c for c, r in pivots.lead.items() if r < t} == set(rref(rows[:t], field))
        named = [rows[r] for r in sorted(pivots.lead.values())]
        assert rref(named, field).rank == pivots.rank


@given(sparse_matrices)
@example(from_dense([[1, 2], [3, 4]]))  # finishes mod 35
@example(from_dense([[1, 1], [1, 6]]))  # 5 is left to pivot on
@example(from_dense([[1, 7], [5, 0]]))  # 5 * 7 = 0 where row 1 is empty
def test_one_pass_mod_35_is_the_passes_mod_5_and_mod_7_or_splits(m):
    alone = {p: rref(reduce_mod(m, p).data, Field(p)) for p in (5, 7)}
    echelons = {p: rank_mod_p(m, p) for p in (5, 7)}
    try:
        joint = rref(reduce_mod(m, 35).data, Field(35))
    except _NonUnitPivot:
        # rank_mod_p runs the same echelon, so it splits at the same row
        with pytest.raises(_NonUnitPivot):
            rank_mod_p(m, 35)
        return
    echelon = rank_mod_p(m, 35)
    assert echelon.lead == joint.lead and set(echelon) == set(joint)
    for p, pivots in alone.items():
        assert set(joint) == set(pivots) and joint.lead == pivots.lead
        assert {c: {cc: v % p for cc, v in row.items() if v % p} for c, row in joint.items()} == pivots
        assert (set(echelons[p]), echelons[p].lead) == (set(echelon), echelon.lead)


def _outcome(kernel, rows):
    """What a kernel leaves on the rows: its pivots and lead, or a split.
    Checks that the rows are left as they were and that no stored row is
    one of them."""
    before = [dict(row) for row in rows]
    try:
        pivots = kernel(rows)
    except _NonUnitPivot:
        return "split"
    assert rows == before
    assert not {id(tail) for tail in pivots.values()} & {id(row) for row in rows}
    return pivots, pivots.lead


@settings(deadline=None)
@given(sparse_matrices, st.lists(st.sampled_from([u for u in range(1, 35) if gcd(u, 35) == 1]), min_size=6, max_size=6))
@example(from_dense([[1, 2], [3, 4]]), [1] * 6)  # a leading 1, then a leading -2
@example(from_dense([[1, 2], [3, 4]]), [2, 3, 1, 1, 1, 1])  # leading 2, then 1 mod 97
@example(from_dense([[1, 1], [1, 6]]), [4, 1, 1, 1, 1, 1])  # splits mod 35
def test_scaling_rows_by_units_changes_no_echelon(m, units):
    """_echelon and rref depend on each row only up to a unit factor, on
    either branch: a leading entry that is already 1, or one to scale."""
    for p, field in ((97, Field(97)), (35, Field(35)), (None, QQ)):
        if p is None:
            rows = [{c: Fraction(v) for c, v in row.items()} for row in m.data]
            scaled = [{c: v * Fraction(-u, 7) for c, v in row.items()} for row, u in zip(rows, units)]
        else:
            rows = reduce_mod(m, p).data
            scaled = [{c: v * u % p for c, v in row.items()} for row, u in zip(rows, units)]
        for kernel in (lambda rows: _echelon(rows, p), lambda rows: rref(rows, field)):
            assert _outcome(kernel, scaled) == _outcome(kernel, rows), p


@st.composite
def kernel_inputs(draw):
    """A sparse matrix of ints and Fractions with denominators prime to 97
    and 35; some rows are empty, and some lead with 1."""
    cols = draw(st.integers(1, 6))
    values = st.fractions(-20, 20, max_denominator=4).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), values, max_size=cols), max_size=6))
    for row in rows:
        if row and draw(st.booleans()):
            row[min(row)] = 1
    return SparseMatrix(len(rows), cols, [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()])


@settings(derandomize=True, deadline=None)
@given(kernel_inputs())
def test_kernel_calls_leave_their_input_untouched(m):
    """rank_mod_p, rank_rational and rref never change the rows they are
    given, and no returned tail is one of them: mod a prime, mod a product
    of two primes (where the pass may split) and over Q."""
    runs = [(m, lambda: rank_rational(m)), (m, lambda: rref(m.data, QQ))]
    for p in (97, 35):
        tagged = reduce_mod(m, p)
        runs += [(tagged, lambda t=tagged, p=p: rank_mod_p(t, p)), (tagged, lambda t=tagged, p=p: rref(t.data, Field(p)))]
    for matrix, kernel in runs:
        before = copy.deepcopy(matrix.data)
        try:
            pivots = kernel()
        except _NonUnitPivot:
            assert matrix.modulus == 35
            pivots = {}
        assert matrix.data == before
        assert not {id(tail) for tail in pivots.values()} & {id(row) for row in matrix.data}


def test_a_non_unit_pivot_splits_and_is_no_value_error():
    m = from_dense([[1, 1], [1, 6]])
    assert not issubclass(_NonUnitPivot, ValueError)
    assert [rank_mod_p(m, p).rank for p in (5, 7)] == [1, 2]
    with pytest.raises(_NonUnitPivot):
        rank_mod_p(m, 35)
    with pytest.raises(_NonUnitPivot):
        rref(m.data, Field(35))
    assert len(rref(from_dense([[1, 2], [3, 4]]).data, Field(35))) == 2


def test_matmul():
    a = from_dense([[1, 2], [0, 1]])
    b = from_dense([[1, 0], [3, 1]])
    assert to_dense(matmul(a, b)) == [[7, 2], [3, 1]]


def test_matrix_validation():
    with pytest.raises(ValueError, match="negative dimensions"):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 5)], modulus=3)
    # a tagged value must be an integer, not truncated to one
    for v in (Fraction(1, 2), Fraction(5, 2), 2.9):
        with pytest.raises(ValueError, match=r"\(0,1\) is not an integer"):
            SparseMatrix(1, 2, [(0, 0, 1), (0, 1, v)], modulus=7)
    m = SparseMatrix(1, 3, [(0, 0, Fraction(3)), (0, 1, 3.0), (0, 2, 3)], modulus=7)
    assert entries(m) == {(0, 0): 3, (0, 1): 3, (0, 2): 3}
    assert {type(v) for v in entries(m).values()} == {int}
    # an untagged value must be exact: a float's binary value is not 2.9
    for v in (2.9, 3.0, "3"):
        with pytest.raises(ValueError, match=r"entry \(0,1\) is .*not an int or a Fraction"):
            SparseMatrix(1, 2, [(0, 0, 1), (0, 1, v)])
    m = SparseMatrix(1, 2, [(0, 0, 2), (0, 1, Fraction(1, 10))])
    assert entries(m) == {(0, 0): 2, (0, 1): Fraction(1, 10)}
    # a tagged matrix is neither reduced mod another modulus nor ranked over Q
    tagged = SparseMatrix(1, 2, [(0, 0, 1), (0, 1, 4)], modulus=7)
    assert reduce_mod(tagged, 7) is tagged
    with pytest.raises(ValueError, match="different prime"):
        reduce_mod(tagged, 11)
    with pytest.raises(ValueError, match="unreduced"):
        rank_rational(tagged)


def test_deterministic_primes():
    a = deterministic_primes(12345, 2)
    b = deterministic_primes(12345, 2)
    assert a == b and a[0] != a[1]
    for p in a:
        assert 2**30 <= p < 2**31 and is_probable_prime(p)


def strong_probable_prime(n, bases) -> bool:
    """n passes the strong Fermat test to every base: the reference for
    is_probable_prime, for odd n above every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(
        pow(a, d, n) in (1, n - 1) or any(pow(a, d << r, n) == n - 1 for r in range(1, s)) for a in bases
    )


def test_four_bases_agree_with_thirteen_below_psi_4():
    every = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    rng = random.Random(2718)
    sample = [rng.randrange(2**30 + 1, 2**31, 2) for _ in range(2000)]
    got = [is_probable_prime(n) for n in sample]
    assert got == [strong_probable_prime(n, every) for n in sample]
    assert 100 < sum(got) < 1900  # primes and composites both
    # psi_4 = 151 * 751 * 28351 passes the four bases; from psi_4 on all 13 run
    psi_4 = 3215031751
    assert strong_probable_prime(psi_4, every[:4]) and not strong_probable_prime(psi_4, every)
    assert not is_probable_prime(psi_4)


def test_is_probable_prime_known_values():
    assert is_probable_prime(M61)
    assert not is_probable_prime(561)  # Carmichael
    # psi_12, a strong pseudoprime to the bases 2..37, falls to base 41
    assert not is_probable_prime(399165290221 * 798330580441)
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
