import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singulus.errors import BadPrimeError
from singulus.linalg import (
    QQ,
    PrimeField,
    SparseMatrix,
    _NonUnitPivot,
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
    m = SparseMatrix(1, 3, [(0, 0, 3), (0, 1, Fraction(3)), (0, 2, 3.0)])
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
    cert = rank_mod_p(vm, 101)
    assert cert.rank == 4
    assert cert.modulus == 101


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
    cert = rank_rational(m)
    assert cert.rank == 2
    assert cert.modulus == "rational"


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
    for c, row in pivots.items():
        assert set(row) - {c} <= free


def test_rref_mod_p_rank_matches_elimination():
    rng = random.Random(5)
    for _ in range(25):
        dense = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        m = from_dense(dense)
        rows = [
            {c: residue(v, 97) for c, v in enumerate(row) if v % 97} for row in dense
        ]
        rank = len(dense_rref(dense, 97))
        assert len(rref(rows, PrimeField(97))) == rank
        assert rank_mod_p(m, 97).rank == rank


@given(sparse_matrices)
def test_rref_matches_dense_reference_over_QQ(m):
    rows = [{c: Fraction(v) for c, v in row.items()} for row in m.data]
    assert rref(rows, QQ) == dense_rref(to_dense(m))


@given(sparse_matrices)
def test_rref_matches_dense_reference_mod_97(m):
    rows = [{c: residue(v, 97) for c, v in row.items() if v % 97} for row in m.data]
    assert rref(rows, PrimeField(97)) == dense_rref(to_dense(m), 97)


@given(sparse_matrices, st.randoms(use_true_random=False))
def test_lead_marks_the_leading_columns_of_every_owner_prefix(m, rng):
    # owners ascend with the rows, as the oracle feeds its generator rows
    owners = sorted(rng.randrange(3) for _ in range(m.rows))
    rows = reduce_mod(m, 97).data
    cert = rank_mod_p(m, 97, owners=owners)
    pivots = rref(rows, PrimeField(97), owners=owners)
    assert cert.lead == pivots.lead and cert.rank == len(pivots)
    for i in range(4):
        prefix = [row for row, owner in zip(rows, owners) if owner < i]
        assert {c for c, owner in cert.lead.items() if owner < i} == set(rref(prefix, PrimeField(97)))
    assert rank_mod_p(m, 97).lead is None and rref(rows, PrimeField(97)).lead is None
    with pytest.raises(ValueError):
        rank_mod_p(m, 97, owners=owners + [3])


@given(sparse_matrices, st.randoms(use_true_random=False))
@example(from_dense([[1, 2], [3, 4]]), random.Random(0))  # finishes mod 35
@example(from_dense([[1, 1], [1, 6]]), random.Random(0))  # 5 is left to pivot on
@example(from_dense([[1, 7], [5, 0]]), random.Random(0))  # 5 * 7 = 0 where row 1 is empty
def test_one_pass_mod_35_is_the_passes_mod_5_and_mod_7_or_splits(m, rng):
    owners = sorted(rng.randrange(3) for _ in range(m.rows))
    alone = {p: rref(reduce_mod(m, p).data, PrimeField(p), owners=owners) for p in (5, 7)}
    certs = {p: rank_mod_p(m, p, owners=owners) for p in (5, 7)}
    try:
        joint = rref(reduce_mod(m, 35).data, PrimeField(35), owners=owners)
    except _NonUnitPivot:
        # rank_mod_p runs the same echelon, so it splits at the same row
        with pytest.raises(_NonUnitPivot):
            rank_mod_p(m, 35, owners=owners)
        return
    cert = rank_mod_p(m, 35, owners=owners)
    assert cert.lead == joint.lead and cert.rank == len(joint)
    for p, pivots in alone.items():
        assert set(joint) == set(pivots) and joint.lead == pivots.lead
        assert {c: {cc: v % p for cc, v in row.items() if v % p} for c, row in joint.items()} == pivots
        assert (certs[p].rank, certs[p].lead) == (cert.rank, cert.lead)


def test_a_non_unit_pivot_splits_and_is_no_value_error():
    m = from_dense([[1, 1], [1, 6]])
    assert not issubclass(_NonUnitPivot, ValueError)
    assert [rank_mod_p(m, p).rank for p in (5, 7)] == [1, 2]
    with pytest.raises(_NonUnitPivot):
        rank_mod_p(m, 35)
    with pytest.raises(_NonUnitPivot):
        rref(m.data, PrimeField(35))
    assert len(rref(from_dense([[1, 2], [3, 4]]).data, PrimeField(35))) == 2


def test_matmul():
    a = from_dense([[1, 2], [0, 1]])
    b = from_dense([[1, 0], [3, 1]])
    assert to_dense(matmul(a, b)) == [[7, 2], [3, 1]]


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 5)], modulus=3)


def test_deterministic_primes():
    a = deterministic_primes(12345, 2)
    b = deterministic_primes(12345, 2)
    assert a == b and a[0] != a[1]
    for p in a:
        assert 2**30 <= p < 2**31 and is_probable_prime(p)


def test_is_probable_prime_known_values():
    assert is_probable_prime(M61)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
