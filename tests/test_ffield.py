from __future__ import annotations

import operator
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrfusion.ffield import (
    PRIME_SEARCH_CEILING,
    FpMatrix,
    LimitExceeded,
    find_prime,
    find_primes,
    gauss_jordan,
    has_order,
    is_odd_prime,
    is_prime,
    multiplicative_order,
    primitive_root_of_unity,
)


def test_is_prime_small_values():
    assert [m for m in range(-3, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(97)
    assert not is_prime(91)
    assert not is_odd_prime(2)
    assert is_odd_prime(3)


def _sieve(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), sieved by the primes up to sqrt(hi)."""
    flags = bytearray([1]) * (hi - lo)
    for f in range(2, int(hi**0.5) + 1):
        start = max(f * f, (lo + f - 1) // f * f)
        flags[start - lo::f] = bytes(len(range(start, hi, f)))
    return [m for m in range(max(lo, 2), hi) if flags[m - lo]]


def test_is_prime_matches_a_sieve():
    # trial division below the search ceiling, Miller-Rabin just above it
    for lo, hi in ((0, 2 * 10**5), (10**6 - 10**4, 10**6 + 2 * 10**4)):
        assert [m for m in range(lo, hi) if is_prime(m)] == _sieve(lo, hi)


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7; and
    # 2, ..., 23, then two Carmichael numbers
    for m in (2047, 1373653, 25326001, 3215031751, 3825123056546413051, 561, 41041):
        assert not is_prime(m), m
    for m in (1000003, 2**31 - 1, 2**61 - 1):
        assert is_prime(m) and not is_prime(m * 1000003), m


def test_is_prime_refuses_from_the_miller_rabin_bound():
    # the bound is the least strong pseudoprime to all 13 bases
    bound = 3_317_044_064_679_887_385_961_981
    for m in (bound, bound + 2, 2**127 - 1):
        with pytest.raises(LimitExceeded):
            is_prime(m)


def test_find_prime_smallest_congruent():
    assert find_prime(3) == 7
    assert find_prime(4) == 5
    assert find_prime(5) == 11
    assert find_prime(6) == 7
    assert find_prime(7) == 29
    assert find_prime(8) == 17
    assert find_prime(9) == 19
    assert find_prime(10) == 11
    assert find_prime(11) == 23
    assert find_prime(12) == 13


def test_find_prime_lower_bound():
    assert find_prime(3, lower_bound=8) == 13
    assert find_primes(3, 2) == [7, 13]
    assert find_primes(5, 3) == [11, 31, 41]
    for p in find_primes(12, 3):
        assert p % 12 == 1 and is_odd_prime(p)


def _find_prime_by_ones(n, lower_bound):
    """The step-by-1 search: the least odd prime p = 1 (mod n) in
    lower_bound <= p <= PRIME_SEARCH_CEILING, or None."""
    for p in range(lower_bound, PRIME_SEARCH_CEILING + 1):
        if p % n == 1 and p % 2 == 1 and is_prime(p):
            return p
    return None


@pytest.mark.parametrize("n", range(3, 61))
def test_find_prime_steps_to_the_primes_of_the_search_by_ones(n):
    # at and next to a candidate, between candidates, and near the ceiling,
    # where some n have no prime left
    bounds = [3, 4, n + 1, n + 2, 2 * n + 1, 2 * n + 2, 1000, 65_537, PRIME_SEARCH_CEILING - 600]
    for lower_bound in bounds:
        expected = _find_prime_by_ones(n, lower_bound)
        if expected is None:
            with pytest.raises(LimitExceeded):
                find_prime(n, lower_bound)
        else:
            assert find_prime(n, lower_bound) == expected, lower_bound
            assert find_prime(n, expected) == expected
    first = _find_prime_by_ones(n, 3)
    second = _find_prime_by_ones(n, first + 1)
    assert find_primes(n, 3) == [first, second, _find_prime_by_ones(n, second + 1)]


def test_find_primes_refuses_more_primes_than_candidates():
    # 166,666 odd p = 1 (mod 3) lie in 3 <= p <= 10^6, fewer primes still
    with pytest.raises(LimitExceeded, match=r"^166667 primes p = 1 \(mod 3\) asked for"):
        find_primes(3, 166_667)
    with pytest.raises(LimitExceeded):
        find_primes(PRIME_SEARCH_CEILING, 1)
    # 399 odd p = 1 (mod 2500) lie below 10^6, but only 79 of them are prime
    with pytest.raises(LimitExceeded, match=(
        r"^100 primes p = 1 \(mod 2500\) asked for, but only 79 such primes lie in "
        r"3 <= p <= 1000000$"
    )):
        find_primes(2500, 100)
    with pytest.raises(ValueError):
        find_primes(2, 1)


def test_find_prime_rejects_bad_arguments():
    with pytest.raises(ValueError):
        find_prime(2)
    with pytest.raises(ValueError):
        find_prime(5, lower_bound=2)


def test_find_prime_search_ceiling():
    # p = 1 (mod 999999) forces p > 10^6, the built-in ceiling
    with pytest.raises(LimitExceeded):
        find_prime(999999)


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(6, 7) == 2
    assert multiplicative_order(9, 7) == 3
    with pytest.raises(ValueError):
        multiplicative_order(0, 7)
    with pytest.raises(ValueError):
        multiplicative_order(2, 9)


def _orders_by_multiplication(p: int) -> list[int]:
    """orders[a], the multiplicative order of a mod p for 0 < a < p,
    found by multiplying by a until 1 comes back; orders[0] = 0."""
    orders = [0] * p
    for a in range(1, p):
        x, k = a, 1
        while x != 1:
            x, k = x * a % p, k + 1
        orders[a] = k
    return orders


def test_order_routines_match_repeated_multiplication():
    """Every cell (p, a, n) with p an odd prime below 300, 0 <= a < p and
    n dividing p - 1: has_order(a, n, p) is whether a has order n, and
    multiplicative_order(a, p) is that order."""
    wrong = []
    for p in range(3, 300):
        if any(p % f == 0 for f in range(2, p)):
            continue
        orders = _orders_by_multiplication(p)
        divisors = [n for n in range(1, p) if (p - 1) % n == 0]
        wrong += [(p, a) for a in range(1, p) if multiplicative_order(a, p) != orders[a]]
        wrong += [(p, a, n) for a in range(p) for n in divisors if has_order(a, n, p) != (orders[a] == n)]
    assert wrong == []


def test_primitive_root_of_unity_frozen():
    assert primitive_root_of_unity(7, 3) == 2
    assert primitive_root_of_unity(7, 6) == 3
    assert primitive_root_of_unity(11, 5) == 3
    assert primitive_root_of_unity(13, 12) == 2
    assert primitive_root_of_unity(5, 4) == 2
    assert primitive_root_of_unity(7, 1) == 1


def test_primitive_root_has_exact_order():
    for p, n in ((7, 3), (11, 5), (13, 4), (17, 8), (29, 7), (31, 5)):
        w = primitive_root_of_unity(p, n)
        assert multiplicative_order(w, p) == n


def test_primitive_root_is_smallest_of_exact_order():
    for p in range(3, 110):
        if not is_prime(p):
            continue
        for n in range(2, p):
            if (p - 1) % n == 0:
                first = next(w for w in range(2, p) if multiplicative_order(w, p) == n)
                assert primitive_root_of_unity(p, n) == first


def _primitive_root_by_orders(p: int, n: int) -> int:
    """The search primitive_root_of_unity made before it tested against
    the prime divisors of n: the order of each a^((p-1)/n), found by
    walking the divisors of p - 1."""
    if n == 1:
        return 1
    for a in range(2, p):
        h = pow(a, (p - 1) // n, p)
        if multiplicative_order(h, p) == n:
            return min(pow(h, j, p) for j in range(1, n) if gcd(j, n) == 1)
    raise AssertionError("F_p* is cyclic")


def test_primitive_root_equals_the_search_by_orders():
    for p in range(3, 2000, 2):
        if is_prime(p):
            for n in range(1, p):
                if (p - 1) % n == 0:
                    assert primitive_root_of_unity(p, n) == _primitive_root_by_orders(p, n), (p, n)


def test_primitive_root_at_a_large_prime():
    # the two primitive cube roots w and w^2 mod 1000003 lie far from 2,
    # where a scan from 2 would take minutes
    p = 1000003
    w = primitive_root_of_unity(p, 3)
    assert w != 1 and pow(w, 3, p) == 1
    assert w < pow(w, 2, p)


def test_primitive_root_rejects_bad_arguments():
    with pytest.raises(ValueError):
        primitive_root_of_unity(7, 4)
    with pytest.raises(ValueError):
        primitive_root_of_unity(9, 2)
    with pytest.raises(ValueError):
        primitive_root_of_unity(7, 0)


def test_matrix_normalizes_entries():
    m = FpMatrix(5, [[7, -1], [10, 3]])
    assert m.data == ((2, 4), (0, 3))
    assert m.rows == 2 and m.cols == 2 and m.p == 5


def test_matrix_constructors():
    assert FpMatrix.identity(7, 2).data == ((1, 0), (0, 1))
    assert FpMatrix.zeros(7, 2, 3).data == ((0, 0, 0), (0, 0, 0))
    assert FpMatrix.diagonal(7, (2, 4)).data == ((2, 0), (0, 4))


def test_matrix_is_immutable_and_hashable():
    m = FpMatrix.identity(7, 2)
    with pytest.raises(AttributeError):
        m.p = 11
    assert m == FpMatrix(7, ((1, 0), (0, 1)))
    assert hash(m) == hash(FpMatrix(7, ((8, 0), (0, 1))))


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FpMatrix(7, [])
    with pytest.raises(ValueError):
        FpMatrix(7, [[1, 2], [3]])
    with pytest.raises(ValueError):
        FpMatrix(6, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(7, [[1, 2]]) + FpMatrix(7, [[1], [2]])
    with pytest.raises(ValueError):
        FpMatrix(7, [[1]]) + FpMatrix(5, [[1]])


def test_matrix_arithmetic_frozen():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    b = FpMatrix(5, [[0, 1], [1, 0]])
    assert (a + b).data == ((1, 3), (4, 4))
    assert (a - b).data == ((1, 1), (2, 4))
    assert (-b).data == ((0, 4), (4, 0))
    assert (a * b).data == ((2, 1), (4, 3))
    assert (3 * b).data == ((0, 3), (3, 0))
    assert (b * 3).data == (3 * b).data


def test_matrix_power():
    a = FpMatrix(7, [[1, 1], [0, 1]])
    assert (a ** 3).data == ((1, 3), (0, 1))
    assert (a ** 7).data == ((1, 0), (0, 1))
    assert (a ** -1).data == ((1, 6), (0, 1))
    assert (a ** 0).data == ((1, 0), (0, 1))


def test_matrix_transpose_trace_apply():
    a = FpMatrix(7, [[1, 2], [3, 4]])
    assert a.transpose().data == ((1, 3), (2, 4))
    assert a.trace() == 5
    assert FpMatrix(7, [[0, 1], [1, 0]]).apply((2, 3)) == (3, 2)
    assert a.apply((1, 0)) == (1, 3)


def test_matrix_rank_and_nullity():
    assert FpMatrix(5, [[1, 2], [2, 4]]).rank() == 1
    assert FpMatrix(5, [[1, 2], [2, 4]]).nullity() == 1
    assert FpMatrix.identity(5, 3).rank() == 3
    assert FpMatrix.zeros(5, 2, 2).rank() == 0
    # 2 = 4 (mod 2) style collisions cannot happen: exact mod-5 pivoting
    assert FpMatrix(5, [[2, 1], [4, 2]]).rank() == 1


def test_matrix_inverse_and_det_frozen():
    a = FpMatrix(7, [[1, 2], [3, 4]])
    assert a.det() == 5
    assert a.inverse().data == ((5, 1), (5, 3))
    assert (a * a.inverse()).data == ((1, 0), (0, 1))
    assert FpMatrix(5, [[1, 2], [2, 4]]).det() == 0
    with pytest.raises(ValueError):
        FpMatrix(5, [[1, 2], [2, 4]]).inverse()


def test_elimination_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^matrix is singular$"):
        FpMatrix(5, [[1, 2], [2, 4]]).inverse()
    wide = FpMatrix(5, [[1, 2, 3]])
    with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
        wide.inverse()
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        wide.det()


def test_matrix_kron_frozen():
    a = FpMatrix.diagonal(7, (2, 3))
    b = FpMatrix(7, [[0, 1], [1, 0]])
    assert a.kron(b).data == (
        (0, 2, 0, 0),
        (2, 0, 0, 0),
        (0, 0, 0, 3),
        (0, 0, 3, 0),
    )


_PRIMES = (3, 5, 7, 11)


@st.composite
def _square_matrix(draw):
    p = draw(st.sampled_from(_PRIMES))
    size = draw(st.integers(min_value=1, max_value=4))
    data = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    return FpMatrix(p, data)


@st.composite
def _matrix_pair(draw):
    p = draw(st.sampled_from(_PRIMES))
    size = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=0, max_value=p - 1)
    row = st.lists(entry, min_size=size, max_size=size)
    grid = st.lists(row, min_size=size, max_size=size)
    return FpMatrix(p, draw(grid)), FpMatrix(p, draw(grid))


@st.composite
def _square_pair(draw):
    """Two square matrices of one size, up to 4 x 4, over one field."""
    a = draw(_square_matrix())
    row = st.lists(st.integers(min_value=0, max_value=a.p - 1), min_size=a.rows, max_size=a.rows)
    return a, FpMatrix(a.p, draw(st.lists(row, min_size=a.rows, max_size=a.rows)))


def _leibniz_det(m):
    """Sum over permutations of the sign times the product of the entries."""
    total = 0
    for perm in permutations(range(m.rows)):
        term = 1
        for a in range(m.rows):
            term *= m.data[a][perm[a]]
            term *= (-1) ** sum(perm[a] > perm[b] for b in range(a + 1, m.rows))
        total += term
    return total % m.p


@settings(max_examples=60)
@given(_square_matrix())
def test_det_is_leibniz_expansion(m):
    assert m.det() == _leibniz_det(m)


@settings(max_examples=40)
@given(_square_pair())
def test_det_is_multiplicative(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det() % a.p


@st.composite
def _basis_over_rows(draw):
    """(p, ncols, stacked): the nonzero reduced rows of random rows, each
    with lead 1, stacked over random residue rows."""
    p = draw(st.sampled_from((3, 5, 7, 1000003)))
    ncols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(min_value=0, max_value=p - 1), min_size=ncols, max_size=ncols)
    reduced, rank, _ = gauss_jordan(p, draw(st.lists(row, max_size=6)), ncols)
    return p, ncols, reduced[:rank] + draw(st.lists(row, max_size=6))


@settings(max_examples=100, deadline=None)
@given(_basis_over_rows())
def test_gauss_jordan_ranks_a_reduced_basis_stacked_over_rows(case):
    """The call shape of the cocycle oracle: the basis rows keep their
    lead 1 unnormalised, and the rank is that of the same rows reversed,
    where the random rows are reduced first."""
    p, ncols, stacked = case
    m, rank, d = gauss_jordan(p, stacked, ncols)
    reversed_m, reversed_rank, reversed_d = gauss_jordan(p, stacked[::-1], ncols)
    assert rank == reversed_rank
    entries = [v for row in m + reversed_m for v in row] + [d, reversed_d]
    assert all(0 <= v < p for v in entries)


@given(_square_matrix())
def test_rank_plus_nullity_is_column_count(m):
    assert m.rank() + m.nullity() == m.cols
    assert m.transpose().rank() == m.rank()


@settings(max_examples=40)
@given(_matrix_pair())
def test_derived_matrices_are_canonical(pair):
    """Results built without validation equal their validated rebuild."""
    a, b = pair
    results = [a + b, a - b, -a, a * b, 3 * a, a.kron(b), a.transpose(), a ** 3]
    results += [FpMatrix.identity(a.p, a.rows), FpMatrix.zeros(a.p, a.rows, 2)]
    if a.det():
        results.append(a.inverse())
    for m in results:
        rebuilt = FpMatrix(m.p, m.data)
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert (m.rows, m.cols) == (rebuilt.rows, rebuilt.cols)
        assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)


def test_identity_and_zeros_validate():
    modulus = r"^modulus {} is not an odd prime$"
    empty = r"^matrix needs at least one row and one column$"
    for bad, text in (((6, 2), modulus.format(6)), ((7, 0), empty), ((7, -1), empty)):
        with pytest.raises(ValueError, match=text):
            FpMatrix.identity(*bad)
    for bad, text in (((9, 1, 1), modulus.format(9)), ((7, 1, 0), empty), ((7, 0, 2), empty)):
        with pytest.raises(ValueError, match=text):
            FpMatrix.zeros(*bad)


@given(_matrix_pair())
def test_product_rank_bound_and_transpose(pair):
    a, b = pair
    assert (a * b).rank() <= min(a.rank(), b.rank())
    assert (a * b).transpose() == b.transpose() * a.transpose()


@settings(max_examples=60)
@given(_square_matrix())
def test_nonsingular_matrices_invert(m):
    if m.det() == 0:
        assert m.rank() < m.rows
        return
    assert m.rank() == m.rows
    ident = FpMatrix.identity(m.p, m.rows)
    assert m * m.inverse() == ident
    assert m.inverse() * m == ident
    assert m ** -1 == m.inverse()


_PRODUCT_PRIMES = (3, 5, 7, 11, 997, 1000003)


@st.composite
def _product_operands(draw):
    """A k x m and an m x l matrix over one field, with k, m, l in 1..5
    (so 1 x k rows and k x 1 columns occur), and a vector of length l."""
    p = draw(st.sampled_from(_PRODUCT_PRIMES))
    k, m, l = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    entry = st.integers(min_value=0, max_value=p - 1)

    def grid(rows, cols):
        row = st.lists(entry, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    vec = draw(st.lists(entry, min_size=l, max_size=l))
    return FpMatrix(p, grid(k, m)), FpMatrix(p, grid(m, l)), vec


@settings(max_examples=80)
@given(_product_operands())
def test_product_and_apply_are_the_textbook_sums(operands):
    a, b, vec = operands
    p = a.p
    assert (a * b).data == tuple(
        tuple(sum(a.data[i][t] * b.data[t][c] for t in range(a.cols)) % p for c in range(b.cols))
        for i in range(a.rows)
    )
    assert b.apply(vec) == tuple(
        sum(b.data[i][t] * vec[t] for t in range(b.cols)) % p for i in range(b.rows)
    )


@settings(max_examples=40)
@given(_product_operands(), st.integers(min_value=-10**7, max_value=10**7))
def test_scalar_product_is_entrywise(operands, c):
    a = operands[0]
    expected = tuple(tuple(c * v % a.p for v in row) for row in a.data)
    assert (c * a).data == expected
    assert (a * c).data == expected


def test_product_errors_keep_their_messages():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        a * FpMatrix(7, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^shape mismatch in product$"):
        a * FpMatrix(5, [[1, 2]])
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        a.apply((1, 2, 3))
    # - is + of the negation, and keeps the texts of +
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="^modulus mismatch$"):
            op(a, FpMatrix(7, [[1, 2], [3, 4]]))
        with pytest.raises(ValueError, match="^shape mismatch$"):
            op(a, FpMatrix(5, [[1, 2]]))
