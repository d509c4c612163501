from __future__ import annotations

import importlib
from collections import Counter
from dis import get_instructions
from time import perf_counter
from types import CodeType, FunctionType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrfusion import cohomology
from udrfusion.cohomology import (
    _CONJUGATION_HEADS,
    H1_ORACLE_GROUP_ORDER_LIMIT,
    CohomologyDims,
    GModule,
    _MonomialModule,
    _cocycle_module,
    _conjugation_tails,
    _module_relators,
    _relator_rows,
    adjoint_decomposition_check,
    adjoint_module,
    cohomologically_maximal_set,
    contragredient,
    d1_oracle_cocycles,
    det_module,
    dims,
    dims_row,
    fixed_point_dim,
    rep_module,
    sign_module,
    tensor,
    trivial_module,
)
from udrfusion.dihedral import (
    DihedralParams,
    RepLabel,
    group_elements,
    induced_rep,
    irr2_rep,
    irr2_reps,
    omega_set,
    t_map,
    t_preimage,
)
from udrfusion.ffield import FpMatrix, LimitExceeded, find_primes


def test_gmodule_validates_relations():
    one = FpMatrix(7, ((1,),))
    with pytest.raises(ValueError):
        GModule(3, 7, 1, FpMatrix(7, ((3,),)), one)  # 3 has order 6, not dividing 3
    with pytest.raises(ValueError):
        GModule(3, 7, 1, one, FpMatrix(7, ((3,),)))  # 3^2 != 1
    with pytest.raises(ValueError):
        GModule(3, 7, 2, one, one)  # dimension mismatch
    params = DihedralParams.standard(4)
    rep = irr2_rep(params, 1)
    ident = FpMatrix.identity(params.p, 2)
    with pytest.raises(ValueError):
        GModule(4, params.p, 2, FpMatrix(params.p, rep.mat_r), ident)  # breaks s r s = r^-1


def test_module_and_rep_evaluate_group_elements_alike():
    for n in (3, 4, 6, 9):
        params = DihedralParams.standard(n)
        for rep in irr2_reps(params) + [induced_rep(params, 0)]:
            module = rep_module(rep)
            for g in group_elements(n):
                assert module.matrix(g) == FpMatrix(params.p, rep.matrix(g))
                assert module.trace(g) == rep.trace(g)


def test_one_dimensional_modules():
    params = DihedralParams.standard(5)
    triv = trivial_module(params)
    sgn = sign_module(params)
    for g in group_elements(5):
        assert triv.trace(g) == 1
        assert sgn.trace(g) == (params.p - 1 if g.flip else 1)


def test_contragredient_frozen():
    params = DihedralParams.standard(3)
    dual = contragredient(rep_module(irr2_rep(params, 1)))
    assert dual.mat_r.data == ((4, 0), (0, 2))
    assert dual.mat_s.data == ((0, 1), (1, 0))


def test_contragredient_involution():
    for n in (4, 5, 6):
        params = DihedralParams.standard(n)
        for i in params.irr2_indices():
            mod = rep_module(irr2_rep(params, i))
            double = contragredient(contragredient(mod))
            assert double.mat_r == mod.mat_r and double.mat_s == mod.mat_s


def test_tensor_dims_and_unit():
    params = DihedralParams.standard(5)
    mod = rep_module(irr2_rep(params, 1))
    assert tensor(mod, mod).dim == 4
    with_unit = tensor(mod, trivial_module(params))
    assert with_unit.mat_r == mod.mat_r and with_unit.mat_s == mod.mat_s


def test_det_module_is_sign():
    for n in (3, 5, 8):
        params = DihedralParams.standard(n)
        sgn = sign_module(params)
        for i in params.irr2_indices():
            mod = rep_module(irr2_rep(params, i))
            for source in (mod, contragredient(mod)):
                d = det_module(source)
                assert d.mat_r == sgn.mat_r and d.mat_s == sgn.mat_s


def test_fixed_point_dim_frozen():
    params = DihedralParams.standard(5)
    assert fixed_point_dim(trivial_module(params)) == 1
    assert fixed_point_dim(trivial_module(params, dim=3)) == 3
    assert fixed_point_dim(sign_module(params)) == 0
    for i in params.irr2_indices():
        mod = rep_module(irr2_rep(params, i))
        assert fixed_point_dim(mod) == 0
        assert fixed_point_dim(adjoint_module(mod)) == 1  # scalars only


def _averaging_projector(mod):
    acc = FpMatrix.zeros(mod.p, mod.dim, mod.dim)
    for g in group_elements(mod.n):
        acc = acc + mod.matrix(g)
    return pow(2 * mod.n % mod.p, -1, mod.p) * acc


def test_fixed_point_dim_is_projector_rank():
    """The factored group sum equals the naive average, which is idempotent
    and absorbs every group element."""
    params = DihedralParams.standard(5)
    adj = adjoint_module(rep_module(irr2_rep(params, 2)))
    big = tensor(contragredient(rep_module(irr2_rep(params, 2))), adj)
    for mod in (adj, big):
        proj = _averaging_projector(mod)
        assert proj * proj == proj
        assert proj.rank() == fixed_point_dim(mod)
        for g in group_elements(mod.n):
            assert mod.matrix(g) * proj == proj


def test_dims_frozen():
    params = DihedralParams.standard(5)
    assert dims(params, 2, 1) == CohomologyDims(1, 2)
    assert dims(params, 2, 2) == CohomologyDims(0, 1)
    assert dims(params, 1, 1) == CohomologyDims(0, 1)
    assert dims(params, 1, 2) == CohomologyDims(1, 2)
    assert dims(DihedralParams.standard(3), 1, 1) == CohomologyDims(1, 2)
    assert dims(DihedralParams.standard(12), 3, 3) == CohomologyDims(0, 1)


def test_dims_match_dense_projector_route():
    """The invariant counts equal the ranks of the averaging idempotents of
    the dense modules, on every pair for n = 3..12 and two primes each."""
    pairs = 0
    for n in range(3, 13):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            indices = params.irr2_indices()
            adj = {j: adjoint_module(rep_module(irr2_rep(params, j))) for j in indices}
            for i0 in indices:
                phi_tilde = contragredient(rep_module(irr2_rep(params, i0)))
                wedge = det_module(phi_tilde)
                for j in indices:
                    d1 = fixed_point_dim(tensor(phi_tilde, adj[j]))
                    d2 = d1 + fixed_point_dim(tensor(wedge, adj[j]))
                    assert dims(params, i0, j) == CohomologyDims(d1, d2), (n, p, i0, j)
                    pairs += 1
    assert pairs == 220


def _as_gmodule(mod, params):
    """The dense module of a monomial one: r diagonal, s a signed permutation."""
    p, dim = params.p, len(mod.weight)
    mat_r = FpMatrix.diagonal(p, [pow(params.omega, w, p) for w in mod.weight])
    mat_s = FpMatrix(
        p,
        [[mod.sign[c] if mod.perm[c] == row else 0 for c in range(dim)] for row in range(dim)],
    )
    return GModule(params.n, p, dim, mat_r, mat_s)


def test_monomial_operations_match_dense_modules():
    # _MonomialModule.irr2 and irr2_rep spell theta_i alike, on every i
    # of n = 3..30 at the two smallest primes
    for n in range(3, 31):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            for i in params.irr2_indices():
                mono = _MonomialModule.irr2(n, i)
                assert _as_gmodule(mono, params) == rep_module(irr2_rep(params, i)), (n, p, i)
    for n in (5, 6, 8):
        params = DihedralParams.standard(n)
        for i in params.irr2_indices():
            mono = _MonomialModule.irr2(n, i)
            dense = rep_module(irr2_rep(params, i))
            assert _as_gmodule(mono, params) == dense
            dual, dense_dual = mono.dual(), contragredient(dense)
            assert _as_gmodule(dual, params) == dense_dual
            adj = dual.tensor(mono)
            assert _as_gmodule(adj, params) == adjoint_module(dense)
            big = dual.tensor(adj)
            assert _as_gmodule(big, params) == tensor(dense_dual, adjoint_module(dense))
            assert _as_gmodule(big.det(), params) == det_module(_as_gmodule(big, params))
            assert _as_gmodule(dual.det(), params) == det_module(dense_dual)
            assert big.fixed_point_dim() == fixed_point_dim(_as_gmodule(big, params))


def test_monomial_module_checks_relations():
    _MonomialModule(6, (1, 5, 0, 0), (1, 0, 3, 2), (1, 1, -1, -1))
    with pytest.raises(ValueError, match="involution"):
        _MonomialModule(6, (0, 0, 0), (1, 2, 0), (1, 1, 1))  # s has order 3
    with pytest.raises(ValueError, match="square to 1"):
        _MonomialModule(6, (1, 5), (1, 0), (1, -1))  # s^2 = -1
    with pytest.raises(ValueError, match="dihedral relation"):
        _MonomialModule(6, (1, 1), (1, 0), (1, 1))  # s r s = r, not r^-1
    with pytest.raises(ValueError, match="dihedral relation"):
        _MonomialModule(6, (1,), (0,), (1,))  # a fixed coordinate needs 2 w = 0


@pytest.mark.parametrize("n, i0, j", [(5, 2, 1), (6, 1, 2), (8, 3, 1), (12, 5, 4), (13, 6, 6)])
def test_derived_monomial_modules_pass_the_checked_constructor(n, i0, j):
    # dual, tensor and det build their results through the checked
    # constructor; every module dims derives satisfies the relations
    params = DihedralParams.standard(n)
    v = _MonomialModule.irr2(n, j)
    adj = v.dual().tensor(v)
    phi_tilde = _MonomialModule.irr2(n, i0).dual()
    derived = [v.dual(), adj, phi_tilde, phi_tilde.tensor(adj), phi_tilde.det(),
               phi_tilde.det().tensor(adj), adj.det()]
    for m in derived:
        checked = _MonomialModule(m.n, m.weight, m.perm, m.sign)
        assert (checked.n, checked.weight, checked.perm, checked.sign) == (
            m.n, m.weight, m.perm, m.sign
        )


def test_a_tensor_that_drops_the_second_permutation_is_refused(monkeypatch):
    # planted: the second factor's permutation replaced by the identity,
    # so s no longer inverts the weights of the product
    real = _MonomialModule.tensor

    def planted(self, other):
        unpermuted = SimpleNamespace(
            weight=other.weight, perm=tuple(range(len(other.perm))), sign=other.sign
        )
        return real(self, unpermuted)

    monkeypatch.setattr(_MonomialModule, "tensor", planted)
    with pytest.raises(ValueError, match="weights do not satisfy the dihedral relation"):
        cohomology._irr2_monomials.__wrapped__(7)


def test_dims_structure():
    for n in range(3, 11):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            target = RepLabel.irr2(i0)
            for j in params.irr2_indices():
                dd = dims(params, i0, j)
                assert dd.d1 in (0, 1)
                assert dd.d2 == dd.d1 + 1
                assert dd.d1 == (1 if t_map(params, j) == target else 0)


def test_adjoint_decomposition():
    for n in range(3, 11):
        params = DihedralParams.standard(n)
        for i in params.irr2_indices():
            assert adjoint_decomposition_check(params, i)


def test_maximal_set_frozen():
    params = DihedralParams.standard(5)
    assert cohomologically_maximal_set(params, 1) == frozenset({2})
    assert cohomologically_maximal_set(params, 2) == frozenset({1})
    p12 = DihedralParams.standard(12)
    assert cohomologically_maximal_set(p12, 2) == frozenset({1, 5})
    assert cohomologically_maximal_set(p12, 4) == frozenset({2, 4})
    # no representation attains d2 = 2 here, so the flat maximum is everyone
    assert cohomologically_maximal_set(p12, 1) == frozenset({1, 2, 3, 4, 5})


def test_maximal_set_equals_t_preimage_on_omega():
    for n in range(3, 13):
        params = DihedralParams.standard(n)
        for i0 in omega_set(params):
            assert cohomologically_maximal_set(params, i0) == t_preimage(params, i0)


def test_oracle_frozen():
    assert d1_oracle_cocycles(DihedralParams.standard(3), 1, 1) == 1
    params = DihedralParams.standard(5)
    assert d1_oracle_cocycles(params, 2, 1) == 1
    assert d1_oracle_cocycles(params, 2, 2) == 0
    assert d1_oracle_cocycles(params, 1, 1) == 0
    assert d1_oracle_cocycles(params, 1, 2) == 1


def test_oracle_guard():
    # 2 n p^2 = 11638 for n = 11, p = 23
    with pytest.raises(LimitExceeded):
        d1_oracle_cocycles(DihedralParams.standard(11), 1, 1)


def test_oracle_agrees_with_projector_route():
    for n in range(3, 9):
        params = DihedralParams.standard(n)
        if 2 * n * params.p ** 2 > 10**4:
            continue
        for i0 in params.irr2_indices():
            for j in params.irr2_indices():
                assert d1_oracle_cocycles(params, i0, j) == dims(params, i0, j).d1


def _expand_letter_by_letter(rel, operator, operator_inv):
    """Reference relator expansion: one operator product per letter and
    per unit of its exponent, identity operators included."""
    p = operator["r"].p
    zero4 = FpMatrix.zeros(p, 4, 4)
    coeff = {sym: zero4 for sym in "abrs"}
    prefix = FpMatrix.identity(p, 4)
    for sym, e in rel:
        if e >= 0:
            for _ in range(e):
                coeff[sym] = coeff[sym] + prefix
                prefix = prefix * operator[sym]
        else:
            for _ in range(-e):
                prefix = prefix * operator_inv[sym]
                coeff[sym] = coeff[sym] - prefix
    return coeff


def _as_fp_matrix(p, flat):
    return FpMatrix(p, [flat[start : start + 4] for start in (0, 4, 8, 12)])


def _conjugation_relators(action_rep):
    """g x g^-1 = theta_i0(g) x for g in {r, s} and x in {a, b}: each
    head of _CONJUGATION_HEADS followed by its tail."""
    tails = _conjugation_tails(action_rep)
    return [[*head, *tail] for head, tail in zip(_CONJUGATION_HEADS, tails)]


def _presentation(params, i0, j):
    """The presentation behind d1_oracle_cocycles: the flat operator of
    each generator on the 2x2 matrix module M of theta_j (a and b act as
    the identity), the inverse operators, and all ten relators as lists
    of (generator, exponent) letters.  The oracle expands only the last
    four per call; expanded whole, this is the reference it is tested
    against."""
    operator, operator_inv, *_ = _cocycle_module(params, j)
    relators = _module_relators(params.n, params.p) + _conjugation_relators(irr2_rep(params, i0))
    return dict(operator), dict(operator_inv), relators


def _reference_system(params, i0, j):
    """The coefficient rows of all ten relators, expanded letter by letter
    with FpMatrix operators, and dim M^G as a dense nullity."""
    p = params.p
    operator, operator_inv, relators = _presentation(params, i0, j)
    dense = {sym: _as_fp_matrix(p, op) for sym, op in operator.items()}
    dense_inv = {sym: _as_fp_matrix(p, op) for sym, op in operator_inv.items()}
    rows = []
    for rel in relators:
        coeff = _expand_letter_by_letter(rel, dense, dense_inv)
        rows += [tuple(v for sym in "abrs" for v in coeff[sym].data[rix]) for rix in range(4)]
    ident = FpMatrix.identity(p, 4)
    m_fixed = 4 - FpMatrix(p, (dense["r"] - ident).data + (dense["s"] - ident).data).rank()
    return rows, m_fixed


def test_oracle_expansion_matches_letter_by_letter_reference():
    """On every cell verify checks, the flat operators are the conjugation
    operators and their inverses, the kernel's coefficient rows equal the
    FpMatrix letter-by-letter expansion, and d1 equals the reference's."""
    checked = 0
    for n in range(3, 13):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            if 2 * n * p * p > H1_ORACLE_GROUP_ORDER_LIMIT:
                continue
            for i0 in params.irr2_indices():
                for j in params.irr2_indices():
                    operator, operator_inv, relators = _presentation(params, i0, j)
                    rep = irr2_rep(params, j)
                    for sym, mat in (("r", rep.mat_r), ("s", rep.mat_s)):
                        mat = FpMatrix(p, mat)
                        dense = _as_fp_matrix(p, operator[sym])
                        assert _as_fp_matrix(p, operator_inv[sym]) == dense.inverse()
                        # column c is the image of the c-th of E11, E12, E21, E22
                        for col in range(4):
                            basis = FpMatrix(p, [[int(2 * r + c == col) for c in (0, 1)]
                                                 for r in (0, 1)])
                            image = mat * basis * mat.inverse()
                            assert tuple(row[col] for row in dense.data) == (
                                image.data[0] + image.data[1]
                            )
                    reference, m_fixed = _reference_system(params, i0, j)
                    assert [
                        row
                        for rel in relators
                        for row in _relator_rows(p, rel, operator, operator_inv)
                    ] == reference, (n, p, i0, j)
                    expected = 16 - FpMatrix(p, reference).rank() - (4 - m_fixed)
                    assert d1_oracle_cocycles(params, i0, j) == expected, (n, p, i0, j)
                    checked += 1
    # every instance within the guard, as in verify: n = 7 at p = 29, 43,
    # n = 8 at p = 41 and larger n at either prime lie beyond it
    assert checked == 86


@st.composite
def _flat_operator_pair(draw):
    p = draw(st.one_of(st.just(1000003), st.integers(2, 1000003)))
    entries = st.lists(st.integers(0, p - 1), min_size=16, max_size=16).map(tuple)
    return p, draw(entries), draw(entries)


@settings(max_examples=100, deadline=None)
@given(_flat_operator_pair())
def test_unrolled_mul4_is_the_textbook_product(case):
    """_mul4 against the triple loop over row, column and inner index."""
    p, x, y = case
    textbook = tuple(
        sum(x[4 * i + m] * y[4 * m + k] for m in range(4)) % p
        for i in range(4)
        for k in range(4)
    )
    assert cohomology._mul4(p, x, y) == textbook


def _full_expansion_d1(params, i0, j):
    """d1 from all ten relators of _presentation, expanded afresh and
    ranked as one system."""
    p = params.p
    operator, operator_inv, relators = _presentation(params, i0, j)
    rows = [row for rel in relators for row in _relator_rows(p, rel, operator, operator_inv)]
    return 16 - FpMatrix(p, rows).rank() - (4 - cohomology._invariant_dim(p, operator))


def test_memoized_oracle_half_matches_the_full_expansion():
    """The memoized module half plus the per-i0 conjugation rows give the
    d1 of the full expansion on every cell verify checks (n = 3..12, two
    primes each, inside the guard), and those 86 cells share 28 halves."""
    cohomology._cocycle_module.cache_clear()
    checked = 0
    for n in range(3, 13):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            if 2 * n * p * p > H1_ORACLE_GROUP_ORDER_LIMIT:
                continue
            for i0 in params.irr2_indices():
                for j in params.irr2_indices():
                    assert d1_oracle_cocycles(params, i0, j) == _full_expansion_d1(
                        params, i0, j
                    ), (n, p, i0, j)
                    checked += 1
    assert checked == 86
    assert cohomology._cocycle_module.cache_info().misses == 28


def test_memoized_oracle_half_matches_beyond_the_guard(monkeypatch):
    """With the guard lifted, the split oracle agrees with the full
    expansion and with dims on every cell for n = 3..12, two primes each,
    and its calls take under 0.3 s from a cold memo."""
    monkeypatch.setattr(cohomology, "H1_ORACLE_GROUP_ORDER_LIMIT", 10**12)
    cohomology._cocycle_module.cache_clear()
    mismatches = []
    oracle_s = 0.0
    cells = 0
    for n in range(3, 13):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            for i0 in params.irr2_indices():
                for j in params.irr2_indices():
                    start = perf_counter()
                    d1 = d1_oracle_cocycles(params, i0, j)
                    oracle_s += perf_counter() - start
                    if d1 != _full_expansion_d1(params, i0, j) or d1 != dims(params, i0, j).d1:
                        mismatches.append((n, p, i0, j))
                    cells += 1
    assert cells == 220 and mismatches == []
    assert oracle_s < 0.3


@st.composite
def _monomial_module(draw, n):
    """A random valid monomial module over the dihedral group of order 2n:
    an involution pairing some coordinates, a weight w and its negative on
    each 2-cycle, a weight with 2w = 0 mod n on each fixed coordinate, and
    one sign per s-orbit."""
    dim = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations(range(dim)))
    pair_count = draw(st.integers(min_value=0, max_value=dim // 2))
    perm, weight, sign = [0] * dim, [0] * dim, [1] * dim
    for k in range(pair_count):
        c, d = order[2 * k], order[2 * k + 1]
        w = draw(st.integers(min_value=0, max_value=n - 1))
        sg = draw(st.sampled_from((1, -1)))
        perm[c], perm[d] = d, c
        weight[c], weight[d] = w, -w % n
        sign[c] = sign[d] = sg
    half_turns = (0, n // 2) if n % 2 == 0 else (0,)
    for c in order[2 * pair_count :]:
        perm[c] = c
        weight[c] = draw(st.sampled_from(half_turns))
        sign[c] = draw(st.sampled_from((1, -1)))
    return _MonomialModule(n, weight, perm, sign)


@st.composite
def _monomial_pair(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    return draw(_monomial_module(n)), draw(_monomial_module(n))


@settings(max_examples=100)
@given(_monomial_pair())
def test_tensor_fixed_point_dim_counts_the_built_product(pair):
    a, b = pair
    assert a.tensor_fixed_point_dims([(b, b.by_weight())]) == [a.tensor(b).fixed_point_dim()]


def test_dims_row_counts_the_built_products():
    """Every entry of the signature row equals the invariant counts of the
    built products phi~ (x) adj_j and det phi~ (x) adj_j, on n = 3..40 at
    one prime each."""
    entries = 0
    for n in range(3, 41):
        params = DihedralParams.standard(n)
        adjoints = {}
        for j in params.irr2_indices():
            v = _MonomialModule.irr2(n, j)
            adjoints[j] = v.dual().tensor(v)
        for i0 in params.irr2_indices():
            phi_tilde = _MonomialModule.irr2(n, i0).dual()
            row = dims_row(params, i0)
            assert len(row) == len(adjoints)
            for (d1, d2), (j, adj) in zip(row, adjoints.items()):
                assert d1 == phi_tilde.tensor(adj).fixed_point_dim(), (n, i0, j)
                assert d2 - d1 == phi_tilde.det().tensor(adj).fixed_point_dim(), (n, i0, j)
                assert dims(params, i0, j) == CohomologyDims(d1, d2)
                entries += 1
    assert entries == sum(((n - 1) // 2) ** 2 for n in range(3, 41))


def test_dims_rejects_indices_outside_the_row():
    params = DihedralParams.standard(5)
    for j in (0, 3, -1):
        with pytest.raises(ValueError, match="not in"):
            dims(params, 1, j)
        with pytest.raises(ValueError, match="not in"):
            dims_row(params, j)


def test_rows_of_a_group_with_many_indices_build_each_module_once(monkeypatch):
    """With more irreducible indices (1,025) than a per-index memo of
    1,024 entries holds, three signature rows still build each theta_i's
    monomial module once, instead of evicting each one just before the
    next row reads it."""
    params = DihedralParams.standard(2052, 2053)
    assert len(params.irr2_indices()) == 1025
    for value in vars(cohomology).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    builds = Counter()
    real = _MonomialModule.irr2.__func__

    def counting(cls, n, i):
        builds[i] += 1
        return real(cls, n, i)

    monkeypatch.setattr(_MonomialModule, "irr2", classmethod(counting))
    for i0 in (1, 2, 3):
        dims_row(params, i0)
    assert builds == Counter(dict.fromkeys(params.irr2_indices(), 1))


# The cocycle oracle and the dims route it checks share no code beyond
# the representation matrices: the oracle's code never names the route,
# and the route's code never names an oracle helper.
_ROUTE_NAMES = {"dims", "dims_row", "_irr2_monomials", "_MonomialModule"}


def _oracle_roots():
    return [cohomology.d1_oracle_cocycles]


def _route_roots():
    return [cohomology.dims, cohomology.dims_row]


def _reached(roots):
    """The package functions and classes reachable from roots, and every
    name their code objects (nested ones included) refer to.  A name the
    code loads as a global is followed when it resolves, in the globals
    of that code, to a function or class of the package; memoized
    functions through __wrapped__, classes through the functions in
    their namespace.  Attribute names are collected but not followed, so
    a method call m.tensor(...) does not reach the function tensor."""
    names, reached, seen = set(), [], set()
    todo = list(roots)
    while todo:
        obj = todo.pop()
        obj = getattr(obj, "__wrapped__", obj)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        reached.append(obj)
        if isinstance(obj, type):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # class/static methods
                if isinstance(member, FunctionType):
                    todo.append(member)
            continue
        codes = [obj.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [const for const in code.co_consts if isinstance(const, CodeType)]
            for name in {ins.argval for ins in get_instructions(code) if ins.opname == "LOAD_GLOBAL"}:
                target = obj.__globals__.get(name)
                module = getattr(target, "__module__", None) or ""
                if module.startswith("udrfusion") and (
                    isinstance(target, (type, FunctionType)) or hasattr(target, "__wrapped__")
                ):
                    todo.append(target)
    return reached, names


def _cross_references():
    """(route names the oracle's code refers to, oracle helpers the
    route's code refers to), with the oracle helpers being the functions
    of the cohomology module reached from the oracle."""
    reached, oracle_names = _reached(_oracle_roots())
    helpers = {
        obj.__name__ for obj in reached if getattr(obj, "__module__", None) == cohomology.__name__
    }
    assert {
        "_cocycle_module", "_relator_rows", "_mul4", "_invariant_dim", "_expand",
        "_coefficient_rows", "_conjugation_operators", "_conjugation_tails",
    } <= helpers
    _, route_names = _reached(_route_roots())
    assert {"_irr2_monomials", "tensor_fixed_point_dims"} <= route_names
    return oracle_names & _ROUTE_NAMES, route_names & helpers


def test_oracle_and_dims_route_share_no_code():
    assert _cross_references() == (set(), set())


def test_dims_route_reads_no_representation_matrix():
    # the route builds each theta_i from its weights; only the oracles
    # read irr2_rep's matrices
    _, route_names = _reached(_route_roots())
    assert route_names & {"irr2_rep", "Rep2", "FpMatrix"} == set()


def test_primes_of_one_n_share_one_monomial_entry():
    """Neither the monomial modules nor the signature row read p: two
    primes of one n build one module entry and one row."""
    cohomology._irr2_monomials.cache_clear()
    cohomology._dims_row.cache_clear()
    rows = [dims_row(DihedralParams.standard(12, p), 1) for p in find_primes(12, 2)]
    info = cohomology._irr2_monomials.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    info = cohomology._dims_row.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert rows[0] is rows[1]


def _planted(name, source):
    """A function compiled from source in a copy of the cohomology
    namespace, to stand in for the helper name."""
    namespace = dict(vars(cohomology))
    exec(source, namespace)
    return namespace[name]


def test_independence_check_sees_a_planted_cross_reference(monkeypatch):
    # an oracle helper that names dims inside a comprehension
    monkeypatch.setattr(cohomology, "_invariant_dim", _planted(
        "_invariant_dim", "def _invariant_dim(p, operator):\n    return [dims for _ in operator][0]\n"
    ))
    assert "dims" in _cross_references()[0]
    monkeypatch.undo()
    # a route helper that names an oracle helper
    monkeypatch.setattr(cohomology, "_irr2_monomials", _planted(
        "_irr2_monomials", "def _irr2_monomials(params):\n    return _mul4\n"
    ))
    assert "_mul4" in _cross_references()[1]


def test_every_cache_is_bounded():
    bounded = set()
    for name in ("ffield", "dihedral", "fusion", "cohomology", "deformation", "abelian", "cli"):
        module = importlib.import_module(f"udrfusion.{name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                assert value.cache_parameters()["maxsize"] is not None, (name, attr)
                bounded.add(attr)
    assert {
        "dims", "_dims_row", "irr2_rep", "_irr2_monomials", "_cocycle_module",
        "_closed_form_geometry", "_closed_form_stabilizers",
    } <= bounded
