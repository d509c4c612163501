from __future__ import annotations

import pytest

from udrfusion import cohomology, ffield, fusion
from udrfusion.dihedral import (
    RANK_LIMIT,
    DihedralParams,
    GroupElement,
    Rep2,
    RepLabel,
    center,
    center_acts_trivially,
    group_elements,
    induced_rep,
    irr2_indices,
    irr2_position,
    irr2_rep,
    irr2_reps,
    kernel_invariant,
    omega_set,
    rep_kernel_scan,
    t_map,
    t_preimage,
)
from udrfusion.ffield import FpMatrix, LimitExceeded


def test_irr2_indices():
    assert list(irr2_indices(3)) == [1]
    assert list(irr2_indices(4)) == [1]
    assert list(irr2_indices(5)) == [1, 2]
    assert list(irr2_indices(6)) == [1, 2]
    assert list(irr2_indices(12)) == [1, 2, 3, 4, 5]
    assert [irr2_position(12, i) for i in irr2_indices(12)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        irr2_indices(2)


def test_params_standard():
    params = DihedralParams.standard(5)
    assert (params.n, params.p, params.omega) == (5, 11, 3)
    assert DihedralParams.standard(3).p == 7
    assert DihedralParams.standard(12).omega == 2


def test_params_normalizes_omega():
    assert DihedralParams(5, 11, 14).omega == 3


def test_params_validation():
    with pytest.raises(ValueError):
        DihedralParams(2, 5, 2)
    with pytest.raises(ValueError):
        DihedralParams(5, 6, 2)
    with pytest.raises(ValueError):
        DihedralParams(5, 7, 2)  # 7 is not 1 mod 5
    with pytest.raises(ValueError):
        DihedralParams(5, 11, 2)  # order 10, not 5
    # the rank ceiling, refused before any arithmetic: 5003 = 1 mod 2501,
    # and 3 has order 2501 mod 5003
    assert DihedralParams.standard(RANK_LIMIT).n == RANK_LIMIT == 2500
    with pytest.raises(LimitExceeded, match="^rank 2501 is above the rank limit 2500$"):
        DihedralParams(RANK_LIMIT + 1, 5003, 3)
    with pytest.raises(LimitExceeded):
        DihedralParams.standard(10**5)


def test_params_standard_refuses_the_rank_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched above the rank limit")

    monkeypatch.setattr(ffield, "find_prime", no_search)
    monkeypatch.setattr(ffield, "primitive_root_of_unity", no_search)
    for n, p in ((RANK_LIMIT + 1, None), (RANK_LIMIT + 1, 5003), (10**5, None)):
        with pytest.raises(LimitExceeded, match=f"^rank {n} is above the rank limit 2500$"):
            DihedralParams.standard(n, p)


def test_group_element_basics():
    e = GroupElement(4, 0)
    r = GroupElement.rotation(4)
    s = GroupElement.reflection(4)
    assert r * r * r * r == e
    assert s * s == e
    # s r s^-1 = r^-1, and r^-1 = r^3
    assert s * r * s == r * r * r
    assert GroupElement(4, 5, 2) == GroupElement(4, 1, 0)


def test_group_element_product_frozen():
    # s r^1 . s r^2 = r^(2 - 1) = r
    assert GroupElement.reflection(4, 1) * GroupElement.reflection(4, 2) == GroupElement.rotation(4, 1)
    # r^1 . s r^2 = s r^(2 - 1)
    assert GroupElement.rotation(4, 1) * GroupElement.reflection(4, 2) == GroupElement.reflection(4, 1)
    # s r^2 . r^1 = s r^3
    assert GroupElement.reflection(4, 2) * GroupElement.rotation(4, 1) == GroupElement.reflection(4, 3)


def test_group_law_exhaustive():
    els = group_elements(4)
    assert len(els) == 8 and len(set(els)) == 8
    e = GroupElement(4, 0)
    for g in els:
        assert g * e == g and e * g == g
        # one two-sided inverse
        inverses = [h for h in els if g * h == e]
        assert len(inverses) == 1 and inverses[0] * g == e
        for h in els:
            for k in els:
                assert (g * h) * k == g * (h * k)


def test_group_element_words():
    assert GroupElement(5, 0).word() == "e"
    assert GroupElement.rotation(5).word() == "r"
    assert GroupElement.rotation(5, 3).word() == "r^3"
    assert GroupElement.reflection(5).word() == "s"
    assert GroupElement.reflection(5, 2).word() == "s r^2"


def test_group_element_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        GroupElement.rotation(4) * GroupElement.rotation(5)


def test_center():
    assert center(5) == [GroupElement(5, 0)]
    assert center(7) == [GroupElement(7, 0)]
    assert center(6) == [GroupElement(6, 0), GroupElement.rotation(6, 3)]
    assert center(8) == [GroupElement(8, 0), GroupElement.rotation(8, 4)]


def test_rep_matrices_frozen():
    rep = irr2_rep(DihedralParams.standard(3), 1)
    assert rep.mat_r == ((2, 0), (0, 4))
    assert rep.mat_s == ((0, 1), (1, 0))
    params = DihedralParams.standard(5)
    assert irr2_rep(params, 1).mat_r == ((3, 0), (0, 4))
    assert irr2_rep(params, 2).mat_r == ((9, 0), (0, 5))
    # entries are stored reduced mod p, as residues
    made = Rep2(params, RepLabel.irr2(1), [[14, 0], [0, -7]], ((0, 12), (1.0, 0)))
    assert (made.mat_r, made.mat_s) == (((3, 0), (0, 4)), ((0, 1), (1, 0)))


def test_rep_index_validation():
    params = DihedralParams.standard(5)
    with pytest.raises(ValueError):
        irr2_rep(params, 0)
    with pytest.raises(ValueError):
        irr2_rep(params, 3)
    # a generator matrix that is empty, ragged or not 2x2
    swap = ((0, 1), (1, 0))
    for bad in ((), ((),), ((1, 0), (0,)), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0)),
                ((1,),)):
        with pytest.raises(ValueError):
            Rep2(params, RepLabel.irr2(1), bad, swap)
        with pytest.raises(ValueError):
            Rep2(params, RepLabel.irr2(1), swap, bad)


def test_rep_is_homomorphism():
    for n in (5, 6):
        params = DihedralParams.standard(n)
        for rep in irr2_reps(params):
            for g in group_elements(n):
                for h in group_elements(n):
                    product = FpMatrix(params.p, rep.matrix(g)) * FpMatrix(params.p, rep.matrix(h))
                    assert rep.matrix(g * h) == product.data


def test_rep_satisfies_relations():
    for n in (3, 4, 5, 8, 12):
        params = DihedralParams.standard(n)
        ident = FpMatrix.identity(params.p, 2)
        for rep in irr2_reps(params):
            mat_r, mat_s = FpMatrix(params.p, rep.mat_r), FpMatrix(params.p, rep.mat_s)
            assert mat_r ** n == ident
            assert mat_s ** 2 == ident
            assert mat_s * mat_r * mat_s == mat_r.inverse()


def test_rep_traces():
    """Rotation traces are w^(ia) + w^(-ia); reflections are traceless."""
    params = DihedralParams.standard(5)
    p, w = params.p, params.omega
    for i in params.irr2_indices():
        rep = irr2_rep(params, i)
        for a in range(5):
            expected = (pow(w, i * a, p) + pow(w, -i * a, p)) % p
            assert rep.trace(GroupElement.rotation(5, a)) == expected
            assert rep.trace(GroupElement.reflection(5, a)) == 0


def test_induced_rep_reducible_case():
    # n = 4, m = 2: r acts as -1, so (1, 1) and (1, -1) span stable lines
    params = DihedralParams.standard(4)
    rep = induced_rep(params, 2)
    p = params.p
    mat_r, mat_s = FpMatrix(p, rep.mat_r), FpMatrix(p, rep.mat_s)
    assert rep.mat_r == ((p - 1, 0), (0, p - 1))
    assert mat_r.apply((1, 1)) == (p - 1, p - 1)
    assert mat_s.apply((1, 1)) == (1, 1)
    assert mat_s.apply((1, p - 1)) == (p - 1, 1)


def test_t_map_frozen():
    p5 = DihedralParams.standard(5)
    assert t_map(p5, 1) == RepLabel.irr2(2)
    assert t_map(p5, 2) == RepLabel.irr2(1)
    p12 = DihedralParams.standard(12)
    assert t_map(p12, 1) == RepLabel.irr2(2)
    assert t_map(p12, 2) == RepLabel.irr2(4)
    assert t_map(p12, 3) == RepLabel.induced(6)
    assert t_map(p12, 4) == RepLabel.irr2(4)
    assert t_map(p12, 5) == RepLabel.irr2(2)
    assert t_map(DihedralParams.standard(4), 1) == RepLabel.induced(2)
    assert t_map(DihedralParams.standard(6), 2) == RepLabel.irr2(2)


# the seven functions that check an action index, each called with i in
# the place it checks (dims checks j; dims_row checks its i0), and the
# helper whose error they all raise
_INDEX_TAKERS = {
    "irr2_rep": irr2_rep,
    "t_map": t_map,
    "kernel_invariant": kernel_invariant,
    "dims_row": cohomology.dims_row,
    "dims": lambda params, i: cohomology.dims(params, 1, i),
    "fusion_orbits_closed_form": fusion.fusion_orbits_closed_form,
    "same_fusion": lambda params, i: fusion.same_fusion(params, i, 1),
    "same_fusion, second index": lambda params, i: fusion.same_fusion(params, 1, i),
    "irr2_position": lambda params, i: irr2_position(params.n, i),
}


@pytest.mark.parametrize("name", _INDEX_TAKERS)
@pytest.mark.parametrize("n", [6, 7])
def test_every_index_taker_refuses_an_index_outside_irr2_indices_alike(n, name):
    params = DihedralParams.standard(n)
    for i in (0, (n + 1) // 2):
        expected = f"index {i} is not in [1, {n}/2)"
        with pytest.raises(ValueError) as caught:
            _INDEX_TAKERS[name](params, i)
        assert str(caught.value) == expected


def test_t_map_validation():
    params = DihedralParams.standard(12)
    with pytest.raises(ValueError):
        t_map(params, 0)
    with pytest.raises(ValueError):
        t_map(params, 6)


def test_rep_label_names():
    assert RepLabel.irr2(3).name == "theta3"
    assert RepLabel.induced(6).name == "ind_chi6"
    assert RepLabel("triv").name == "triv"
    assert RepLabel("sign").name == "chi1"


def test_omega_set_frozen():
    assert omega_set(DihedralParams.standard(5)) == frozenset({1, 2})
    assert omega_set(DihedralParams.standard(7)) == frozenset({1, 2, 3})
    assert omega_set(DihedralParams.standard(4)) == frozenset()
    assert omega_set(DihedralParams.standard(6)) == frozenset({2})
    assert omega_set(DihedralParams.standard(8)) == frozenset({2})
    assert omega_set(DihedralParams.standard(10)) == frozenset({2, 4})
    assert omega_set(DihedralParams.standard(12)) == frozenset({2, 4})


def test_omega_set_is_center_trivial_locus():
    for n in range(3, 21):
        params = DihedralParams.standard(n)
        om = omega_set(params)
        for i in params.irr2_indices():
            assert (i in om) == center_acts_trivially(params, i)


def test_center_action_frozen():
    params = DihedralParams.standard(6)
    assert not center_acts_trivially(params, 1)
    assert center_acts_trivially(params, 2)


def test_t_preimage_frozen():
    p5 = DihedralParams.standard(5)
    assert t_preimage(p5, 1) == frozenset({2})
    assert t_preimage(p5, 2) == frozenset({1})
    p12 = DihedralParams.standard(12)
    assert t_preimage(p12, 2) == frozenset({1, 5})
    assert t_preimage(p12, 4) == frozenset({2, 4})
    assert t_preimage(DihedralParams.standard(6), 2) == frozenset({1, 2})


def test_t_preimage_requires_omega_membership():
    with pytest.raises(ValueError):
        t_preimage(DihedralParams.standard(12), 1)
    with pytest.raises(ValueError):
        t_preimage(DihedralParams.standard(4), 1)


def test_t_preimages_cover_indices():
    """Fibers over the doubling image partition the index set, except the
    single index n/4 whose induced square splits."""
    for n in range(3, 17):
        params = DihedralParams.standard(n)
        covered = set()
        for i0 in omega_set(params):
            fiber = t_preimage(params, i0)
            assert not (covered & fiber)
            covered |= fiber
        missing = set(params.irr2_indices()) - covered
        if n % 4 == 0:
            assert missing == {n // 4}
        else:
            assert missing == set()


def test_odd_rank_fibers_are_single_indices():
    """For odd n the doubling image is every index and each fiber holds
    exactly one index, so the fibers permute the indices."""
    for n in range(3, 42, 2):
        params = DihedralParams.standard(n)
        assert omega_set(params) == frozenset(params.irr2_indices())
        fibers = [t_preimage(params, i0) for i0 in params.irr2_indices()]
        assert all(len(fiber) == 1 for fiber in fibers)
        assert frozenset().union(*fibers) == frozenset(params.irr2_indices())


def test_kernel_invariant_frozen():
    p12 = DihedralParams.standard(12)
    g0, kernel = kernel_invariant(p12, 3)
    assert g0 == 3
    assert kernel == (
        GroupElement(12, 0),
        GroupElement.rotation(12, 4),
        GroupElement.rotation(12, 8),
    )
    assert kernel_invariant(p12, 2) == (2, (GroupElement(12, 0), GroupElement.rotation(12, 6)))
    assert kernel_invariant(DihedralParams.standard(5), 2) == (1, (GroupElement(5, 0),))


def test_kernel_matches_matrix_scan():
    for n in range(3, 13):
        params = DihedralParams.standard(n)
        for i in params.irr2_indices():
            g0, kernel = kernel_invariant(params, i)
            assert len(kernel) == g0
            assert set(kernel) == set(rep_kernel_scan(params, i))
            assert all(g.flip == 0 for g in kernel)
