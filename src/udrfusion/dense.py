"""The dense module route: dihedral modules given by the FpMatrix action
of the two generators, with duals, tensor products, determinants and
fixed-point dimensions as the rank of the averaging idempotent.

It is an independent oracle for cohomology's monomial route (the tests
compare the two) and computes nothing on the dims path, so no command
loads it: cohomology's importers still read its names there, and the
first read loads this module (PEP 562).
"""

from __future__ import annotations

from . import dihedral
from .dihedral import DihedralParams, GroupElement, Rep2, RepLabel
from .fpmatrix import FpMatrix
from .records import FrozenRecord


class GModule(FrozenRecord):
    """A module over the dihedral group of order 2n, given by the action
    of the two generators.  Construction checks the defining relations."""

    __slots__ = _fields = ("n", "p", "dim", "mat_r", "mat_s")

    def __init__(self, n: int, p: int, dim: int, mat_r: FpMatrix, mat_s: FpMatrix) -> None:
        self._init(n, p, dim, mat_r, mat_s)

    def __post_init__(self) -> None:
        ident = FpMatrix.identity(self.p, self.dim)
        if self.mat_r.rows != self.dim or self.mat_s.rows != self.dim:
            raise ValueError("generator matrix has wrong dimension")
        if self.mat_r ** self.n != ident:
            raise ValueError("rotation matrix does not have order dividing n")
        if self.mat_s ** 2 != ident:
            raise ValueError("reflection matrix does not square to 1")
        if self.mat_s * self.mat_r * self.mat_s != self.mat_r.inverse():
            raise ValueError("generator matrices do not satisfy the dihedral relation")

    # a group element s^flip r^rot acts as mat_s^flip mat_r^rot, as in a Rep2
    def matrix(self, g: GroupElement) -> FpMatrix:
        m = self.mat_r ** g.rot
        return self.mat_s * m if g.flip else m

    def trace(self, g: GroupElement) -> int:
        return self.matrix(g).trace()


def rep_module(rep: Rep2) -> GModule:
    p = rep.params.p
    return GModule(rep.params.n, p, 2, FpMatrix(p, rep.mat_r), FpMatrix(p, rep.mat_s))


def trivial_module(params: DihedralParams, dim: int = 1) -> GModule:
    ident = FpMatrix.identity(params.p, dim)
    return GModule(params.n, params.p, dim, ident, ident)


def sign_module(params: DihedralParams) -> GModule:
    one = FpMatrix(params.p, ((1,),))
    return GModule(params.n, params.p, 1, one, FpMatrix(params.p, ((-1,),)))


def module_for_label(params: DihedralParams, label: RepLabel) -> GModule:
    if label.kind == "irr2":
        return rep_module(dihedral.irr2_rep(params, label.index))
    if label.kind == "ind":
        return rep_module(dihedral.induced_rep(params, label.index))
    if label.kind == "triv":
        return trivial_module(params)
    if label.kind == "sign":
        return sign_module(params)
    raise ValueError(f"unknown label kind {label.kind!r}")


def contragredient(m: GModule) -> GModule:
    """Dual module: each generator acts by transpose inverse."""
    return GModule(
        m.n,
        m.p,
        m.dim,
        m.mat_r.inverse().transpose(),
        m.mat_s.inverse().transpose(),
    )


def tensor(a: GModule, b: GModule) -> GModule:
    if a.n != b.n or a.p != b.p:
        raise ValueError("modules over different groups or fields")
    return GModule(a.n, a.p, a.dim * b.dim, a.mat_r.kron(b.mat_r), a.mat_s.kron(b.mat_s))


def det_module(m: GModule) -> GModule:
    """One-dimensional module through the determinant of the action."""
    return GModule(
        m.n,
        m.p,
        1,
        FpMatrix(m.p, ((m.mat_r.det(),),)),
        FpMatrix(m.p, ((m.mat_s.det(),),)),
    )


def adjoint_module(m: GModule) -> GModule:
    """V* (x) V, the conjugation action on Hom(V, V)."""
    return tensor(contragredient(m), m)


def fixed_point_dim(m: GModule) -> int:
    """Dimension of the invariants, as the rank of the averaging idempotent.

    The group sum factors as (1 + S) . sum_a R^a, which is the same 2n
    matrices added in a cheaper order.
    """
    p = m.p
    acc = FpMatrix.zeros(p, m.dim, m.dim)
    cur = FpMatrix.identity(p, m.dim)
    for _ in range(m.n):
        acc = acc + cur
        cur = cur * m.mat_r
    total = acc + m.mat_s * acc
    proj = pow(2 * m.n % p, -1, p) * total
    return proj.rank()


def adjoint_decomposition_check(params: DihedralParams, i: int) -> bool:
    """Confirm V* (x) V splits as trivial + sign + induced-square.

    Checks the character identity on all 2n elements and the three
    explicit stable spans: the identity matrix (trivial), diag(1, -1)
    (sign), and the pair of off-diagonal elementary matrices which the
    rotation scales by w^(2i) and w^(-2i) and the reflection swaps.
    """
    rep = dihedral.irr2_rep(params, i)
    adj = adjoint_module(rep_module(rep))
    triv = trivial_module(params)
    sgn = sign_module(params)
    tmod = module_for_label(params, dihedral.t_map(params, i))
    p = params.p

    for g in dihedral.group_elements(params.n):
        if adj.trace(g) != (triv.trace(g) + sgn.trace(g) + tmod.trace(g)) % p:
            return False

    mr, ms = FpMatrix(p, rep.mat_r), FpMatrix(p, rep.mat_s)
    mr_inv, ms_inv = mr.inverse(), ms.inverse()
    ident = FpMatrix.identity(p, 2)
    diag = FpMatrix.diagonal(p, (1, -1))
    upper = FpMatrix(p, ((0, 1), (0, 0)))
    lower = FpMatrix(p, ((0, 0), (1, 0)))
    w2 = pow(params.omega, 2 * i, p)
    w2_inv = pow(w2, -1, p)
    return (
        mr * ident * mr_inv == ident
        and ms * ident * ms_inv == ident
        and mr * diag * mr_inv == diag
        and ms * diag * ms_inv == -diag
        and mr * upper * mr_inv == w2 * upper
        and mr * lower * mr_inv == w2_inv * lower
        and ms * upper * ms_inv == lower
        and ms * lower * ms_inv == upper
    )
