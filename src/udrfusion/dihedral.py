"""Dihedral groups of order 2n and their representations over F_p.

The group is <r, s | r^n = s^2 = e, s r s^-1 = r^-1>; every element is
written uniquely as s^flip r^rot.  With p = 1 (mod n) and w a primitive
n-th root of unity mod p, the two-dimensional irreducibles are

    theta_i :  r -> diag(w^i, w^-i),   s -> [[0, 1], [1, 0]]

for 1 <= i < n/2, equivalently the representation induced from the
rotation character r -> w^i.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import ffield
from .ffield import FpMatrix
from .records import FrozenRecord


def irr2_indices(n: int) -> range:
    """Indices i with 1 <= i < n/2 of the two-dimensional irreducibles."""
    if n < 3:
        raise ValueError("need n >= 3")
    return range(1, (n + 1) // 2)


def irr2_position(n: int, i: int) -> int:
    """The position of i in irr2_indices(n); ValueError if i is not there."""
    indices = irr2_indices(n)
    if i not in indices:
        raise ValueError(f"index {i} is not in [1, {n}/2)")
    return i - indices.start


class DihedralParams(FrozenRecord):
    """A dihedral group of order 2n together with a splitting prime field.

    Requires p odd, p = 1 (mod n), and omega of multiplicative order
    exactly n, so that all irreducibles are realized over F_p.
    """

    __slots__ = _fields = ("n", "p", "omega")

    def __init__(self, n: int, p: int, omega: int) -> None:
        self._init(n, p, omega)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("need n >= 3")
        if not ffield.is_odd_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if self.p % self.n != 1:
            raise ValueError(f"{self.p} is not 1 mod {self.n}")
        object.__setattr__(self, "omega", self.omega % self.p)
        if not ffield.has_order(self.omega, self.n, self.p):
            raise ValueError(f"{self.omega} does not have order {self.n} mod {self.p}")

    @classmethod
    def standard(cls, n: int, p: int | None = None) -> "DihedralParams":
        """Smallest valid prime (unless given) and smallest primitive root."""
        if p is None:
            p = ffield.find_prime(n, 3)
        return cls(n, p, ffield.primitive_root_of_unity(p, n))

    def irr2_indices(self) -> range:
        return irr2_indices(self.n)


class GroupElement(FrozenRecord):
    """The element s^flip r^rot of the dihedral group of order 2n."""

    __slots__ = _fields = ("n", "rot", "flip")

    def __init__(self, n: int, rot: int, flip: int = 0) -> None:
        if n < 3:
            raise ValueError("need n >= 3")
        self._init(n, rot % n, flip % 2)

    @classmethod
    def rotation(cls, n: int, a: int = 1) -> "GroupElement":
        return cls(n, a, 0)

    @classmethod
    def reflection(cls, n: int, a: int = 0) -> "GroupElement":
        return cls(n, a, 1)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed dihedral ranks")
        # s^b1 r^a1 . s^b2 r^a2 = s^(b1+b2) r^(a2 + (-1)^b2 a1)
        rot = other.rot + (-self.rot if other.flip else self.rot)
        return GroupElement(self.n, rot, self.flip ^ other.flip)

    def sort_key(self) -> tuple[int, int]:
        return (self.flip, self.rot)

    def word(self) -> str:
        parts = []
        if self.flip:
            parts.append("s")
        if self.rot == 1:
            parts.append("r")
        elif self.rot > 1:
            parts.append(f"r^{self.rot}")
        return " ".join(parts) if parts else "e"

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n}, {self.word()!r})"


def group_elements(n: int) -> list[GroupElement]:
    """All 2n elements, rotations first, in a fixed deterministic order."""
    return [GroupElement(n, a, b) for b in (0, 1) for a in range(n)]


def center(n: int) -> list[GroupElement]:
    """Center computed honestly by scanning for commuting elements."""
    r = GroupElement.rotation(n)
    s = GroupElement.reflection(n)
    return [g for g in group_elements(n) if g * r == r * g and g * s == s * g]


class RepLabel(FrozenRecord):
    """Isomorphism label: a 2-dim irreducible, a reducible induced
    representation, or a one-dimensional character."""

    __slots__ = _fields = ("kind", "index")

    def __init__(self, kind: str, index: int = 0) -> None:
        self._init(kind, index)  # kind: "irr2" | "ind" | "triv" | "sign"

    @classmethod
    def irr2(cls, i: int) -> "RepLabel":
        return cls("irr2", i)

    @classmethod
    def induced(cls, j: int) -> "RepLabel":
        return cls("ind", j)

    @property
    def name(self) -> str:
        if self.kind == "irr2":
            return f"theta{self.index}"
        if self.kind == "ind":
            return f"ind_chi{self.index}"
        if self.kind == "triv":
            return "triv"
        return "chi1"


class Rep2(FrozenRecord):
    """A two-dimensional representation given by its generator matrices."""

    __slots__ = _fields = ("params", "label", "mat_r", "mat_s")

    def __init__(
        self, params: DihedralParams, label: RepLabel, mat_r: FpMatrix, mat_s: FpMatrix
    ) -> None:
        self._init(params, label, mat_r, mat_s)

    def matrix(self, g: GroupElement) -> FpMatrix:
        m = self.mat_r ** g.rot
        if g.flip:
            m = self.mat_s * m
        return m

    def trace(self, g: GroupElement) -> int:
        return self.matrix(g).trace()


def _induced_matrices(params: DihedralParams, m: int) -> tuple[FpMatrix, FpMatrix]:
    p = params.p
    wm = pow(params.omega, m % params.n, p)
    mat_r = FpMatrix.diagonal(p, (wm, pow(wm, -1, p)))
    mat_s = FpMatrix(p, ((0, 1), (1, 0)))
    return mat_r, mat_s


# above the 60 distinct representations a default `verify` builds
IRR2_REP_CACHE_SIZE = 1024


@lru_cache(maxsize=IRR2_REP_CACHE_SIZE)
def irr2_rep(params: DihedralParams, i: int) -> Rep2:
    irr2_position(params.n, i)
    mat_r, mat_s = _induced_matrices(params, i)
    return Rep2(params, RepLabel.irr2(i), mat_r, mat_s)


def induced_rep(params: DihedralParams, m: int) -> Rep2:
    """The representation induced from the rotation character r -> w^m.

    Irreducible iff 2m is nonzero mod n; callers use this for the
    reducible boundary case 2m = 0 (mod n) as well.
    """
    mat_r, mat_s = _induced_matrices(params, m)
    return Rep2(params, RepLabel.induced(m % params.n), mat_r, mat_s)


def irr2_reps(params: DihedralParams) -> list[Rep2]:
    return [irr2_rep(params, i) for i in params.irr2_indices()]


def t_map(params: DihedralParams, i: int) -> RepLabel:
    """Induce the squared rotation character of theta_i.

    The result is theta_{2i} folded back into [1, n/2), except at
    i = n/4 where the induced representation splits.
    """
    n = params.n
    irr2_position(n, i)
    m = 2 * i
    if (2 * m) % n == 0:
        return RepLabel.induced(m)
    if 2 * m < n:
        return RepLabel.irr2(m)
    return RepLabel.irr2(n - m)


def omega_set(params: DihedralParams) -> frozenset[int]:
    """Indices of 2-dim irreducibles available as values of the doubling map.

    For n odd this is every index; for n even it is the image of t_map
    intersected with the irreducible labels (the even indices).
    """
    idxs = params.irr2_indices()
    if params.n % 2 == 1:
        return frozenset(idxs)
    image = set()
    for i in idxs:
        lab = t_map(params, i)
        if lab.kind == "irr2":
            image.add(lab.index)
    return frozenset(image)


def t_preimage(params: DihedralParams, i0: int) -> frozenset[int]:
    """All indices i with t_map(i) = theta_{i0}; requires i0 in omega_set."""
    if i0 not in omega_set(params):
        raise ValueError(f"index {i0} is not a doubling-map value for n = {params.n}")
    target = RepLabel.irr2(i0)
    return frozenset(i for i in params.irr2_indices() if t_map(params, i) == target)


def kernel_invariant(params: DihedralParams, i: int) -> tuple[int, tuple[GroupElement, ...]]:
    """gcd(i, n) together with ker(theta_i) = <r^(n/gcd)> as an element list."""
    n = params.n
    irr2_position(n, i)
    g0 = gcd(i, n)
    step = n // g0
    return g0, tuple(GroupElement(n, step * t, 0) for t in range(g0))


def rep_kernel_scan(params: DihedralParams, i: int) -> tuple[GroupElement, ...]:
    """Kernel found by testing theta_i(g) = 1 on all 2n elements."""
    rep = irr2_rep(params, i)
    ident = FpMatrix.identity(params.p, 2)
    return tuple(g for g in group_elements(params.n) if rep.matrix(g) == ident)


def center_acts_trivially(params: DihedralParams, i0: int) -> bool:
    rep = irr2_rep(params, i0)
    ident = FpMatrix.identity(params.p, 2)
    return all(rep.matrix(z) == ident for z in center(params.n))
