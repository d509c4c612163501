"""First and second cohomology dimensions for rank-2 dihedral actions.

Everything reduces to fixed points of modules in odd characteristic:
for the semidirect product of the plane (acted on through theta_i0, the
contragredient convention) with the dihedral group, and coefficients in
the adjoint of a 2-dim irreducible V = V_j,

    d1 = dim (V_phi~ (x) V* (x) V)^G
    d2 = d1 + dim (V_det.phi~ (x) V* (x) V)^G

where phi~ is the contragredient of theta_i0 and det.phi~ is its
determinant character (the sign character).  Every module here is
monomial: r acts diagonally by powers of w and s by a signed
permutation, and duals, tensor products and determinants keep it so.
Invariants are therefore counted from the weights and the signed
permutation alone (`_MonomialModule`; theta_i is the weights (i, -i) and
the swap, no matrix), exact for any multiplicity as p is odd and prime
to n.  `dims_row` counts them for one action against every theta_j at
once, as a join on weight, and `dims` reads one entry of that row.

The dense `GModule` route on `irr2_rep`'s matrices, wrapped as
`FpMatrix`, whose fixed-point dimension is the rank of the averaging
idempotent, is an independent oracle for the tests and computes nothing
on the `dims` path.  Defined in `dense`, its names still read here:
the first read loads that module (PEP 562), so no command compiles it.

A second, independent route recomputes d1 from scratch: 1-cocycles of
the finitely presented semidirect product with values in the 2x2 matrix
module, solved as a linear system over F_p in the values on the four
generators and ranked by the package's one elimination routine,
`ffield.gauss_jordan`.  It reads `irr2_rep`'s matrices and shares
nothing with the fixed-point path beyond the definition of theta_i.
What does not read the action theta_i0 is built once per (params, j)
(`_cocycle_module`): the reduced rows of the six relators without it,
and the expansion of each conjugation relator up to its action-free head
g x g^-1.  A call resumes those expansions with the tails read off
theta_i0, as the product rule of Fox's free derivatives allows, and ranks
the memoized rows stacked over its 16 new ones in one elimination.
"""

from __future__ import annotations

from functools import lru_cache

from . import dihedral, ffield
from .dihedral import DihedralParams, Rep2
from .ffield import LimitExceeded
from .records import CohomologyDims

H1_ORACLE_GROUP_ORDER_LIMIT = 10**4


class _MonomialModule:
    """A monomial module over the dihedral group of order 2n.

    r acts on basis vector e_c by w^weight[c]; s sends e_c to
    sign[c] * e_perm[c].  Construction checks the dihedral relations in
    O(dim): perm is an involution with sign[perm[c]] = sign[c] = +-1
    (s^2 = 1), and weight[perm[c]] = -weight[c] mod n (s r s = r^-1);
    r^n = 1 holds because weights live mod n.  dual, tensor and det build
    their results through the same constructor, so every module is checked.
    """

    __slots__ = ("n", "weight", "perm", "sign")

    def __init__(self, n: int, weight, perm, sign) -> None:
        weight = tuple(w % n for w in weight)
        perm, sign = tuple(perm), tuple(sign)
        dim = len(weight)
        if dim == 0 or len(perm) != dim or len(sign) != dim:
            raise ValueError("weights, permutation and signs need one entry per coordinate")
        for c, target in enumerate(perm):
            if not 0 <= target < dim or perm[target] != c:
                raise ValueError("reflection permutation is not an involution")
            if sign[c] not in (1, -1) or sign[target] != sign[c]:
                raise ValueError("reflection does not square to 1")
            if (weight[target] + weight[c]) % n:
                raise ValueError("weights do not satisfy the dihedral relation")
        self.n, self.weight, self.perm, self.sign = n, weight, perm, sign

    @classmethod
    def irr2(cls, n: int, i: int) -> "_MonomialModule":
        """theta_i as dihedral.py defines it: r -> diag(w^i, w^-i) gives
        the weights (i, -i), and s swaps the two coordinates."""
        return cls(n, (i, -i), (1, 0), (1, 1))

    def dual(self) -> "_MonomialModule":
        # s is an involution with sign[perm[c]] = sign[c], so its
        # transpose inverse is itself
        return _MonomialModule(self.n, [-w for w in self.weight], self.perm, self.sign)

    def tensor(self, other: "_MonomialModule") -> "_MonomialModule":
        """Coordinates ordered as in FpMatrix.kron: c = a * other.dim + b."""
        dim_b = len(other.weight)
        return _MonomialModule(
            self.n,
            [wa + wb for wa in self.weight for wb in other.weight],
            [pa * dim_b + pb for pa in self.perm for pb in other.perm],
            [sa * sb for sa in self.sign for sb in other.sign],
        )

    def det(self) -> "_MonomialModule":
        """r acts by w^(sum of weights); s by the permutation's sign
        times the product of the signs."""
        sgn = 1
        for sg in self.sign:
            sgn *= sg
        for c, target in enumerate(self.perm):
            if c < target:  # one transposition per 2-cycle
                sgn = -sgn
        return _MonomialModule(self.n, [sum(self.weight)], [0], [sgn])

    def fixed_point_dim(self) -> int:
        """Weight-zero coordinates span the r-invariants (w has order n);
        s permutes them, each 2-cycle contributes one invariant and each
        fixed coordinate one exactly when its sign is +1 (p is odd)."""
        count = 0
        for c, w in enumerate(self.weight):
            target = self.perm[c]
            if w == 0 and (c < target or (c == target and self.sign[c] == 1)):
                count += 1
        return count

    def by_weight(self) -> dict[int, tuple[int, ...]]:
        """The coordinates of each weight, in increasing order."""
        index: dict[int, list[int]] = {}
        for c, w in enumerate(self.weight):
            index.setdefault(w, []).append(c)
        return {w: tuple(cs) for w, cs in index.items()}

    def tensor_fixed_point_dims(self, others) -> list[int]:
        """self.tensor(b).fixed_point_dim() for each (b, b.by_weight()) in
        others, without building a product: the weight-zero coordinates
        (a, b) are the pairs whose weights sum to 0 mod n, joined on
        weight, and the s-orbit and sign rule of fixed_point_dim is read
        off the two factors, with (a, b) ordered as in tensor.  Each
        s-orbit of self is taken once, at its least coordinate a."""
        n = self.n
        orbits = [
            (-w % n, a != self.perm[a], self.sign[a])
            for a, w in enumerate(self.weight)
            if a <= self.perm[a]
        ]
        counts = []
        for other, index in others:
            perm, sign = other.perm, other.sign
            count = 0
            for need, paired, sg in orbits:
                for b in index.get(need, ()):
                    target = perm[b]
                    if paired or b < target or (b == target and sign[b] == sg):
                        count += 1
            counts.append(count)
        return counts


# Cache bounds, each above the working set of a default `verify` (120
# distinct dims arguments, 120 distinct (n, i0) signature rows, 19
# distinct n with monomial modules, 28 distinct (params, j) oracle
# modules), so that run never evicts, while a long-lived caller's memory
# stays bounded.
DIMS_CACHE_SIZE = 4096
ROW_CACHE_SIZE = 1024
MONOMIAL_CACHE_SIZE = 64
ORACLE_MODULE_CACHE_SIZE = 256


@lru_cache(maxsize=MONOMIAL_CACHE_SIZE)
def _irr2_monomials(n: int) -> tuple:
    """For every theta_i, i in irr2_indices(n) in order, built from its
    weights as a monomial module V: the adjoints V* (x) V with their
    coordinates by weight, and the duals V* with det V*.  Nothing reads
    p, so the primes of one n share an entry; it holds every index, so
    that a signature row never evicts a module the next row reads."""
    adjoints, duals = [], []
    for i in dihedral.irr2_indices(n):
        v = _MonomialModule.irr2(n, i)
        dual = v.dual()
        adj = dual.tensor(v)
        adjoints.append((adj, adj.by_weight()))
        duals.append((dual, dual.det()))
    return tuple(adjoints), tuple(duals)


def dims_row(params: DihedralParams, i0: int) -> tuple[tuple[int, int], ...]:
    """(d1, d2) for the action of theta_i0 against each theta_j, j in
    params.irr2_indices() in order: the invariant counts of phi~ (x) adj_j
    and det phi~ (x) adj_j, one weight join of each factor against every
    adjoint of _irr2_monomials(params.n).  Nothing reads p, so the primes
    of one n share the row, memoized by _dims_row on (n, i0)."""
    return _dims_row(params.n, i0)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _dims_row(n: int, i0: int) -> tuple[tuple[int, int], ...]:
    at = dihedral.irr2_position(n, i0)
    adjoints, duals = _irr2_monomials(n)
    phi_tilde, wedge = duals[at]
    d1s = phi_tilde.tensor_fixed_point_dims(adjoints)
    d2s = [d1 + d_wedge for d1, d_wedge in zip(d1s, wedge.tensor_fixed_point_dims(adjoints))]
    # a row holds a few distinct pairs; each is stored once
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    return tuple(pairs.setdefault(pair, pair) for pair in zip(d1s, d2s))


@lru_cache(maxsize=DIMS_CACHE_SIZE)
def dims(params: DihedralParams, i0: int, j: int) -> CohomologyDims:
    """d1 and d2 for the action of theta_i0 on the plane with adjoint
    coefficients coming from theta_j: entry j of dims_row."""
    at = dihedral.irr2_position(params.n, j)
    return CohomologyDims(*dims_row(params, i0)[at])


def cohomologically_maximal_set(params: DihedralParams, i0: int) -> frozenset[int]:
    """Indices j whose d2 attains the maximum over all 2-dim irreducibles."""
    table = {j: d2 for j, (_, d2) in zip(params.irr2_indices(), dims_row(params, i0))}
    top = max(table.values())
    return frozenset(j for j, v in table.items() if v == top)


_GEN_ORDER = ("a", "b", "r", "s")

# operators on the 2x2 matrix module M are 4x4 matrices over F_p, stored
# row-major as flat 16-tuples of residues
_IDENTITY16 = tuple(int(k % 5 == 0) for k in range(16))  # ones at 0, 5, 10, 15


def _mul4(p: int, x: tuple, y: tuple) -> tuple[int, ...]:
    """The product x . y of two flat 4x4 operators: y's entries are bound
    once, and each row of the product is four dot products of a row of x
    with the columns of y."""
    y00, y01, y02, y03, y10, y11, y12, y13, y20, y21, y22, y23, y30, y31, y32, y33 = y
    product = []
    for x0, x1, x2, x3 in (x[0:4], x[4:8], x[8:12], x[12:16]):
        product += (
            (x0 * y00 + x1 * y10 + x2 * y20 + x3 * y30) % p,
            (x0 * y01 + x1 * y11 + x2 * y21 + x3 * y31) % p,
            (x0 * y02 + x1 * y12 + x2 * y22 + x3 * y32) % p,
            (x0 * y03 + x1 * y13 + x2 * y23 + x3 * y33) % p,
        )
    return tuple(product)


def _conjugation_operators(p: int, mat: tuple) -> tuple[tuple, tuple]:
    """X -> M X M^-1 and its inverse X -> M^-1 X M on 2x2 matrices, in
    the basis E11, E12, E21, E22, read off the four entries of the
    invertible 2x2 matrix M: row-major vectorization turns them into
    M (x) (M^-1)^T and M^-1 (x) M^T, whose entry (2i + k, 2j + l) is
    A[i][j] . B[l][k] for A (x) B^T."""
    (m00, m01), (m10, m11) = mat
    det_inv = pow(m00 * m11 - m01 * m10, -1, p)
    inv = ((m11 * det_inv % p, -m01 * det_inv % p), (-m10 * det_inv % p, m00 * det_inv % p))

    def kron_transpose(a, b) -> tuple[int, ...]:
        return tuple(
            a[i][j] * b[l][k] % p for i in (0, 1) for k in (0, 1) for j in (0, 1) for l in (0, 1)
        )

    return kron_transpose(mat, inv), kron_transpose(inv, mat)


def _module_relators(n: int, p: int) -> list[list[tuple[str, int]]]:
    """The six relators that do not involve the action theta_i0: a^p,
    b^p, [a, b], r^n, s^2 and (s r)^2."""
    return [
        [("a", p)],
        [("b", p)],
        [("a", 1), ("b", 1), ("a", -1), ("b", -1)],
        [("r", n)],
        [("s", 2)],
        [("s", 1), ("r", 1), ("s", -1), ("r", 1)],
    ]


# the conjugation relators g x g^-1 (theta_i0(g) x)^-1, one per group
# generator g and plane generator x, split into the head g x g^-1, which
# does not involve the action, and the tail read off theta_i0
_CONJUGATION_HEADS = tuple(
    ((gsym, 1), (xsym, 1), (gsym, -1)) for gsym in ("r", "s") for xsym in ("a", "b")
)


def _conjugation_tails(action_rep: Rep2) -> list[list[tuple[str, int]]]:
    """The tail b^-cb a^-ca of each relator of _CONJUGATION_HEADS, in its
    order, with (ca, cb) the column of x in the theta_i0 matrix of g."""
    return [[("b", -cb), ("a", -ca)]
            for mat in (action_rep.mat_r, action_rep.mat_s) for ca, cb in zip(*mat)]


# the expansion of the empty word: every coefficient zero, prefix 1
_EMPTY_EXPANSION = (dict.fromkeys(_GEN_ORDER, (0,) * 16), _IDENTITY16)


def _expand(
    p: int,
    letters,
    operator: dict[str, tuple],
    operator_inv: dict[str, tuple],
    state: tuple = _EMPTY_EXPANSION,
) -> tuple[dict, tuple]:
    """The cocycle expansion of a word, resumed after the letters whose
    expansion is state: (coeff, prefix), with the value of the cocycle
    on the word being the sum over generators g of coeff[g] . f(g), and
    prefix the product of the operators of the letters read.  By the
    product rule of Fox's free derivatives, the expansion of u v is that
    of u plus prefix(u) times that of v, so a word resumes from the state
    of any of its prefixes; state is not changed.

    The letter g^e adds prefix, prefix.g, ..., prefix.g^(e-1) to
    coeff[g] for e >= 0, and -prefix.g^-1, ..., -prefix.g^e for e < 0.
    When g acts as the identity all |e| terms equal prefix, so the
    letter adds e . prefix and leaves prefix as it is.
    """
    coeff, prefix = state
    coeff = dict(coeff)
    for sym, e in letters:
        op, acc = operator[sym], coeff[sym]
        if op == _IDENTITY16:
            acc = [c + e * v for c, v in zip(acc, prefix)]
        elif e >= 0:
            for _ in range(e):
                acc = [c + v for c, v in zip(acc, prefix)]
                prefix = _mul4(p, prefix, op)
        else:
            for _ in range(-e):
                prefix = _mul4(p, prefix, operator_inv[sym])
                acc = [c - v for c, v in zip(acc, prefix)]
        coeff[sym] = acc
    return coeff, prefix


def _coefficient_rows(p: int, coeff: dict) -> list[tuple[int, ...]]:
    """The 4 rows, in the 16 unknowns (the values of a, b, r and s in
    turn), of the condition sum over g of coeff[g] . f(g) = 0."""
    flat = [v % p for sym in _GEN_ORDER for v in coeff[sym]]
    return [
        tuple(flat[k : k + 4] + flat[k + 16 : k + 20] + flat[k + 32 : k + 36] + flat[k + 48 : k + 52])
        for k in (0, 4, 8, 12)
    ]


def _relator_rows(
    p: int, rel: list[tuple[str, int]], operator: dict[str, tuple], operator_inv: dict[str, tuple]
) -> list[tuple[int, ...]]:
    """The 4 rows of the condition that the cocycle expansion of the
    relator rel vanishes, expanded from the empty word."""
    return _coefficient_rows(p, _expand(p, rel, operator, operator_inv)[0])


def _invariant_dim(p: int, operator: dict[str, tuple]) -> int:
    """dim M^G: the common kernel of R - 1 and S - 1."""
    rows = [
        [(op[4 * i + k] - (i == k)) % p for k in range(4)]
        for op in (operator["r"], operator["s"])
        for i in range(4)
    ]
    return 4 - ffield.gauss_jordan(p, rows, 4)[1]


@lru_cache(maxsize=ORACLE_MODULE_CACHE_SIZE)
def _cocycle_module(params: DihedralParams, j: int) -> tuple:
    """The half of the cocycle system that depends on (params, j) alone,
    as (operator, operator_inv, basis, heads, m_fixed): the operator of
    each generator on the 2x2 matrix module M of theta_j (a and b act as
    the identity) and their inverses; the nonzero rows of the reduced row
    echelon form of the six relators that do not involve the action, each
    with lead 1; the expansion state of each head of _CONJUGATION_HEADS,
    from which a call resumes with its tail; and dim M^G."""
    p = params.p
    module_rep = dihedral.irr2_rep(params, j)
    operator = {"a": _IDENTITY16, "b": _IDENTITY16}
    operator_inv = dict(operator)
    for sym, mat in (("r", module_rep.mat_r), ("s", module_rep.mat_s)):
        operator[sym], operator_inv[sym] = _conjugation_operators(p, mat)
    # a^p, b^p and [a, b] expand to zero rows, which change no rank
    rows = [
        row
        for rel in _module_relators(params.n, p)
        for row in _relator_rows(p, rel, operator, operator_inv)
        if any(row)
    ]
    reduced, rank, _ = ffield.gauss_jordan(p, rows, 16)
    basis = tuple(tuple(row) for row in reduced[:rank])
    heads = tuple(_expand(p, head, operator, operator_inv) for head in _CONJUGATION_HEADS)
    return operator, operator_inv, basis, heads, _invariant_dim(p, operator)


def d1_oracle_cocycles(params: DihedralParams, i0: int, j: int) -> int:
    """d1 recomputed from 1-cocycles of the presented semidirect product.

    Generators: a, b for the two plane coordinates, r, s for the group.
    Relators: a^p, b^p, [a, b], r^n, s^2, (s r)^2, and one conjugation
    relator g x g^-1 b^-cb a^-ca per (group generator g, plane generator
    x) pair, with (ca, cb) the column of x in the theta_i0 matrix of g.
    A cocycle is determined by its four generator values in the 2x2
    matrix module M (16 unknowns); each relator contributes the linear
    condition that its cocycle expansion vanishes.  Then

        d1 = dim Z1 - (dim M - dim M^G).

    Everything that does not read i0 comes from the memo
    _cocycle_module on (params, j): the reduced rows of the first six
    relators, dim M^G, and the expansion of each conjugation relator's
    head g x g^-1.  A call resumes each head's expansion with its two
    tail letters, and the system's rank is that of the memoized rows
    stacked over its 16 rows, by ffield.gauss_jordan.
    """
    n, p = params.n, params.p
    if 2 * n * p * p > H1_ORACLE_GROUP_ORDER_LIMIT:
        raise LimitExceeded(
            f"group order {2 * n * p * p} exceeds oracle limit {H1_ORACLE_GROUP_ORDER_LIMIT}"
        )
    operator, operator_inv, basis, heads, m_fixed = _cocycle_module(params, j)
    rows = [
        row
        for state, tail in zip(heads, _conjugation_tails(dihedral.irr2_rep(params, i0)))
        for row in _coefficient_rows(p, _expand(p, tail, operator, operator_inv, state)[0])
    ]
    rank = ffield.gauss_jordan(p, [*basis, *rows], 16)[1]
    return 16 - rank - (4 - m_fixed)


# the names defined in dense that still read here; __getattr__ loads that
# module on the first read and binds nothing in this one
_MOVED_NAMES = (
    "GModule", "rep_module", "trivial_module", "sign_module", "module_for_label", "contragredient",
    "tensor", "det_module", "adjoint_module", "fixed_point_dim", "adjoint_decomposition_check",
)


def __getattr__(name: str):
    if name in _MOVED_NAMES:
        from . import dense

        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
