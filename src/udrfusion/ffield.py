"""Exact arithmetic over prime fields F_p.

Scalars are canonical integer residues in [0, p) for an odd prime p.
Matrices are immutable, carry their modulus, and reduce every entry on
construction, so all linear algebra here is exact by construction.
Rank, nullity, inverse and determinant are thin wrappers around one
private Gauss-Jordan routine, _gauss_jordan.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .records import LimitExceeded

PRIME_SEARCH_CEILING = 10**6
# primitive_root_of_unity takes the least of the phi(n) roots, so O(n)
ROOT_ORDER_CEILING = 10**5


def is_prime(m: int) -> bool:
    """Trial division below PRIME_SEARCH_CEILING, which every prime the
    package searches for lies below; above it, Miller-Rabin to the first
    13 prime bases, which decides every m below 3.3 * 10^24 (Sorenson and
    Webster, 2015).  Raises LimitExceeded from that bound on."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    if m < PRIME_SEARCH_CEILING:
        f = 3
        while f * f <= m:
            if m % f == 0:
                return False
            f += 2
        return True
    ceiling = 3_317_044_064_679_887_385_961_981
    if m >= ceiling:
        raise LimitExceeded(f"primality is decided below {ceiling} only, got {m}")
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def is_odd_prime(m: int) -> bool:
    return m != 2 and is_prime(m)


def find_prime(n: int, lower_bound: int = 3) -> int:
    """Smallest odd prime p >= lower_bound with p congruent to 1 mod n.

    Such primes exist in abundance, but not necessarily below any given
    bound; the search stops at PRIME_SEARCH_CEILING and raises
    LimitExceeded there instead of running on.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if lower_bound < 3:
        raise ValueError("need lower_bound >= 3")
    # the odd p = 1 (mod n) are the p > 1 with p = 1 (mod step): start at
    # the first at or above lower_bound
    step = lcm(n, 2)
    p = lower_bound + (1 - lower_bound) % step
    while p <= PRIME_SEARCH_CEILING:
        if is_prime(p):
            return p
        p += step
    raise LimitExceeded(
        f"no odd prime p = 1 (mod {n}) with {lower_bound} <= p <= {PRIME_SEARCH_CEILING}"
    )


def find_primes(n: int, count: int) -> list[int]:
    """The count smallest odd primes congruent to 1 mod n.  Refused at
    once when fewer than count candidates lie below PRIME_SEARCH_CEILING."""
    if n < 3:
        raise ValueError("need n >= 3")
    candidates = (PRIME_SEARCH_CEILING - 1) // lcm(n, 2)
    if count > candidates:
        raise LimitExceeded(
            f"{count} primes p = 1 (mod {n}) asked for, but only {candidates} odd "
            f"p = 1 (mod {n}) lie in 3 <= p <= {PRIME_SEARCH_CEILING}"
        )
    out: list[int] = []
    while len(out) < count:
        out.append(find_prime(n, out[-1] + 1 if out else 3))
    return out


def _prime_divisors(m: int) -> list[int]:
    """The primes dividing m >= 1, in increasing order.  Trial division
    stops at PRIME_SEARCH_CEILING; is_prime must pass what is left."""
    primes, f = [], 2
    while f * f <= m and f < PRIME_SEARCH_CEILING:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if f * f <= m and not is_prime(m):
        raise LimitExceeded(f"{m} has no prime factor below {PRIME_SEARCH_CEILING}")
    return primes + [m] if m > 1 else primes


def has_order(a: int, n: int, p: int) -> bool:
    """Whether a has multiplicative order exactly n >= 1 mod p: a^n = 1,
    and a^(n/q) != 1 for each prime q dividing n."""
    return pow(a, n, p) == 1 and all(pow(a, n // q, p) != 1 for q in _prime_divisors(n))


def multiplicative_order(a: int, p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a % p == 0:
        raise ValueError("zero has no multiplicative order")
    order = p - 1
    for q in _prime_divisors(order):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def primitive_root_of_unity(p: int, n: int) -> int:
    """Smallest element of F_p* of multiplicative order exactly n.

    Requires n to divide p - 1.  For n >= 2 the result is the smallest
    integer in [2, p - 1] of order n; for n == 1 it is 1.
    """
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if n < 1:
        raise ValueError("need n >= 1")
    if (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide p - 1 = {p - 1}")
    if n == 1:
        return 1
    if n > ROOT_ORDER_CEILING:
        raise LimitExceeded(f"root order {n} is above the limit {ROOT_ORDER_CEILING}")
    # the elements of order n are the powers h^j, gcd(j, n) = 1, of any
    # one of them, and some a^((p-1)/n) is one of them
    for a in range(2, p):
        h = pow(a, (p - 1) // n, p)
        if has_order(h, n, p):
            return min(pow(h, j, p) for j in range(1, n) if gcd(j, n) == 1)
    raise AssertionError("unreachable: F_p* is cyclic of order p - 1")


def _gauss_jordan(p: int, rows, ncols: int) -> tuple[list, int, int]:
    """Bring a copy of rows (sequences of residues in [0, p)) to reduced
    row echelon form in its first ncols columns; a pivot row whose lead
    is already 1, as a reduced row is, is not normalised again.

    Returns the reduced rows, the number of pivots and the product of the
    pivots times the sign of the row swaps, all residues in [0, p); for a
    square matrix with a pivot in every column that product is the
    determinant.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    r = 0
    d = 1
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            d = -d
        lead = m[r][c]
        d = d * lead % p
        if lead != 1:
            inv = pow(lead, -1, p)
            m[r] = [inv * v % p for v in m[r]]
        pivot_row = m[r]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(v - f * w) % p for v, w in zip(row, pivot_row)]
        r += 1
        if r == nrows:
            break
    return m, r, d


class FpMatrix:
    """Immutable matrix over F_p with exact row-reduction based rank."""

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p: int, data) -> None:
        if not is_odd_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        norm = tuple(tuple(int(v) % p for v in row) for row in data)
        if not norm or not norm[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(norm[0]) for row in norm):
            raise ValueError("ragged rows")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", len(norm))
        object.__setattr__(self, "cols", len(norm[0]))
        object.__setattr__(self, "data", norm)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def _reduced(cls, p: int, data: tuple) -> "FpMatrix":
        """Wrap a non-empty rectangular tuple of tuples of residues in
        [0, p) for a modulus already known to be an odd prime, as the
        results of operations on valid matrices are; skips validation."""
        m = object.__new__(cls)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        object.__setattr__(m, "data", data)
        return m

    @classmethod
    def identity(cls, p: int, size: int) -> "FpMatrix":
        return cls(p, [[int(i == j) for j in range(size)] for i in range(size)])

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, [[0] * cols] * rows)

    @classmethod
    def diagonal(cls, p: int, entries) -> "FpMatrix":
        ent = list(entries)
        return cls(p, [[ent[i] if i == j else 0 for j in range(len(ent))] for i in range(len(ent))])

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {list(map(list, self.data))})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.p, self.data))

    def _same_shape(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        p = self.p
        return FpMatrix._reduced(
            p,
            tuple(
                tuple((a + b) % p for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            ),
        )

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        return self + -other

    def __neg__(self) -> "FpMatrix":
        p = self.p
        return FpMatrix._reduced(p, tuple(tuple(-a % p for a in row) for row in self.data))

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            return FpMatrix._reduced(p, tuple(tuple(a * other % p for a in row) for row in self.data))
        if not isinstance(other, FpMatrix):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bcols = tuple(zip(*other.data))
        return FpMatrix._reduced(
            p,
            tuple(tuple(sum(map(mul, row, col)) % p for col in bcols) for row in self.data),
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, e: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = FpMatrix.identity(self.p, self.rows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def transpose(self) -> "FpMatrix":
        return FpMatrix._reduced(self.p, tuple(zip(*self.data)))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.data[i][i] for i in range(self.rows)) % self.p

    def apply(self, vec) -> tuple[int, ...]:
        v = tuple(int(x) % self.p for x in vec)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        return tuple(sum(map(mul, row, v)) % p for row in self.data)

    def rank(self) -> int:
        return _gauss_jordan(self.p, self.data, self.cols)[1]

    def nullity(self) -> int:
        return self.cols - self.rank()

    def inverse(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        size = self.rows
        rows = [row + tuple(int(i == j) for j in range(size)) for i, row in enumerate(self.data)]
        m, rank, _ = _gauss_jordan(self.p, rows, size)
        if rank < size:
            raise ValueError("matrix is singular")
        return FpMatrix._reduced(self.p, tuple(tuple(row[size:]) for row in m))

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, rank, d = _gauss_jordan(self.p, self.data, self.cols)
        return d if rank == self.rows else 0

    def kron(self, other: "FpMatrix") -> "FpMatrix":
        """Kronecker product, blocks ordered row-major."""
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        p = self.p
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append(tuple(a * b % p for a in arow for b in brow))
        return FpMatrix._reduced(p, tuple(out))
