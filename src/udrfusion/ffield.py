"""Exact arithmetic over prime fields F_p.

Scalars are canonical integer residues in [0, p) for an odd prime p.
gauss_jordan is the package's one elimination routine: the cocycle
oracle, the abelian projector and the matrices of fpmatrix all rank
with it.  FpMatrix is defined in fpmatrix and still reads here: the
first read loads that module (PEP 562), so no command compiles it.
"""

from __future__ import annotations

from math import gcd, lcm

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
    once when fewer than count candidates lie below PRIME_SEARCH_CEILING,
    and when the search finds fewer than count primes there."""
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
        try:
            out.append(find_prime(n, out[-1] + 1 if out else 3))
        except LimitExceeded:
            raise LimitExceeded(
                f"{count} primes p = 1 (mod {n}) asked for, but only {len(out)} such "
                f"primes lie in 3 <= p <= {PRIME_SEARCH_CEILING}"
            ) from None
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


def gauss_jordan(p: int, rows, ncols: int) -> tuple[list, int, int]:
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


# the names defined in fpmatrix that still read here; __getattr__ loads
# that module on the first read and binds nothing in this one
_MOVED_NAMES = ("FpMatrix",)


def __getattr__(name: str):
    if name in _MOVED_NAMES:
        from . import fpmatrix

        return getattr(fpmatrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
