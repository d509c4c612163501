"""Immutable matrices over F_p.

A matrix carries its modulus and reduces every entry on construction, so
its linear algebra is exact.  Rank, nullity, inverse and determinant
are thin wrappers around ffield.gauss_jordan, the package's one
elimination routine.  The dense module oracle and the tests wrap
dihedral's 2x2 tuples in this class; no command loads it.
"""

from __future__ import annotations

from operator import mul

from . import ffield


class FpMatrix:
    """Immutable matrix over F_p with exact row-reduction based rank."""

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p: int, data) -> None:
        if not ffield.is_odd_prime(p):
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
        return ffield.gauss_jordan(self.p, self.data, self.cols)[1]

    def nullity(self) -> int:
        return self.cols - self.rank()

    def inverse(self) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        size = self.rows
        rows = [row + tuple(int(i == j) for j in range(size)) for i, row in enumerate(self.data)]
        m, rank, _ = ffield.gauss_jordan(self.p, rows, size)
        if rank < size:
            raise ValueError("matrix is singular")
        return FpMatrix._reduced(self.p, tuple(tuple(row[size:]) for row in m))

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, rank, d = ffield.gauss_jordan(self.p, self.data, self.cols)
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
