"""Exact arithmetic over Q(sqrt2) and exact linear algebra.

Everything downstream computes with elements of the real quadratic field
Q(sqrt2): the rational structure constants of the Chevalley basis stay
rational, and sqrt2 enters once, through the Cayley transform.  A scalar
is stored as a single reduced triple (p, q, r) of integers representing
(p + q*sqrt2)/r, which keeps the hot arithmetic paths down to integer
multiplies and one gcd per operation.

Sparse vectors are dicts {key: Scalar} with comparable keys and no zero
entries.  This module is the one place that does arithmetic and
elimination on them: add, sub, scale and combine all run the one
accumulate loop, and one sparse reduced echelon form (Echelon) serves
every span, coordinate solve, kernel, dual basis and rank downstream.

Matrix, the dense matrix with Scalar entries, has no caller in the rest
of the program: linear maps and forms downstream are lists of sparse
vectors.  Its products and eliminations (fraction-free Bareiss rank and
determinant, Gauss-Jordan rref, nullspace and solve) are the oracle the
tests hold the sparse layer against.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

class Scalar:
    """An element a + b*sqrt2 of Q(sqrt2), stored as (p + q*sqrt2)/r."""

    __slots__ = ("p", "q", "r")

    def __init__(self, p: int = 0, q: int = 0, r: int = 1):
        # with r == 1 the triple is reduced as given: gcd(p, q, 1) = 1
        if r != 1:
            if r == 0:
                raise ZeroDivisionError("scalar with zero denominator")
            if r < 0:
                p, q, r = -p, -q, -r
            if p == 0 and q == 0:
                r = 1
            else:
                g = gcd(p, q, r)
                if g > 1:
                    p //= g
                    q //= g
                    r //= g
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not by setting slots
        return Scalar, (self.p, self.q, self.r)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Scalar":
        f = Fraction(x)
        return Scalar(f.numerator, 0, f.denominator)

    @staticmethod
    def from_pair(a, b) -> "Scalar":
        """Scalar a + b*sqrt2 from two rationals."""
        fa, fb = Fraction(a), Fraction(b)
        r = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
        return Scalar(fa.numerator * (r // fa.denominator),
                      fb.numerator * (r // fb.denominator), r)

    # -- component access ---------------------------------------------

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt2."""
        return Fraction(self.q, self.r)

    def is_rational(self) -> bool:
        return self.q == 0

    def rational_value(self) -> Fraction:
        if self.q != 0:
            raise ValueError("scalar %s is not rational" % self)
        return Fraction(self.p, self.r)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r + other.p * self.r,
                      self.q * other.r + other.q * self.r,
                      self.r * other.r)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r - other.p * self.r,
                      self.q * other.r - other.q * self.r,
                      self.r * other.r)

    def __neg__(self):
        return Scalar(-self.p, -self.q, self.r)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.p + 2 * self.q * other.q,
                      self.p * other.q + self.q * other.p,
                      self.r * other.r)

    def inverse(self) -> "Scalar":
        # 1/((p+q*sqrt2)/r) = r(p - q*sqrt2)/(p^2 - 2 q^2)
        n = self.p * self.p - 2 * self.q * self.q
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.r * self.p, -self.r * self.q, n)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.r == other.r

    def __hash__(self):
        if self.q == 0:  # agree with Fraction hashing is not needed; stay internal
            return hash((self.p, self.r))
        return hash((self.p, self.q, self.r))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    # -- serialization ---------------------------------------------------

    def to_string(self) -> str:
        """Canonical form "a/b + c/d*sqrt2" with both fractions reduced."""
        return "%d/%d + %d/%d*sqrt2" % (self.a.numerator, self.a.denominator,
                                        self.b.numerator, self.b.denominator)

    _PARSE = re.compile(
        r"^\s*(-?\d+)\s*/\s*(\d+)\s*\+\s*(-?\d+)\s*/\s*(\d+)\s*\*\s*sqrt2\s*$")

    @staticmethod
    def parse(s: str) -> "Scalar":
        m = Scalar._PARSE.match(s)
        if not m:
            raise ValueError("bad scalar string: %r" % s)
        a, a_den, b, b_den = map(int, m.groups())
        if not (a_den and b_den):
            raise ValueError("zero denominator in scalar string: %r" % s)
        return Scalar.from_pair(Fraction(a, a_den), Fraction(b, b_den))

    def __repr__(self):
        if self.q == 0:
            return "%d/%d" % (self.p, self.r) if self.r != 1 else str(self.p)
        return self.to_string()


# __setattr__ refuses every write, so __init__ fills the slots through
# their member descriptors
_set_p, _set_q, _set_r = Scalar.p.__set__, Scalar.q.__set__, Scalar.r.__set__

ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
HALF = Scalar(1, 0, 2)
SQRT2 = Scalar(0, 1)


def sca(x) -> Scalar:
    """Coerce an int/Fraction/Scalar to Scalar."""
    if isinstance(x, Scalar):
        return x
    if type(x) is int:      # bool, an int subclass, keeps the rational path
        return Scalar(x)
    return Scalar.from_rational(x)


def sqrt_in_field(x: Scalar) -> Scalar:
    """Exact square root of a rational scalar inside Q(sqrt2), if it exists.

    Accepts x = s^2 or x = 2 s^2 with s rational; raises otherwise.
    """
    if not x.is_rational():
        raise ValueError("only rational radicands supported")
    v = x.rational_value()
    if v < 0:
        raise ValueError("no real square root of %s" % v)
    if v == 0:
        return ZERO

    def _isqrt_frac(f: Fraction):
        n, d = f.numerator, f.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    s = _isqrt_frac(v)
    if s is not None:
        return Scalar.from_rational(s)
    s = _isqrt_frac(v / 2)
    if s is not None:
        return Scalar.from_pair(0, s)
    raise ValueError("%s has no square root in Q(sqrt2)" % v)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Dense matrix over Q(sqrt2) with exact elimination."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            return Matrix.zero(0, 0)
        return Matrix([[cols[j][i] for j in range(len(cols))]
                       for i in range(len(cols[0]))])

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            out = Matrix.zero(self.rows, other.cols)
            for i in range(self.rows):
                rowi = self.entries[i]
                for k in range(self.cols):
                    aik = rowi[k]
                    if not aik:
                        continue
                    rowk = other.entries[k]
                    orow = out.entries[i]
                    for j in range(other.cols):
                        if rowk[j]:
                            orow[j] = orow[j] + aik * rowk[j]
            return out
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector (list of Scalar)."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = ZERO
            row = self.entries[i]
            for j, v in enumerate(vec):
                if v and row[j]:
                    acc = acc + row[j] * v
            out.append(acc)
        return out

    def add(self, other: "Matrix") -> "Matrix":
        return Matrix([[self.entries[i][j] + other.entries[i][j]
                        for j in range(self.cols)] for i in range(self.rows)])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[c * e for e in row] for row in self.entries])

    # -- eliminations ------------------------------------------------------

    def bareiss(self):
        """Fraction-free elimination.  Returns (rank, det_if_square).

        Classic two-step Bareiss division keeps intermediate entries as
        products of minors, bounding growth on integral input.
        """
        m = [row[:] for row in self.entries]
        rows, cols = self.rows, self.cols
        prev = ONE
        rank = 0
        sign = 1
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            piv = None
            for i in range(r, rows):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                sign = -sign
            pivot = m[r][c]
            for i in range(r + 1, rows):
                for j in range(c + 1, cols):
                    m[i][j] = (pivot * m[i][j] - m[i][c] * m[r][j]) / prev
                m[i][c] = ZERO
            prev = pivot
            r += 1
            rank += 1
        det = None
        if rows == cols:
            if rank < rows:
                det = ZERO
            else:
                det = prev if sign == 1 else -prev
        return rank, det

    def rank(self) -> int:
        return self.bareiss()[0]

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return self.bareiss()[1]

    def rref(self):
        """Reduced row echelon form; returns (matrix rows, pivot columns)."""
        m = [row[:] for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            piv = None
            for i in range(r, self.rows):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = m[r][c].inverse()
            m[r] = [inv * e for e in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [m[i][j] - f * m[r][j] for j in range(self.cols)]
            pivots.append(c)
            r += 1
        return m, pivots

    def nullspace(self):
        """Basis of the right kernel, as a list of column vectors."""
        m, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """One solution of self * x = rhs, or None if inconsistent."""
        aug = Matrix([self.entries[i] + [rhs[i]] for i in range(self.rows)])
        m, pivots = aug.rref()
        for r in range(len(pivots), self.rows):
            if m[r][self.cols]:
                return None
        if pivots and pivots[-1] == self.cols:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        return x

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.rows, self.cols)


# ---------------------------------------------------------------------------
# Sparse vectors and their reduced echelon form
# ---------------------------------------------------------------------------


def accumulate(acc: dict, x: dict, c: Scalar = None) -> None:
    """acc += c * x in place, or acc += x when c is None.

    Entries that cancel are dropped, and a key new to acc costs no Scalar
    addition.
    """
    for k, e in x.items():
        if c is not None:
            e = c * e
        s = acc.get(k)
        if s is not None:
            e = s + e
        if e:
            acc[k] = e
        else:
            acc.pop(k, None)


def add(u: dict, v: dict) -> dict:
    """u + v."""
    out = dict(u)
    accumulate(out, v)
    return out


def sub(u: dict, v: dict) -> dict:
    """u - v."""
    out = dict(u)
    accumulate(out, v, -ONE)
    return out


def scale(c: Scalar, u: dict) -> dict:
    """c * u."""
    out: dict = {}
    if c:
        accumulate(out, u, c)
    return out


def combine(coeffs: dict, vectors) -> dict:
    """sum_i coeffs[i] * vectors[i], accumulated in the order of coeffs."""
    out: dict = {}
    for i, c in coeffs.items():
        if c:
            accumulate(out, vectors[i], c)
    return out


class Echelon:
    """Sparse reduced row echelon form of the vectors added so far.

    Every row is monic at its smallest key (its pivot) and no other row
    has an entry at that key, so the rows of a span are unique.  Each row
    also records its coordinates over the independent vectors added so
    far, numbered 0, 1, ... in the order add() accepted them; reduce()
    returns coordinates over them, and add() returns the dependency of a
    vector that is already in the span.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows: dict = {}     # pivot -> (row, coordinates of the row)
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> list:
        """The rows in increasing pivot order, each with ascending keys."""
        return [{k: row[k] for k in sorted(row)}
                for row, _ in (self._rows[p] for p in sorted(self._rows))]

    def reduce(self, v: dict):
        """(remainder, coordinates) with v = remainder + sum_i c_i vector_i.

        The remainder has no entry at any pivot; it is empty exactly when
        v lies in the span.  Coordinates come with ascending indices.
        """
        rem = {k: c for k, c in v.items() if c}
        coords: dict = {}
        for p in [k for k in rem if k in self._rows]:
            # rows vanish at the other pivots, so rem[p] is still v[p]
            c = rem[p]
            row, rc = self._rows[p]
            accumulate(rem, row, -c)
            accumulate(coords, rc, c)
        return rem, {i: coords[i] for i in sorted(coords)}

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)[0]

    def add(self, v: dict):
        """Insert v: None when it enlarged the span, else its coordinates."""
        rem, coords = self.reduce(v)
        if not rem:
            return coords
        p = min(rem)
        inv = rem[p].inverse()
        row = {k: inv * c for k, c in rem.items()}
        # rem = v - sum_i coords_i vector_i, and v becomes vector number len
        rc = {i: -inv * c for i, c in coords.items()}
        rc[len(self._rows)] = inv
        for other, oc in self._rows.values():
            f = other.get(p)
            if f:
                accumulate(other, row, -f)
                accumulate(oc, rc, -f)
        self._rows[p] = (row, rc)
        return None


def kernel(images) -> list:
    """Reduced basis of {c : sum_j c_j images[j] = 0}, as coordinate dicts.

    One vector per j whose image depends on the earlier ones, with
    coefficient 1 at j and ascending keys: the columns Matrix.nullspace
    returns for the matrix whose j-th column is images[j].
    """
    echelon = Echelon()
    independent: list = []
    out = []
    for j, image in enumerate(images):
        dependency = echelon.add(image)
        if dependency is None:
            independent.append(j)
        else:
            v = {independent[i]: -c for i, c in dependency.items()}
            v[j] = ONE
            out.append(v)
    return out


def coordinates(vectors, target):
    """The c with sum_i c_i vectors[i] = target, as {i: c_i}, or None when
    target lies outside the span.

    Raises ValueError when the vectors are dependent, where the
    coordinates would not be unique.
    """
    echelon = Echelon()
    if any(echelon.add(v) is not None for v in vectors):
        raise ValueError("the vectors are dependent")
    rem, coords = echelon.reduce(target)
    return None if rem else coords


def dual_basis(basis, form, images) -> list:
    """Vectors d_i in the span of basis with form(basis[j], d_i) = [i == j].

    images[j] is basis[j] in the coordinates form reads, and form pairs
    the images: a form that would map its arguments first is then
    evaluated on vectors mapped once, not at each of the n^2 pairings.
    Pass basis itself when form reads its coordinates.  Raises ValueError
    when the form is degenerate on the span.
    """
    n = len(basis)
    columns = Echelon()
    for k in range(n):
        if columns.add({j: form(images[j], images[k]) for j in range(n)}) \
                is not None:
            raise ValueError("the form is degenerate on the span")
    # the rows are now the unit vectors e_i = sum_k c_k column_k, and
    # sum_k c_k basis[k] is the dual of basis[i]
    return [combine(columns.reduce({i: ONE})[1], basis) for i in range(n)]


# ---------------------------------------------------------------------------
# Polynomials in one indeterminate over Q
# ---------------------------------------------------------------------------


class PolyScalar:
    """Polynomial in one indeterminate s with rational coefficients.

    Every polynomial the program forms is rational: the determinant
    entries scale by integers and Fractions, and the minimal polynomials
    come from integer Krylov Gram columns.  The coefficient of s^i is
    p[i] / den, an integer list over one positive denominator, stored
    reduced so equal polynomials store equal ints: gcd(den, p) = 1 and the
    top coefficient is nonzero.  The arithmetic, and so poly_det's
    Bareiss, runs on these ints; Scalars are made only where a caller
    reads coeffs, leading() or evaluate(), which takes any Scalar.
    Raises ValueError on a coefficient with a sqrt2 part.
    """

    __slots__ = ("p", "den")

    def __init__(self, coeffs):
        cs = [sca(c) for c in coeffs]
        if any(c.q for c in cs):
            raise ValueError("PolyScalar needs rational coefficients")
        den = lcm(*(c.r for c in cs))
        self._reduce([c.p * (den // c.r) for c in cs], den)

    @staticmethod
    def _of(p: list, den: int) -> "PolyScalar":
        """The polynomial p / den; the list becomes the new polynomial's."""
        out = PolyScalar.__new__(PolyScalar)
        out._reduce(p, den)
        return out

    def _reduce(self, p: list, den: int) -> None:
        n = len(p)
        while n and not p[n - 1]:
            n -= 1
        del p[n:]
        g = gcd(den, *p)
        if g > 1:
            p = [x // g for x in p]
            den //= g
        self.p, self.den = p, den

    @staticmethod
    def constant(c) -> "PolyScalar":
        return PolyScalar([sca(c)])

    @property
    def coeffs(self) -> list:
        """The coefficients as Scalars, constant term first."""
        return [Scalar(a, 0, self.den) for a in self.p]

    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.p) - 1

    def is_zero(self) -> bool:
        return not self.p

    def leading(self) -> Scalar:
        if not self.p:
            return ZERO
        return Scalar(self.p[-1], 0, self.den)

    def __eq__(self, other):
        return (isinstance(other, PolyScalar) and self.den == other.den
                and self.p == other.p)

    def _linear(self, other: "PolyScalar", sign: int) -> "PolyScalar":
        """self + sign * other."""
        den = lcm(self.den, other.den)
        n = max(len(self.p), len(other.p))
        return PolyScalar._of(
            _scaled_sum(self.p, den // self.den,
                        other.p, sign * (den // other.den), n), den)

    def __add__(self, other):
        return self._linear(other, 1)

    def __sub__(self, other):
        return self._linear(other, -1)

    def __neg__(self):
        return PolyScalar._of([-x for x in self.p], self.den)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            other = PolyScalar([other])
        if not self.p or not other.p:
            return PolyScalar._of([], 1)
        return PolyScalar._of(_convolve(self.p, other.p),
                              self.den * other.den)

    def evaluate(self, x: Scalar) -> Scalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, other: "PolyScalar") -> "PolyScalar":
        """Exact polynomial quotient; raises if the division has remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # other = content * prim / den with prim primitive: by Gauss's lemma
        # an exact quotient by prim has integer coefficients
        content = gcd(*other.p)
        prim = [x // content for x in other.p]
        return PolyScalar._of([x * other.den
                               for x in _divide_exact(self.p, prim)],
                              self.den * content)

    def __repr__(self):
        if not self.p:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("(%r)*s^%d" % (c, i))
        return " + ".join(parts)


def _scaled_sum(a: list, fa: int, b: list, fb: int, n: int) -> list:
    """fa * a + fb * b as a list of length n; either list may be empty."""
    out = [x * fa for x in a] + [0] * (n - len(a))
    for i, y in enumerate(b):
        out[i] += y * fb
    return out


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_exact(num: list, den: list) -> list:
    """The integer quotient num / den of integer polynomials, long division
    from the top; raises ValueError unless every step and the remainder
    come out exact."""
    if not num:
        return []
    dq = len(num) - len(den)
    if dq < 0:
        raise ValueError("inexact polynomial division")
    rem = num[:]
    out = [0] * (dq + 1)
    lead = den[-1]
    for k in range(dq, -1, -1):
        c, r = divmod(rem[k + len(den) - 1], lead)
        if r:
            raise ValueError("inexact polynomial division")
        out[k] = c
        if c:
            for j, b in enumerate(den):
                rem[k + j] -= c * b
    if any(rem):
        raise ValueError("inexact polynomial division")
    return out


def poly_det(entries) -> PolyScalar:
    """Exact determinant of a square array of PolyScalar (Bareiss)."""
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise ValueError("non-square polynomial matrix")
    if n == 0:
        return PolyScalar.constant(1)
    m = [[e for e in row] for row in entries]
    prev = PolyScalar.constant(1)
    sign = 1
    for r in range(n - 1):
        piv = None
        for i in range(r, n):
            if not m[i][r].is_zero():
                piv = i
                break
        if piv is None:
            return PolyScalar([])
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]).exact_div(prev)
            m[i][r] = PolyScalar([])
        prev = m[r][r]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


# ---------------------------------------------------------------------------
# Rational root extraction (for determinant factorization checks)
# ---------------------------------------------------------------------------


def _divisors(n: int):
    """The positive divisors of n in increasing order, from its factors
    (the determinants' constants are smooth); [1] for n = 0."""
    n = abs(n)
    out = [1]
    f = 2
    while f * f <= n:
        if n % f == 0:
            powers = [1]
            while n % f == 0:
                n //= f
                powers.append(powers[-1] * f)
            out = [d * w for d in out for w in powers]
        f += 1
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def rational_roots(poly: PolyScalar):
    """All rational roots with multiplicity, plus the non-split remainder.

    Returns (roots, remainder) where roots is a list of Fractions (with
    repetition) and remainder is the PolyScalar left after dividing out
    every rational linear factor.

    The search runs on the primitive integer polynomial: a root p/q in
    lowest terms has p dividing the constant and q the top coefficient,
    it is tested by the homogeneous Horner sum sum_i c_i p^i q^(n-i) = 0,
    and q s - p is divided out on integers.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has every root")
    zeros = next(i for i, c in enumerate(poly.p) if c)
    roots = [Fraction(0)] * zeros
    content = gcd(*poly.p)
    ints = [c // content for c in poly.p[zeros:]]
    # poly = content * s^zeros * prod_roots (q s - p) * ints / den
    while len(ints) > 1:
        found = _integer_root(ints)
        if found is None:
            break
        p, q = found
        roots.append(Fraction(p, q))
        ints = _divide_exact(ints, [-p, q])
        content *= q
    return roots, PolyScalar._of([c * content for c in ints], poly.den)


def _integer_root(ints: list):
    """The first root (p, q) of the integer polynomial ints, candidates
    ordered by q, then by |p|, then positive before negative; or None."""
    numerators = _divisors(ints[0])
    for q in _divisors(ints[-1]):
        for pd in numerators:
            if gcd(pd, q) != 1:
                continue
            for p in (pd, -pd):
                acc = ints[-1]
                qpow = 1
                for c in reversed(ints[:-1]):
                    qpow *= q
                    acc = acc * p + c * qpow
                if acc == 0:
                    return p, q
    return None
