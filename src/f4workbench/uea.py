"""Sparse PBW engine for enveloping algebras, and the projection onto
the polynomial part of the Iwasawa factorization.

Elements are dicts {monomial: Scalar}; a monomial is a tuple of
(basis index, exponent) pairs with strictly increasing indices, in PBW
normal form for a fixed total order on the basis.  Each engine memoizes
two recursions.  Right products e^m * g: the rewrite x^p * g for a
generator g below x costs one bracket lookup plus lower-degree work.
Brackets [g, e^m], which ad sums: by the derivation rule
[g, head x] = [g, head] x + head [g, x], from right products of degree
below deg m, so the cancelling leading terms of g e^m and e^m g are
never formed.  The tables amortize that work across the congruence and
degree computations downstream.  Each recursion keeps one table per
generator g, keyed by the packed monomial m (below), so a lookup reads
the table of g once and then hashes an int, and ad, which brackets every
term of an element with the same g, reads that table once per label.

The straightening runs over Z.  Each engine works on the basis
e'_i = L sqrt2^{s_i} e_i of its algebra's integer table
(liealg.LieAlgebra.integer_table), with parities s_i and a scale L chosen
so that every structure constant becomes an integer.  The memo
tables hold {monomial: int} on that basis, and an element there is two
integer vectors (its rational and its sqrt2 part) over one common
denominator, which never mix.  mul and ad convert their arguments to
that core form on entry and back to Scalars on exit.

In the core a monomial is one packed int, sum_i e_i << (BITS i): the
exponent of label i sits in its own BITS-bit field, so the last label of
m is (m.bit_length() - 1) // BITS, dropping one factor of it is a
subtraction and appending a label at or above it an addition.  A field
holds exponents below 2**BITS; to_core and mul refuse an element whose
degree could carry into the next field.

The fixed model order lists the fixed-subalgebra labels K_LABELS first (with
the nilradical of the centralizer as a suffix and the abelian ideal as
the very last block), then the torus generator Z, then the 15 nilpotent
labels.  This one order simultaneously supports normal forms modulo
the left ideals used everywhere and the projection that kills
monomials with nilpotent support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .exactnum import (ONE, Scalar, ZERO, accumulate, add, combine,
                       coordinates, dual_basis, kernel, scale)
from .liealg import (F4Model, IntBrackets, K_LABELS, LieAlgebra, LieElement,
                     MPLUS_LABELS, Y_LABELS, build_f4_model)

Mono = Tuple[Tuple[int, int], ...]
UEA = Dict[Mono, Scalar]
Core = Dict[int, int]           # {packed monomial: int}

ONE_MONO: Mono = ()

# bits per exponent in a packed core monomial; every monomial the core
# forms has degree below 2**BITS
BITS = 8
DEGREE_LIMIT = 1 << BITS


def _nonzero(v: Core) -> Core:
    """v without its zero entries (v itself when it has none)."""
    if all(v.values()):
        return v
    return {m: c for m, c in v.items() if c}


class LabelTables(list):
    """One memo table per label: self[g] maps a packed monomial m to the
    straightened Core of (g, m).  len() counts the entries of all tables."""

    def __init__(self, n: int):
        super().__init__({} for _ in range(n))

    def __len__(self) -> int:
        return sum(map(len, self))


class PBWEngine:
    """Straightening engine for one algebra, in the order of its labels.

    The engine works on the rescaled basis e'_i = L sqrt2^{s_i} e_i of
    the algebra's integer_table(), where every structure constant is an
    integer.  There the straightening is Z-linear, so the two memo
    tables, right products e'^m e'_g (_memo) and brackets [e'_g, e'^m]
    by the derivation rule (_memo_left, see _bracket), hold
    {monomial: int}, and the rational and sqrt2 parts of an element never
    mix: its core form (to_core) is two integer vectors over one common
    denominator.  Core monomials, the keys of those vectors and of the
    tables, are packed ints of BITS = 8 bits per label, one byte each (see
    the module docstring): on F4 at most 52 bytes.  Each memo is a
    LabelTables, one dict per label g keyed by m, whose len() counts the
    entries of all its dicts.  A product that only appends a label at or
    above the last one of m is an addition, formed inline and never
    stored.
    The public operations take and return {monomial: Scalar} on the
    original basis, with tuple monomials, and convert once at entry and
    once at exit.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        table = algebra.integer_table()
        self.parity, self.scale_l = table.parity, table.scale
        self._memo = LabelTables(algebra.dim)
        self._memo_left = LabelTables(algebra.dim)
        # _brackets[(i, j)] = [e'_i, e'_j] on the rescaled basis, as items;
        # shared with the algebra, so never mutated
        self._brackets: IntBrackets = table.brackets
        # _unit[i] is the packed monomial e'_i
        self._unit = [1 << (BITS * i) for i in range(algebra.dim)]

    @property
    def memo_entries(self) -> int:
        """The number of entries in the two straightening tables."""
        return len(self._memo) + len(self._memo_left)

    # -- basic constructors ------------------------------------------------

    def one(self) -> UEA:
        return {ONE_MONO: ONE}

    def zero(self) -> UEA:
        return {}

    def gen(self, label: str, power: int = 1) -> UEA:
        if power < 0:
            raise ValueError("negative power %d of %s" % (power, label))
        i = self.algebra.index[label]
        return {((i, power),): ONE} if power else self.one()

    def from_lie(self, x: LieElement) -> UEA:
        return {((i, 1),): c for i, c in x.items()}

    # -- the core form ------------------------------------------------------

    def _pack(self, m: Mono) -> Tuple[int, int, int]:
        """(key, deg, sigma): m packed, and e'^m = L^deg sqrt2^sigma e^m.

        Raises ValueError on an exponent below 1 and on a degree of
        DEGREE_LIMIT or more, which a product could carry across a field.
        """
        key = deg = sigma = 0
        for i, e in m:
            if e < 1:
                raise ValueError("exponent %d in monomial %r" % (e, m))
            key += e << (BITS * i)
            deg += e
            sigma += self.parity[i] * e
        if deg >= DEGREE_LIMIT:
            raise ValueError("monomial of degree %d; the packed core holds "
                             "degrees below %d" % (deg, DEGREE_LIMIT))
        return key, deg, sigma

    def _unpack(self, key: int) -> Tuple[Mono, int, int]:
        """(m, deg, sigma) of a packed monomial, as _pack gives them."""
        m = []
        deg = sigma = 0
        while key:
            i = ((key & -key).bit_length() - 1) // BITS
            e = (key >> (BITS * i)) & (DEGREE_LIMIT - 1)
            m.append((i, e))
            deg += e
            sigma += self.parity[i] * e
            key -= e << (BITS * i)
        return tuple(m), deg, sigma

    def to_core(self, u: UEA) -> Tuple[Core, Core, int]:
        """(P, Q, D) with u = sum_m (P[m] + Q[m] sqrt2) / D * e'^m.

        c e^m has the core coefficient c / (L^deg sqrt2^sigma) (_pack).
        """
        return self._to_core(u)[:3]

    def _to_core(self, u: UEA) -> Tuple[Core, Core, int, int]:
        """to_core(u) and the degree of u (-1 for 0)."""
        terms = []
        den_lcm = 1
        top = -1
        for m, c in u.items():
            key, deg, sigma = self._pack(m)
            if deg > top:
                top = deg
            p, q = c.p, c.q
            if sigma & 1:           # c / sqrt2 = c sqrt2 / 2
                p, q = 2 * q, p
                sigma += 1
            den = c.r * self.scale_l ** deg << (sigma >> 1)
            g = gcd(gcd(p, q), den)
            den //= g
            terms.append((key, p // g, q // g, den))
            den_lcm = lcm(den_lcm, den)
        core_p: Core = {}
        core_q: Core = {}
        for key, p, q, den in terms:
            f = den_lcm // den
            if p:
                core_p[key] = p * f
            if q:
                core_q[key] = q * f
        return core_p, core_q, den_lcm, top

    def from_core(self, core_p: Core, core_q: Core, den: int) -> UEA:
        """The element sum_m (P[m] + Q[m] sqrt2) / D * e'^m; one Scalar per
        nonzero term."""
        out: UEA = {}
        for key in {**core_p, **core_q}:
            p, q = core_p.get(key, 0), core_q.get(key, 0)
            if not (p or q):
                continue
            m, deg, sigma = self._unpack(key)
            if sigma & 1:           # c sqrt2 = 2q + p sqrt2
                p, q = 2 * q, p
            f = self.scale_l ** deg << (sigma >> 1)
            out[m] = Scalar(p * f, q * f, den)
        return out

    def lie_core(self, x: LieElement) -> Tuple[Dict[int, int],
                                               Dict[int, int], int]:
        """to_core of a Lie element, keyed by label."""
        core_p, core_q, den = self.to_core(self.from_lie(x))
        return ({(m.bit_length() - 1) // BITS: c for m, c in core_p.items()},
                {(m.bit_length() - 1) // BITS: c for m, c in core_q.items()},
                den)

    # -- arithmetic ----------------------------------------------------------

    # the sparse arithmetic of exactnum, under the names perfbench's
    # workloads call
    add = staticmethod(add)
    scale = staticmethod(scale)

    def _mono_times_gen(self, m: int, g: int) -> Core:
        """Straightened product e'^m * e'_g."""
        unit = self._unit
        if m < unit[g] << BITS:                 # no label of m above g
            return {m + unit[g]: 1}
        table = self._memo[g]
        hit = table.get(m)
        if hit is not None:
            return hit
        last = (m.bit_length() - 1) // BITS
        head = m - unit[last]
        out: Core = {}
        # (head e'_g) e'_last
        self._times_gen_into(out, self._mono_times_gen(head, g), last)
        # head [e'_last, e'_g]
        self._head_times_into(out, head, self._brackets.get((last, g), ()))
        out = _nonzero(out)
        table[m] = out
        return out

    def _times_gen_into(self, out: Core, v: Core, g: int) -> None:
        """out += v e'_g.  A monomial with no label above g takes e'_g by
        an addition, the others through _mono_times_gen."""
        step = self._unit[g]
        top = step << BITS
        get = out.get
        for mono, c in v.items():
            if mono < top:
                key = mono + step
                out[key] = get(key, 0) + c
            else:
                for mono2, c2 in self._mono_times_gen(mono, g).items():
                    out[mono2] = get(mono2, 0) + c * c2

    def _head_times_into(self, out: Core, head: int, terms) -> None:
        """out += sum_k c_k e'^head e'_k over the pairs (k, c_k) of terms."""
        unit = self._unit
        get = out.get
        for k, c in terms:
            if head < unit[k] << BITS:
                key = head + unit[k]
                out[key] = get(key, 0) + c
            else:
                for mono2, c2 in self._mono_times_gen(head, k).items():
                    out[mono2] = get(mono2, 0) + c * c2

    def _bracket(self, g: int, m: int) -> Core:
        """Straightened [e'_g, e'^m]: with m = head x, x its last label,
        [e'_g, e'^head e'_x] = [e'_g, e'^head] e'_x + e'^head [e'_g, e'_x]."""
        if not m:
            return {}
        table = self._memo_left[g]
        hit = table.get(m)
        if hit is not None:
            return hit
        x = (m.bit_length() - 1) // BITS
        head = m - self._unit[x]
        out: Core = {}
        sub = table.get(head)
        if sub is None:
            sub = self._bracket(g, head)
        self._times_gen_into(out, sub, x)
        self._head_times_into(out, head, self._brackets.get((g, x), ()))
        out = _nonzero(out)
        table[m] = out
        return out

    # perfbench/sample.py counts bracket calls and entries under these names
    _gen_times_mono = _bracket

    def _mono_mul_core(self, m1: int, m2: int) -> Core:
        """Straightened product e'^m1 * e'^m2."""
        if (m1.bit_length() - 1) // BITS \
                <= ((m2 & -m2).bit_length() - 1) // BITS:
            return {m1 + m2: 1}
        cur: Core = {m1: 1}
        while m2:
            g = ((m2 & -m2).bit_length() - 1) // BITS
            p = (m2 >> (BITS * g)) & (DEGREE_LIMIT - 1)
            m2 -= p * self._unit[g]
            for _ in range(p):
                nxt: Core = {}
                self._times_gen_into(nxt, cur, g)
                cur = _nonzero(nxt)
        return cur

    def _mul_into(self, out: Core, u: Core, v: Core) -> None:
        get = out.get
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                c = c1 * c2
                for m, cm in self._mono_mul_core(m1, m2).items():
                    out[m] = get(m, 0) + c * cm

    def _ad_into(self, out: Core, x: Dict[int, int], v: Core) -> None:
        get = out.get
        bracket = self._bracket
        for g, cg in x.items():
            table = self._memo_left[g]
            for m, c in v.items():
                br = table.get(m)
                if br is None:
                    br = bracket(g, m)
                coef = cg * c
                for mono, c2 in br.items():
                    out[mono] = get(mono, 0) + coef * c2

    def ad_core(self, x: Dict[int, int], v: Core) -> Core:
        """ad(sum_g x_g e'_g) on an integer vector of the rescaled basis."""
        out: Core = {}
        self._ad_into(out, x, v)
        return _nonzero(out)

    def mul(self, u: UEA, v: UEA) -> UEA:
        p1, q1, d1, deg1 = self._to_core(u)
        p2, q2, d2, deg2 = self._to_core(v)
        if deg1 + deg2 >= DEGREE_LIMIT:
            raise ValueError("product of degree %d; the packed core holds "
                             "degrees below %d" % (deg1 + deg2, DEGREE_LIMIT))
        # (P1 + Q1 sqrt2)(P2 + Q2 sqrt2)
        #     = P1 P2 + 2 Q1 Q2 + (P1 Q2 + Q1 P2) sqrt2
        out_p: Core = {}
        out_q: Core = {}
        self._mul_into(out_p, p1, p2)
        self._mul_into(out_p, {m: 2 * c for m, c in q1.items()}, q2)
        self._mul_into(out_q, p1, q2)
        self._mul_into(out_q, q1, p2)
        return self.from_core(out_p, out_q, d1 * d2)

    def mul_many(self, *factors: UEA) -> UEA:
        out = self.one()
        for f in factors:
            out = self.mul(out, f)
        return out

    def power(self, u: UEA, n: int) -> UEA:
        out = self.one()
        for _ in range(n):
            out = self.mul(out, u)
        return out

    def ad_pair(self, x: Tuple[Dict[int, int], Dict[int, int]],
                v: Tuple[Core, Core]) -> Tuple[Core, Core]:
        """ad(xp + xq sqrt2) on P + Q sqrt2, both in core form; the
        denominators multiply and are left to the caller."""
        (xp, xq), (p, q) = x, v
        out_p: Core = {}
        out_q: Core = {}
        self._ad_into(out_p, xp, p)
        self._ad_into(out_p, {g: 2 * c for g, c in xq.items()}, q)
        self._ad_into(out_q, xp, q)
        self._ad_into(out_q, xq, p)
        return _nonzero(out_p), _nonzero(out_q)

    def ad(self, x: LieElement, u: UEA) -> UEA:
        """The derivation induced by bracketing with x: u -> xu - ux."""
        xp, xq, xd = self.lie_core(x)
        p, q, d = self.to_core(u)
        return self.from_core(*self.ad_pair((xp, xq), (p, q)), xd * d)

    def ad_power(self, x: LieElement, u: UEA, n: int) -> UEA:
        for _ in range(n):
            u = self.ad(x, u)
        return u

    # -- structure helpers ----------------------------------------------------

    def supported_below(self, u: UEA, bound: int) -> bool:
        """True when every index in the support is < bound."""
        return all(i < bound for m in u for i, _ in m)

    # -- serialization ----------------------------------------------------------

    def serialize(self, u: UEA) -> list:
        items = []
        for m in sorted(u):
            items.append({
                "exponents": {self.algebra.labels[i]: e for i, e in m},
                "coeff": u[m].to_string(),
            })
        return items

    def deserialize(self, items: Iterable[dict]) -> UEA:
        out: UEA = {}
        for item in items:
            pairs = sorted((self.algebra.index[l], e)
                           for l, e in item["exponents"].items())
            mono = tuple((i, int(e)) for i, e in pairs)
            accumulate(out, {mono: Scalar.parse(item["coeff"])})
        return out


# ---------------------------------------------------------------------------
# Normal forms modulo left ideals with suffix bases
# ---------------------------------------------------------------------------


def reduce_mod(u: UEA, suffix_start: int) -> UEA:
    """The normal form of u modulo the left ideal spanned by the labels
    from suffix_start on.

    With the ideal basis occupying the order suffix, a PBW monomial lies
    in the left ideal exactly when its largest label is an ideal label,
    so the normal form keeps the remaining monomials.
    """
    return {m: c for m, c in u.items()
            if c and not (m and m[-1][0] >= suffix_start)}


# ---------------------------------------------------------------------------
# The Iwasawa-polynomial side
# ---------------------------------------------------------------------------


@dataclass
class IwasawaElement:
    """Sum of b_j (x) Z^j with polynomial-part coefficients in U(k).

    Also the polynomials in x of balg, coefficients in the monomial basis.
    Multiplication is the tensor-product algebra structure: Z commutes
    formally past the first factor.
    """

    coeffs: List[UEA]

    def trim(self) -> "IwasawaElement":
        c = list(self.coeffs)
        while c and not c[-1]:
            c.pop()
        return IwasawaElement(c)

    @property
    def degree(self) -> int:
        t = self.trim()
        return len(t.coeffs) - 1

    def coeff(self, j: int) -> UEA:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else {}

    def add(self, other: "IwasawaElement") -> "IwasawaElement":
        n = max(len(self.coeffs), len(other.coeffs))
        return IwasawaElement([
            add(self.coeff(j), other.coeff(j)) for j in range(n)
        ]).trim()

    def scale(self, c: Scalar) -> "IwasawaElement":
        return IwasawaElement([scale(c, u) for u in self.coeffs]).trim()

    def at(self, s) -> UEA:
        """sum_i s^i p_i at a rational s."""
        out: UEA = {}
        for i, p in enumerate(self.coeffs):
            c = Fraction(s) ** i
            if p and c:
                accumulate(out, p, Scalar.from_rational(c))
        return out

    def mul(self, other: "IwasawaElement", engine: PBWEngine) -> "IwasawaElement":
        out: List[UEA] = [dict() for _ in
                          range(len(self.coeffs) + len(other.coeffs) - 1)] \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = add(out[i + j], engine.mul(a, b))
        return IwasawaElement(out).trim()

    def serialize(self, engine: PBWEngine) -> list:
        return [engine.serialize(c) for c in self.trim().coeffs]

    @staticmethod
    def deserialize(engine: PBWEngine, data: list) -> "IwasawaElement":
        return IwasawaElement([engine.deserialize(c) for c in data]).trim()


class ModelEngine:
    """The F4 engines, the named vectors in mixed coordinates, and the
    fixed order bookkeeping used downstream."""

    def __init__(self, model: F4Model):
        self.model = model
        self.g = PBWEngine(model.g_algebra)
        index = model.g_algebra.index
        self.n_k = len(K_LABELS)
        self.z_index = index["Z"]
        self.mplus_start = index[MPLUS_LABELS[0]]
        self.y_start = index[Y_LABELS[0]]
        # the named vectors in mixed coordinates, converted once; shared,
        # so callers must not mutate them
        self.named: Dict[str, LieElement] = {
            name: self.lie_in_mixed(x)
            for name, x in model.distinguished.items()}
        # built on first use by repth.build_module, repth.degree_machine,
        # repth.is_m_invariant and omega_normalized
        self.action_basis = None
        self.degree_machine = None
        self.m_generator_cores = None
        self.omega = None

    # -- conversions --------------------------------------------------------

    def lie_in_mixed(self, x: LieElement) -> LieElement:
        """Chevalley-coordinate element to mixed-basis coordinates: the one
        map, for subspace rows; named vectors are read from self.named."""
        return self.model.g_algebra.coords_in_parent(x)

    def k_only(self, u: UEA) -> bool:
        return self.g.supported_below(u, self.n_k)

    # -- the projection ------------------------------------------------------

    def iwasawa_project(self, u: UEA) -> IwasawaElement:
        """Drop monomials with nilpotent support; collect by Z power."""
        coeffs: Dict[int, UEA] = {}
        for m, c in u.items():
            if m and m[-1][0] > self.z_index:
                continue
            zp = 0
            rest = m
            if m and m[-1][0] == self.z_index:
                zp = m[-1][1]
                rest = m[:-1]
            bucket = coeffs.setdefault(zp, {})
            bucket[rest] = bucket.get(rest, ZERO) + c
        top = max(coeffs, default=-1)
        out = [coeffs.get(j, {}) for j in range(top + 1)]
        return IwasawaElement([{m: c for m, c in u.items() if c}
                               for u in out]).trim()

    def reduce_mod_mplus(self, u: UEA) -> UEA:
        return reduce_mod(u, self.mplus_start)

    def reduce_mod_y(self, u: UEA) -> UEA:
        return reduce_mod(u, self.y_start)


@lru_cache(maxsize=1)
def model_engine() -> ModelEngine:
    return ModelEngine(build_f4_model())


# ---------------------------------------------------------------------------
# Casimir elements and small-degree invariants
# ---------------------------------------------------------------------------


def _casimir_tensor(engine: PBWEngine, pairs):
    """sum_i x_i (x) x^i on the rescaled basis of the engine, in triangular
    form.

    The tensor T_gh = sum_i x_i[g] x^i[h] is symmetric, and
    ad(e'_h) ad(e'_g) = ad(e'_g) ad(e'_h) - ad([e'_g, e'_h]), so

        sum_{g,h} T_gh ad(e'_g) ad(e'_h) = sum_h ad(Y_h) ad(e'_h) - ad(r)

    with Y_h = T_hh e'_h + sum_{g<h} 2 T_gh e'_g and
    r = sum_{g<h} T_gh [e'_g, e'_h].  Returns ([(h, Y_h)], r, den) with
    integer Y_h = {g: int} and r = {k: int} over the common denominator
    den.  For the Casimir of k on F4 that is 20 inner labels h, 23 terms
    of the Y_h and an r on the 3 Cartan labels, over 256: 46 label passes
    of ad per application instead of the 78 of the full sum.  Raises
    ValueError when T is not symmetric or a coefficient is not rational.
    """
    def rescaled(x):
        core_p, core_q, den = engine.lie_core(x)
        return {g: Scalar(core_p.get(g, 0), core_q.get(g, 0), den)
                for g in set(core_p) | set(core_q)}

    tensor: Dict[Tuple[int, int], Scalar] = {}
    for x, xd in pairs:
        b = rescaled(xd)
        for g, ca in rescaled(x).items():
            for h, cb in b.items():
                tensor[(g, h)] = tensor.get((g, h), ZERO) + ca * cb
    den = 1
    for (g, h), c in tensor.items():
        if tensor.get((h, g), ZERO) != c:
            raise ValueError("Casimir tensor is not symmetric")
        if not c.is_rational():
            raise ValueError("Casimir tensor is not rational on the "
                             "rescaled basis")
        den = lcm(den, c.r)
    by_inner: Dict[int, Dict[int, int]] = {}
    shift: Dict[int, int] = {}
    for (g, h), c in sorted(tensor.items()):
        if not c or g > h:
            continue
        t = c.p * (den // c.r)
        by_inner.setdefault(h, {})[g] = t if g == h else 2 * t
        for k, ck in engine._brackets.get((g, h), ()):
            shift[k] = shift.get(k, 0) + t * ck
    return (sorted(by_inner.items()),
            {k: c for k, c in sorted(shift.items()) if c}, den)


def _casimir_of(me: ModelEngine, basis: List[LieElement]):
    """_casimir_tensor of the Casimir of span(basis), mixed coordinates,
    over the dual basis for the invariant form b, which reads each vector
    in Chevalley coordinates, mapped once."""
    model = me.model
    images = [model.in_chevalley(x) for x in basis]
    return _casimir_tensor(me.g, zip(basis,
                                     dual_basis(basis, model.b, images)))


def _casimir_element(engine: PBWEngine, tensor) -> UEA:
    """The Casimir sum_{g,h} T_gh e'_g e'_h of tensor = (inner, shift, den):
    reordered as in _casimir_tensor it is sum_h Y_h e'_h - r, whose
    products e'_g e'_h have g <= h, so it is read off with no straightening.
    """
    inner, shift, den = tensor
    unit = engine._unit
    core = {unit[g] + unit[h]: c for h, y in inner for g, c in y.items()}
    for k, c in shift.items():
        core[unit[k]] = -c
    return engine.from_core(core, {}, den)


def _casimir_core(engine: PBWEngine, inner, shift, v: Core,
                  live: Optional[Set[int]] = None) -> Core:
    """sum_h ad(Y_h) ad(e'_h) v - ad(r) v, with ([(h, Y_h)], r) from
    _casimir_tensor: one ad pass per inner label, per term of the Y_h and
    per label of r.  When live is a set, every inner label whose pass
    ad(e'_h) v is nonzero is added to it, at no extra pass."""
    out: Core = {}
    if not v:
        return out
    ad_core = engine.ad_core
    for h, y in inner:
        first = ad_core({h: 1}, v)
        if first and live is not None:
            live.add(h)
        for m, c in ad_core(y, first).items():
            out[m] = out.get(m, 0) + c
    for m, c in ad_core(shift, v).items():
        out[m] = out.get(m, 0) - c
    return out


def _casimir_step(engine: PBWEngine, tensor, v: Tuple[Core, Core, int],
                  live: Optional[Set[int]] = None
                  ) -> Tuple[Core, Core, int]:
    """The Casimir of tensor = (inner, shift, den) on a core triple; live
    collects the labels whose pass reads nonzero on either part, as in
    _casimir_core."""
    inner, shift, den = tensor
    core_p, core_q, d = v
    return (_casimir_core(engine, inner, shift, core_p, live),
            _casimir_core(engine, inner, shift, core_q, live), d * den)


def model_casimir_g(me: ModelEngine) -> UEA:
    """Casimir of the full algebra in the mixed-basis engine, over its unit
    vectors, paired by the invariant form b."""
    return _casimir_element(me.g, _casimir_of(
        me, [{i: ONE} for i in range(me.g.algebra.dim)]))


def model_casimir_m(me: ModelEngine) -> UEA:
    """Casimir of the centralizer subalgebra, inside U(k)."""
    return _casimir_element(me.g, _casimir_of(
        me, [me.lie_in_mixed(x) for x in me.model.subspaces["m"].rows()]))


@dataclass
class OmegaReport:
    omega: IwasawaElement
    omega1_scalar: Scalar          # coefficient of Z, a multiple of 1
    casimir_m_coeff: Scalar        # omega0 = this * Cas(m) + const * 1
    constant_coeff: Scalar


def omega_normalized(me: ModelEngine = None) -> OmegaReport:
    """The distinguished quadratic member of the polynomial image.

    Scales the projection of the Casimir so the Z^2 coefficient is 1,
    asserts the Z coefficient is a nonzero scalar, and resolves the
    constant coefficient exactly over span{1, Casimir of the
    centralizer}, recording both scalars.  Computed once per engine and
    kept on it, so callers share one report and must not mutate it.
    """
    if me is None:
        me = model_engine()
    if me.omega is None:
        me.omega = _omega_report(me)
    return me.omega


def _omega_report(me: ModelEngine) -> OmegaReport:
    om = me.iwasawa_project(model_casimir_g(me))
    if om.degree != 2:
        raise ValueError("projected Casimir does not have polynomial degree 2")
    top = om.coeff(2)
    if set(top) != {ONE_MONO}:
        raise ValueError("leading coefficient is not scalar")
    om = om.scale(top[ONE_MONO].inverse())
    w1 = om.coeff(1)
    if set(w1) != {ONE_MONO}:
        raise ValueError("the Z coefficient is not a scalar multiple of 1")
    w1s = w1[ONE_MONO]
    w0 = om.coeff(0)
    cas_m = model_casimir_m(me)
    # solve w0 = s*cas_m + t*1 exactly over the monomial coordinates
    sol = coordinates([cas_m, {ONE_MONO: ONE}], w0)
    if sol is None:
        raise ValueError("constant coefficient is outside span{1, Casimir(m)}")
    s, t = sol.get(0, ZERO), sol.get(1, ZERO)
    return OmegaReport(omega=om, omega1_scalar=w1s, casimir_m_coeff=s,
                       constant_coeff=t)


def invariants_up_to_degree(engine: PBWEngine, sub_basis: List[LieElement],
                            max_degree: int,
                            label_weights: Optional[Dict[int, Tuple]] = None,
                            label_limit: Optional[int] = None) -> List[UEA]:
    """Basis of the joint ad-kernel inside the filtration level.

    label_weights optionally gives a grading under which every sub
    generator has weight zero; the kernel then lives in the weight-zero
    monomials, which cuts the elimination down by orders of magnitude.
    label_limit restricts the monomial universe to the leading block of
    the order (e.g. the polynomial-part subalgebra): the generators must
    preserve that block.
    """
    n = label_limit if label_limit is not None else engine.algebra.dim
    monos: List[Mono] = [ONE_MONO]

    def extend(ms: List[Mono]) -> List[Mono]:
        out = set(ms)
        for m in ms:
            start = m[-1][0] if m else 0
            for g in range(start, n):
                if m and m[-1][0] == g:
                    out.add(m[:-1] + ((g, m[-1][1] + 1),))
                else:
                    out.add(m + ((g, 1),))
        return sorted(out)

    level = [ONE_MONO]
    for _ in range(max_degree):
        level = extend(level)
    monos = level
    if label_weights is not None:
        # scaled once by the lcm of their denominators, the weights are
        # integers, and a monomial's weight is a sum of ints
        den = lcm(*(Fraction(x).denominator
                    for w in label_weights.values() for x in w))
        scaled = {i: [int(x * den) for x in w]
                  for i, w in label_weights.items()}
        width = len(next(iter(scaled.values())))

        def weight_zero(m: Mono) -> bool:
            acc = [0] * width
            for i, e in m:
                for j, x in enumerate(scaled[i]):
                    acc[j] += e * x
            return not any(acc)

        monos = [m for m in monos if weight_zero(m)]

    space = [{m: ONE} for m in monos]
    for x in sub_basis:
        if not space:
            break
        space = [combine(c, space)
                 for c in kernel([engine.ad(x, u) for u in space])]
    return space
