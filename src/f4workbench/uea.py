"""Sparse PBW engine for enveloping algebras, and the projection onto
the polynomial part of the Iwasawa factorization.

Elements are dicts {monomial: Scalar}; a monomial is a tuple of
(basis index, exponent) pairs with strictly increasing indices, in PBW
normal form for a fixed total order on the basis.  Straightening is a
two-level recursion on (monomial, generator) pairs, memoized per
engine: the rewrite x^p * g for a generator g below x costs one bracket
lookup plus lower-degree work, which the memo table amortizes across
the big congruence computations downstream.

The straightening runs over Z.  Each engine rescales its basis to
e'_i = L sqrt2^{s_i} e_i, with parities s_i and a scale L chosen when it
is built so that every structure constant becomes an integer.  The memo
tables hold {monomial: int} on that basis, and an element there is two
integer vectors (its rational and its sqrt2 part) over one common
denominator, which never mix.  mul, mono_mul and ad convert their
arguments to that core form on entry and back to Scalars on exit.

The fixed model order lists the 36 fixed-subalgebra labels first (with
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exactnum import Matrix, ONE, Scalar, ZERO, combine, dual_basis, kernel
from .liealg import F4Model, LieAlgebra, LieElement, build_f4_model

Mono = Tuple[Tuple[int, int], ...]
UEA = Dict[Mono, Scalar]
Core = Dict[Mono, int]

ONE_MONO: Mono = ()


@dataclass(frozen=True)
class BasisOrder:
    """A total order on the labels of an algebra, as a label tuple."""

    labels: Tuple[str, ...]

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def suffix_start(self, ideal_labels: Sequence[str]) -> int:
        """Index where an ideal suffix begins; raises if not a suffix."""
        k = len(self.labels) - len(ideal_labels)
        if tuple(self.labels[k:]) != tuple(ideal_labels):
            raise ValueError("ideal labels must occupy a suffix of the order")
        return k


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _nonzero(v: Core) -> Core:
    """v without its zero entries (v itself when it has none)."""
    if all(v.values()):
        return v
    return {m: c for m, c in v.items() if c}


def mono_mul_free(m1: Mono, m2: Mono) -> Optional[Mono]:
    """Concatenation when already ordered, else None."""
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m1[-1][0] == m2[0][0]:
        return m1[:-1] + ((m1[-1][0], m1[-1][1] + m2[0][1]),) + m2[1:]
    return None


def _rescaling(algebra: LieAlgebra):
    """Parities s_i, scale L and the brackets on e'_i = L sqrt2^{s_i} e_i.

    The rescaling turns a constant c of [e_i, e_j] at e_k into
    L sqrt2^{s_i + s_j - s_k} c.  With c rational or a rational multiple
    of sqrt2 (t = 1 for the latter), the power of sqrt2 is rational
    exactly when s_i + s_j + s_k = t mod 2.  That GF(2) system is solved
    with the free parities set to 0, and L is the lcm of the denominators
    left.  Returns (s, L, {(i, j): ((k, integer constant), ...)}) for the
    stored pairs i < j.  Raises ValueError on a constant that mixes Q and
    Q sqrt2, or when the system has no solution.
    """
    equations = {}          # bit mask of {i, j, k} -> t
    for (i, j), t in algebra.table.items():
        for k, c in t.items():
            if c.p and c.q:
                raise ValueError("structure constant %s mixes Q and Q*sqrt2"
                                 % c.to_string())
            mask = (1 << i) ^ (1 << j) ^ (1 << k)
            parity = 1 if c.q else 0
            if equations.setdefault(mask, parity) != parity:
                raise ValueError("no rescaling by powers of sqrt2 makes the "
                                 "structure constants rational")
    pivots = {}             # lowest bit -> (mask, parity), fully reduced
    for mask, parity in equations.items():
        for low, (pm, pp) in pivots.items():
            if mask >> low & 1:
                mask, parity = mask ^ pm, parity ^ pp
        if not mask:
            if parity:
                raise ValueError("no rescaling by powers of sqrt2 makes the "
                                 "structure constants rational")
            continue
        low = (mask & -mask).bit_length() - 1
        for other, (om, op) in pivots.items():
            if om >> low & 1:
                pivots[other] = (om ^ mask, op ^ parity)
        pivots[low] = (mask, parity)
    # with the free parities 0, each pivot parity is its equation's t
    s = [0] * algebra.dim
    for low, (_, parity) in pivots.items():
        s[low] = parity
    rational = {}           # (i, j) -> [(k, num, den)], sqrt2^{s_i+s_j-s_k} c
    scale = 1
    for (i, j), t in algebra.table.items():
        row = rational[(i, j)] = []
        for k, c in t.items():
            num = c.q if c.q else c.p
            # sqrt2^{s_i + s_j - s_k + t} is 1 or 2
            if s[i] + s[j] - s[k] + (1 if c.q else 0) == 2:
                num *= 2
            g = gcd(num, c.r)
            row.append((k, num // g, c.r // g))
            scale = lcm(scale, c.r // g)
    return s, scale, {ij: tuple((k, num * scale // den) for k, num, den in row)
                      for ij, row in rational.items()}


class PBWEngine:
    """Straightening engine for one algebra under one basis order.

    The engine works on the rescaled basis e'_i = L sqrt2^{s_i} e_i of
    _rescaling, where every structure constant is an integer.  There the
    straightening is Z-linear, so the memo tables hold {monomial: int}
    and the rational and sqrt2 parts of an element never mix: its core
    form (to_core) is two integer vectors over one common denominator.
    The public operations take and return {monomial: Scalar} on the
    original basis and convert once at entry and once at exit.
    """

    def __init__(self, algebra: LieAlgebra, order: Optional[BasisOrder] = None):
        self.algebra = algebra
        self.order = order or BasisOrder(algebra.labels)
        if tuple(self.order.labels) != tuple(algebra.labels):
            raise ValueError("engine order must list the algebra labels")
        self.parity, self.scale_l, table = _rescaling(algebra)
        self._memo: Dict[Tuple[Mono, int], Core] = {}
        self._memo_left: Dict[Tuple[int, Mono], Core] = {}
        # _brackets[(i, j)] = [e'_i, e'_j] on the rescaled basis, as items
        self._brackets: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
        for (i, j), items in table.items():
            self._brackets[(i, j)] = items
            self._brackets[(j, i)] = tuple((k, -c) for k, c in items)

    # -- basic constructors ------------------------------------------------

    def one(self) -> UEA:
        return {ONE_MONO: ONE}

    def zero(self) -> UEA:
        return {}

    def gen(self, label: str, power: int = 1) -> UEA:
        return {((self.algebra.index[label], power),): ONE}

    def from_lie(self, x: LieElement) -> UEA:
        return {((i, 1),): c for i, c in x.items()}

    # -- the core form ------------------------------------------------------

    def _weight(self, m: Mono) -> Tuple[int, int]:
        """(deg, sigma) of m, with e'^m = L^deg sqrt2^sigma e^m."""
        deg = sigma = 0
        for i, e in m:
            deg += e
            sigma += self.parity[i] * e
        return deg, sigma

    def to_core(self, u: UEA) -> Tuple[Core, Core, int]:
        """(P, Q, D) with u = sum_m (P[m] + Q[m] sqrt2) / D * e'^m.

        c e^m has the core coefficient c / (L^deg sqrt2^sigma) (_weight).
        """
        terms = []
        den_lcm = 1
        for m, c in u.items():
            deg, sigma = self._weight(m)
            p, q = c.p, c.q
            if sigma & 1:           # c / sqrt2 = c sqrt2 / 2
                p, q = 2 * q, p
                sigma += 1
            den = c.r * self.scale_l ** deg << (sigma >> 1)
            g = gcd(gcd(p, q), den)
            den //= g
            terms.append((m, p // g, q // g, den))
            den_lcm = lcm(den_lcm, den)
        core_p: Core = {}
        core_q: Core = {}
        for m, p, q, den in terms:
            f = den_lcm // den
            if p:
                core_p[m] = p * f
            if q:
                core_q[m] = q * f
        return core_p, core_q, den_lcm

    def from_core(self, core_p: Core, core_q: Core, den: int) -> UEA:
        """The element sum_m (P[m] + Q[m] sqrt2) / D * e'^m; one Scalar per
        nonzero term."""
        out: UEA = {}
        for m in {**core_p, **core_q}:
            p, q = core_p.get(m, 0), core_q.get(m, 0)
            if not (p or q):
                continue
            deg, sigma = self._weight(m)
            if sigma & 1:           # c sqrt2 = 2q + p sqrt2
                p, q = 2 * q, p
            f = self.scale_l ** deg << (sigma >> 1)
            out[m] = Scalar(p * f, q * f, den)
        return out

    def lie_core(self, x: LieElement) -> Tuple[Dict[int, int],
                                               Dict[int, int], int]:
        """to_core of a Lie element, keyed by label."""
        core_p, core_q, den = self.to_core(self.from_lie(x))
        return ({m[0][0]: c for m, c in core_p.items()},
                {m[0][0]: c for m, c in core_q.items()}, den)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def add(u: UEA, v: UEA) -> UEA:
        out = dict(u)
        for m, c in v.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return out

    @staticmethod
    def sub(u: UEA, v: UEA) -> UEA:
        return PBWEngine.add(u, {m: -c for m, c in v.items()})

    @staticmethod
    def scale(c: Scalar, u: UEA) -> UEA:
        if not c:
            return {}
        return {m: c * x for m, x in u.items()}

    def _mono_times_gen(self, m: Mono, g: int) -> Core:
        """Straightened product e'^m * e'_g."""
        if not m or m[-1][0] < g:
            return {m + ((g, 1),): 1}
        last, p = m[-1]
        if last == g:
            return {m[:-1] + ((g, p + 1),): 1}
        key = (m, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        head = m[:-1] + ((last, p - 1),) if p > 1 else m[:-1]
        out: Core = {}
        get = out.get
        # (head e'_g) e'_last
        for mono, c in self._mono_times_gen(head, g).items():
            for mono2, c2 in self._mono_times_gen(mono, last).items():
                out[mono2] = get(mono2, 0) + c * c2
        # head [e'_last, e'_g]
        for k, c in self._brackets.get((last, g), ()):
            for mono2, c2 in self._mono_times_gen(head, k).items():
                out[mono2] = get(mono2, 0) + c * c2
        out = _nonzero(out)
        self._memo[key] = out
        return out

    def _gen_times_mono(self, g: int, m: Mono) -> Core:
        """Straightened product e'_g * e'^m (mirror of the right recursion)."""
        if not m or g < m[0][0]:
            return {((g, 1),) + m: 1}
        first, p = m[0]
        if first == g:
            return {((g, p + 1),) + m[1:]: 1}
        key = (g, m)
        hit = self._memo_left.get(key)
        if hit is not None:
            return hit
        tail = ((first, p - 1),) + m[1:] if p > 1 else m[1:]
        out: Core = {}
        get = out.get
        # e'_g e'_first = e'_first e'_g + [e'_g, e'_first]
        for mono, c in self._gen_times_mono(g, tail).items():
            for mono2, c2 in self._gen_times_mono(first, mono).items():
                out[mono2] = get(mono2, 0) + c * c2
        for k, c in self._brackets.get((g, first), ()):
            for mono2, c2 in self._gen_times_mono(k, tail).items():
                out[mono2] = get(mono2, 0) + c * c2
        out = _nonzero(out)
        self._memo_left[key] = out
        return out

    def _mono_mul_core(self, m1: Mono, m2: Mono) -> Core:
        """Straightened product e'^m1 * e'^m2."""
        free = mono_mul_free(m1, m2)
        if free is not None:
            return {free: 1}
        cur: Core = {m1: 1}
        for g, p in m2:
            for _ in range(p):
                nxt: Core = {}
                get = nxt.get
                for mono, c in cur.items():
                    if not mono or mono[-1][0] < g:
                        key = mono + ((g, 1),)
                        nxt[key] = get(key, 0) + c
                    elif mono[-1][0] == g:
                        key = mono[:-1] + ((g, mono[-1][1] + 1),)
                        nxt[key] = get(key, 0) + c
                    else:
                        for mono2, c2 in self._mono_times_gen(mono, g).items():
                            nxt[mono2] = get(mono2, 0) + c * c2
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
        left, right = self._gen_times_mono, self._mono_times_gen
        for g, cg in x.items():
            for m, c in v.items():
                coef = cg * c
                for mono, c2 in left(g, m).items():
                    out[mono] = get(mono, 0) + coef * c2
                for mono, c2 in right(m, g).items():
                    out[mono] = get(mono, 0) - coef * c2

    def ad_core(self, x: Dict[int, int], v: Core) -> Core:
        """ad(sum_g x_g e'_g) on an integer vector of the rescaled basis."""
        out: Core = {}
        self._ad_into(out, x, v)
        return _nonzero(out)

    def mono_mul(self, m1: Mono, m2: Mono) -> UEA:
        """Straightened product e^m1 * e^m2 on the original basis."""
        return self.mul({m1: ONE}, {m2: ONE})

    def mul(self, u: UEA, v: UEA) -> UEA:
        # (P1 + Q1 sqrt2)(P2 + Q2 sqrt2)
        #     = P1 P2 + 2 Q1 Q2 + (P1 Q2 + Q1 P2) sqrt2
        p1, q1, d1 = self.to_core(u)
        p2, q2, d2 = self.to_core(v)
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

    def ad(self, x: LieElement, u: UEA) -> UEA:
        """The derivation induced by bracketing with x: u -> xu - ux."""
        xp, xq, xd = self.lie_core(x)
        p, q, d = self.to_core(u)
        out_p: Core = {}
        out_q: Core = {}
        self._ad_into(out_p, xp, p)
        self._ad_into(out_p, {g: 2 * c for g, c in xq.items()}, q)
        self._ad_into(out_q, xp, q)
        self._ad_into(out_q, xq, p)
        return self.from_core(out_p, out_q, xd * d)

    def ad_power(self, x: LieElement, u: UEA, n: int) -> UEA:
        for _ in range(n):
            u = self.ad(x, u)
        return u

    # -- structure helpers ----------------------------------------------------

    @staticmethod
    def degree(u: UEA) -> int:
        """Filtration degree; -1 for the zero element."""
        return max((mono_degree(m) for m in u), default=-1)

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
            c = Scalar.parse(item["coeff"])
            if c:
                out[mono] = out.get(mono, ZERO) + c
        return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# Normal forms modulo left ideals with suffix bases
# ---------------------------------------------------------------------------


def ideal_normal_form(engine: PBWEngine, u: UEA, suffix_start: int):
    """Split u = reduced + sum_k a_k X_k for a suffix-based left ideal.

    With the ideal basis occupying the order suffix, a PBW monomial lies
    in the left ideal exactly when its largest label is an ideal label;
    the reduced part collects the remaining monomials and is the unique
    normal form.  Components are keyed by the terminal ideal generator.
    """
    reduced: UEA = {}
    components: Dict[int, UEA] = {}
    for m, c in u.items():
        if m and m[-1][0] >= suffix_start:
            g, p = m[-1]
            head = m[:-1] + ((g, p - 1),) if p > 1 else m[:-1]
            comp = components.setdefault(g, {})
            comp[head] = comp.get(head, ZERO) + c
        else:
            reduced[m] = c
    components = {g: {m: c for m, c in comp.items() if c}
                  for g, comp in components.items()}
    return {g: comp for g, comp in components.items() if comp}, \
        {m: c for m, c in reduced.items() if c}


def reduce_mod(engine: PBWEngine, u: UEA, suffix_start: int) -> UEA:
    return ideal_normal_form(engine, u, suffix_start)[1]


def in_ideal(engine: PBWEngine, u: UEA, suffix_start: int) -> bool:
    return not reduce_mod(engine, u, suffix_start)


# ---------------------------------------------------------------------------
# The Iwasawa-polynomial side
# ---------------------------------------------------------------------------


@dataclass
class IwasawaElement:
    """Sum of b_j (x) Z^j with polynomial-part coefficients in U(k).

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

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def add(self, other: "IwasawaElement") -> "IwasawaElement":
        n = max(len(self.coeffs), len(other.coeffs))
        return IwasawaElement([
            PBWEngine.add(self.coeff(j), other.coeff(j)) for j in range(n)
        ]).trim()

    def scale(self, c: Scalar) -> "IwasawaElement":
        return IwasawaElement([PBWEngine.scale(c, u) for u in self.coeffs]).trim()

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
                out[i + j] = PBWEngine.add(out[i + j], engine.mul(a, b))
        return IwasawaElement(out).trim()

    def serialize(self, engine: PBWEngine) -> list:
        return [engine.serialize(c) for c in self.trim().coeffs]

    @staticmethod
    def deserialize(engine: PBWEngine, data: list) -> "IwasawaElement":
        return IwasawaElement([engine.deserialize(c) for c in data]).trim()


class ModelEngine:
    """The F4 engines plus the fixed order bookkeeping used downstream."""

    def __init__(self, model: F4Model):
        self.model = model
        self.g = PBWEngine(model.g_algebra)
        self.n_k = 36
        self.z_index = 36
        self.mplus_start = model.g_algebra.index["D2"]
        self.y_start = model.g_algebra.index["X2"]
        # built on first use by repth.build_module and repth.degree_machine
        self.action_basis = None
        self.degree_machine = None

    # -- conversions --------------------------------------------------------

    def lie_in_mixed(self, x: LieElement) -> LieElement:
        """Chevalley-coordinate element to mixed-basis coordinates."""
        return self.model.g_algebra.coords_in_parent(x)

    def uea_of(self, x: LieElement) -> UEA:
        return self.g.from_lie(self.lie_in_mixed(x))

    def k_only(self, u: UEA) -> bool:
        return self.g.supported_below(u, self.n_k)

    def ad_named(self, name: str, u: UEA, n: int = 1) -> UEA:
        x = self.lie_in_mixed(self.model.distinguished[name])
        return self.g.ad_power(x, u, n)

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
        return reduce_mod(self.g, u, self.mplus_start)

    def reduce_mod_y(self, u: UEA) -> UEA:
        return reduce_mod(self.g, u, self.y_start)


@lru_cache(maxsize=1)
def model_engine() -> ModelEngine:
    return ModelEngine(build_f4_model())


# ---------------------------------------------------------------------------
# Casimir elements and small-degree invariants
# ---------------------------------------------------------------------------


def casimir(engine: PBWEngine, basis: List[LieElement], form_value) -> UEA:
    """Sum of x_i x^i over form-dual bases of the spanned subalgebra.

    basis holds elements in the engine's own coordinates; form_value is
    a symmetric nondegenerate invariant pairing on the span.
    """
    out: UEA = {}
    for x, dual in zip(basis, dual_basis(basis, form_value)):
        out = PBWEngine.add(out, engine.mul(engine.from_lie(x),
                                            engine.from_lie(dual)))
    return out


def model_casimir_g(me: ModelEngine) -> UEA:
    """Casimir of the full algebra in the mixed-basis engine."""
    model = me.model
    basis = [me.lie_in_mixed({i: ONE}) for i in range(model.algebra.dim)]

    def fv(x: LieElement, y: LieElement) -> Scalar:
        return model.b(model.in_chevalley(x), model.in_chevalley(y))

    return casimir(me.g, basis, fv)


def model_casimir_m(me: ModelEngine) -> UEA:
    """Casimir of the centralizer subalgebra, inside U(k)."""
    model = me.model
    basis = [me.lie_in_mixed(v) for v in model.subspaces["m"].basis()]

    def fv(x: LieElement, y: LieElement) -> Scalar:
        return model.b(model.in_chevalley(x), model.in_chevalley(y))

    return casimir(me.g, basis, fv)


@dataclass
class OmegaReport:
    omega: IwasawaElement
    omega1_scalar: Scalar          # coefficient of Z, a multiple of 1
    casimir_m_coeff: Scalar        # omega0 = this * Cas(m) + const * 1
    constant_coeff: Scalar
    checks: list


def omega_normalized(me: ModelEngine = None) -> OmegaReport:
    """The distinguished quadratic member of the polynomial image.

    Scales the projection of the Casimir so the Z^2 coefficient is 1,
    asserts the Z coefficient is a nonzero scalar, and resolves the
    constant coefficient exactly over span{1, Casimir of the
    centralizer}, recording both scalars.
    """
    if me is None:
        me = model_engine()
    om = me.iwasawa_project(model_casimir_g(me))
    checks = []
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
    checks.append(("omega1 nonzero scalar", bool(w1s)))
    w0 = om.coeff(0)
    cas_m = model_casimir_m(me)
    # solve w0 = s*cas_m + t*1 exactly over the monomial coordinates
    monos = sorted(set(w0) | set(cas_m) | {ONE_MONO})
    a = Matrix([[cas_m.get(m, ZERO), ONE if m == ONE_MONO else ZERO]
                for m in monos])
    rhs = [w0.get(m, ZERO) for m in monos]
    sol = a.solve(rhs)
    if sol is None:
        raise ValueError("constant coefficient is outside span{1, Casimir(m)}")
    s, t = sol
    checks.append(("omega0 in span{1, Casimir(m)}", True))
    checks.append(("omega0 constant shift recorded", True))
    return OmegaReport(omega=om, omega1_scalar=w1s, casimir_m_coeff=s,
                       constant_coeff=t, checks=checks)


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
        zero = tuple(Fraction(0) for _ in next(iter(label_weights.values())))

        def mono_weight(m: Mono):
            acc = list(zero)
            for i, e in m:
                w = label_weights[i]
                for j in range(len(acc)):
                    acc[j] += e * w[j]
            return tuple(acc)

        monos = [m for m in monos if mono_weight(m) == zero]

    space = [{m: ONE} for m in monos]
    for x in sub_basis:
        if not space:
            break
        space = [combine(c, space)
                 for c in kernel([engine.ad(x, u) for u in space])]
    return space
