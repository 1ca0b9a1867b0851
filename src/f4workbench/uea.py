"""Sparse PBW engine for enveloping algebras, and the projection onto
the polynomial part of the Iwasawa factorization.

Elements are dicts {monomial: Scalar}; a monomial is a tuple of
(basis index, exponent) pairs with strictly increasing indices, in PBW
normal form for a fixed total order on the basis.  Straightening is a
two-level recursion on (monomial, generator) pairs, memoized per
engine: the rewrite x^p * g for a generator g below x costs one bracket
lookup plus lower-degree work, which the memo table amortizes across
the big congruence computations downstream.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exactnum import Matrix, ONE, Scalar, ZERO, combine, dual_basis, kernel
from .liealg import F4Model, LieAlgebra, LieElement, build_f4_model

Mono = Tuple[Tuple[int, int], ...]
UEA = Dict[Mono, Scalar]

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


class PBWEngine:
    """Straightening engine for one algebra under one basis order."""

    def __init__(self, algebra: LieAlgebra, order: Optional[BasisOrder] = None):
        self.algebra = algebra
        self.order = order or BasisOrder(algebra.labels)
        if tuple(self.order.labels) != tuple(algebra.labels):
            raise ValueError("engine order must list the algebra labels")
        self._memo: Dict[Tuple[Mono, int], UEA] = {}
        self._memo_left: Dict[Tuple[int, Mono], UEA] = {}
        # bracket_rows[i][j] = bracket of basis i with basis j, as item list
        self._brackets: Dict[Tuple[int, int], Tuple[Tuple[int, Scalar], ...]] = {}
        n = algebra.dim
        for i in range(n):
            for j in range(n):
                t = algebra.bracket_basis(i, j)
                if t:
                    self._brackets[(i, j)] = tuple(t.items())

    # -- basic constructors ------------------------------------------------

    def one(self) -> UEA:
        return {ONE_MONO: ONE}

    def zero(self) -> UEA:
        return {}

    def gen(self, label: str, power: int = 1) -> UEA:
        return {((self.algebra.index[label], power),): ONE}

    def from_lie(self, x: LieElement) -> UEA:
        return {((i, 1),): c for i, c in x.items()}

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

    def _mono_times_gen(self, m: Mono, g: int) -> UEA:
        """Straightened product m * e_g."""
        if not m or m[-1][0] < g:
            return {m + ((g, 1),): ONE}
        last, p = m[-1]
        if last == g:
            return {m[:-1] + ((g, p + 1),): ONE}
        key = (m, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        head = m[:-1] + ((last, p - 1),) if p > 1 else m[:-1]
        out: UEA = {}
        # (head e_g) e_last
        for mono, c in self._mono_times_gen(head, g).items():
            for mono2, c2 in self._mono_times_gen(mono, last).items():
                s = out.get(mono2, ZERO) + c * c2
                if s:
                    out[mono2] = s
                else:
                    out.pop(mono2, None)
        # head [e_last, e_g]
        br = self._brackets.get((last, g))
        if br:
            for k, c in br:
                for mono2, c2 in self._mono_times_gen(head, k).items():
                    s = out.get(mono2, ZERO) + c * c2
                    if s:
                        out[mono2] = s
                    else:
                        out.pop(mono2, None)
        self._memo[key] = out
        return out

    def _gen_times_mono(self, g: int, m: Mono) -> UEA:
        """Straightened product e_g * m (mirror of the right recursion)."""
        if not m or g < m[0][0]:
            return {((g, 1),) + m: ONE}
        first, p = m[0]
        if first == g:
            return {((g, p + 1),) + m[1:]: ONE}
        key = (g, m)
        hit = self._memo_left.get(key)
        if hit is not None:
            return hit
        tail = ((first, p - 1),) + m[1:] if p > 1 else m[1:]
        out: UEA = {}
        # e_g e_first = e_first e_g + [e_g, e_first]
        for mono, c in self._gen_times_mono(g, tail).items():
            for mono2, c2 in self._gen_times_mono(first, mono).items():
                s = out.get(mono2, ZERO) + c * c2
                if s:
                    out[mono2] = s
                else:
                    out.pop(mono2, None)
        br = self._brackets.get((g, first))
        if br:
            for k, c in br:
                for mono2, c2 in self._gen_times_mono(k, tail).items():
                    s = out.get(mono2, ZERO) + c * c2
                    if s:
                        out[mono2] = s
                    else:
                        out.pop(mono2, None)
        self._memo_left[key] = out
        return out

    def mono_mul(self, m1: Mono, m2: Mono) -> UEA:
        free = mono_mul_free(m1, m2)
        if free is not None:
            return {free: ONE}
        cur: UEA = {m1: ONE}
        for g, p in m2:
            for _ in range(p):
                nxt: UEA = {}
                for mono, c in cur.items():
                    if not mono or mono[-1][0] < g:
                        key = mono + ((g, 1),)
                        s = nxt.get(key, ZERO) + c
                        if s:
                            nxt[key] = s
                        else:
                            nxt.pop(key, None)
                        continue
                    if mono[-1][0] == g:
                        key = mono[:-1] + ((g, mono[-1][1] + 1),)
                        s = nxt.get(key, ZERO) + c
                        if s:
                            nxt[key] = s
                        else:
                            nxt.pop(key, None)
                        continue
                    for mono2, c2 in self._mono_times_gen(mono, g).items():
                        s = nxt.get(mono2, ZERO) + c * c2
                        if s:
                            nxt[mono2] = s
                        else:
                            nxt.pop(mono2, None)
                cur = nxt
        return cur

    def mul(self, u: UEA, v: UEA) -> UEA:
        out: UEA = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                c = c1 * c2
                prod = self.mono_mul(m1, m2)
                for m, cm in prod.items():
                    s = out.get(m, ZERO) + c * cm
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return out

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
        out: UEA = {}
        for g, cg in x.items():
            for m, c in u.items():
                coef = cg * c
                for mono, c2 in self._gen_times_mono(g, m).items():
                    s = out.get(mono, ZERO) + coef * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
                for mono, c2 in self._mono_times_gen(m, g).items():
                    s = out.get(mono, ZERO) - coef * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
        return out

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
