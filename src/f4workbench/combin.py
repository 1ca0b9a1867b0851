"""Skew-diagonal bookkeeping, coefficient systems, and the assembled
congruence sums driving the decreasing induction.

Everything here is parameterized by the degree profile d_r =
floor((3m - 2r + 2)/2): the index sets select which dominant unknowns
survive at a skew-diagonal level (T, n), the coefficient matrices carry
the double binomial sums, and the assembled sums apply the raising
derivations to the coefficients of a polynomial-part element and reduce
the combination modulo the nilradical left ideal.  Binomials with
out-of-range arguments vanish, which is what delimits every sum: so a
pair (l, n) with l + n > T has empty sums, and (n, n) has sums that
cancel.  assembly_pairs owns that rule, and assemble_system rejects
such a pair rather than record a check that passes on any input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .balg import antisymmetric_pair
from .exactnum import (ONE, PolyScalar, Scalar, ZERO, add, coordinates, sca,
                       scale, sub)
from .reporting import Report
from .repth import action_basis, degree_machine, label_degree
from .rootdata import Coord, gamma_basis, vadd, vscale
from .uea import IwasawaElement, ModelEngine, UEA


def degree_profile(m: int) -> Tuple[int, ...]:
    """The sequence d_0..d_m with d_r = floor((3m - 2r + 2)/2)."""
    return tuple((3 * m - 2 * r + 2) // 2 for r in range(m + 1))


@dataclass(frozen=True)
class IndexSets:
    T: int
    n: int
    m: int
    L: Tuple[int, ...]
    R: Tuple[int, ...]
    R_reduced: Tuple[int, ...]


def index_sets(m: int, T: int, n: int) -> IndexSets:
    """The row and column index sets at skew-diagonal level (T, n)."""
    if m < 0:
        raise ValueError("m=%d is negative" % m)
    d0 = degree_profile(m)[0]
    if not (m <= T <= 2 * d0):
        raise ValueError("T=%d out of range [%d, %d]" % (T, m, 2 * d0))
    if not (0 <= n <= min(T, 2 * d0 - T)):
        raise ValueError("n=%d out of range [0, %d]" % (n, min(T, 2 * d0 - T)))
    lset = tuple(L for L in range(0, min(2 * m, T) - n + 1)
                 if L % 2 != n % 2)
    rset = tuple(r for r in range(0, min(m, min(T, 2 * d0 - T) - n) + 1)
                 if r % 2 == (T - n) % 2)
    if (T - n) % 2 == 0:
        r_red = tuple(r for r in rset if 2 * r < T + n)
    else:
        r_red = rset
    return IndexSets(T=T, n=n, m=m, L=lset, R=rset, R_reduced=r_red)


def _binom(a: int, b: int) -> int:
    """Binomial with vanishing out-of-range values."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def coefficient_a(i: int, r: int, T: int, n: int, l: int) -> Scalar:
    """(-1/2)^(r-i) (-1)^(i-n) r! C(T-n-l, i-n) C(l, r-i), or zero."""
    if r < i or i < n:
        return ZERO
    c1 = _binom(T - n - l, i - n)
    c2 = _binom(l, r - i)
    if not c1 or not c2:
        return ZERO
    val = Fraction((-1) ** (r - i), 2 ** (r - i)) * (-1) ** (i - n) \
        * factorial(r) * c1 * c2
    return sca(val)


def system_matrix(T: int, n: int, m: int,
                  reduced: bool = False) -> List[List[Scalar]]:
    """The rows, over L(T,n), of the matrix with columns over R (or the
    reduced set)."""
    sets = index_sets(m, T, n)
    cols = sets.R_reduced if reduced else sets.R
    entries = []
    for L in sets.L:
        row = []
        for r in cols:
            acc = 0
            for l in range(0, L + 1):
                acc += (-2) ** l * _binom(L, l) * _binom(T - n - l, r - l)
            row.append(sca(acc))
        entries.append(row)
    return entries


def generalized_a_matrix(lseq: Sequence[int], delta: int) -> List[List[PolyScalar]]:
    """The square polynomial matrix with entries
    A_ij(s) = sum_l (-2)^l C(L_i, l) C(s - l, 2j + delta - l).  The
    entries are shared between calls, so callers must not mutate them."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if list(lseq) != sorted(set(lseq)) or any(x < 0 for x in lseq):
        raise ValueError("index sequence must be strictly increasing, >= 0")
    size = len(lseq)
    return [[_a_entry(big_l, 2 * j + delta) for j in range(size)]
            for big_l in lseq]


@lru_cache(maxsize=None)
def _a_entry(big_l: int, t: int) -> PolyScalar:
    """sum_l (-2)^l C(big_l, l) C(s - l, t - l) as a polynomial in s;
    shared, so never mutated."""
    acc = PolyScalar([])
    for l in range(0, min(big_l, t) + 1):
        c = (-2) ** l * _binom(big_l, l)
        if c:
            acc = acc + _binom_poly(-l, t - l) * sca(c)
    return acc


@lru_cache(maxsize=None)
def _binom_poly(shift: int, t: int) -> PolyScalar:
    """C(s + shift, t) as a polynomial in s; shared, so never mutated."""
    acc = PolyScalar.constant(Fraction(1, factorial(t)))
    for u in range(t):
        acc = acc * PolyScalar([sca(shift - u), ONE])
    return acc


def system_matches_generalized(m: int, T: int, n: int) -> bool:
    """Cross-evaluation: the numeric matrix equals the polynomial one
    at s = T - n over the same index sets."""
    sets = index_sets(m, T, n)
    sm = system_matrix(T, n, m)
    if not sets.L or not sets.R:
        return True
    # the polynomial matrix needs column labels 2j + delta matching R
    delta = sets.R[0] % 2
    if any(r % 2 != delta for r in sets.R):
        return False
    ga = generalized_a_matrix(sets.L, delta)
    s_val = sca(T - n)
    for a, L in enumerate(sets.L):
        for b, r in enumerate(sets.R):
            j = (r - delta) // 2
            # columns past the square matrix compare against their entry
            entry = ga[a][j] if j < len(sets.L) else _a_entry(L, r)
            if entry.evaluate(s_val) != sm[a][b]:
                return False
    return True


@dataclass
class DetFactorization:
    lseq: Tuple[int, ...]
    delta: int
    roots: Tuple[Fraction, ...]
    leading: Scalar
    splits: bool


def determinant_factorization(lseq: Sequence[int], delta: int) -> DetFactorization:
    """Exact determinant of the polynomial matrix with its rational
    roots; splits records whether it factors into linear terms."""
    from .exactnum import poly_det, rational_roots
    # column j has denominators dividing (2j + delta)!, so scaled by it
    # Bareiss runs on integer polynomials; the scale leaves the roots alone
    scales = [factorial(2 * j + delta) for j in range(len(lseq))]
    det = poly_det([[e * sca(f) for e, f in zip(row, scales)]
                    for row in generalized_a_matrix(lseq, delta)])
    if det.is_zero():
        return DetFactorization(tuple(lseq), delta, (), ZERO, False)
    roots, rem = rational_roots(det)
    return DetFactorization(tuple(lseq), delta, tuple(sorted(roots)),
                            det.leading() / sca(prod(scales)),
                            rem.degree() <= 0)


# ---------------------------------------------------------------------------
# operators on invariant coefficients
# ---------------------------------------------------------------------------


def dk_operator(me: ModelEngine, b: UEA, k: int) -> UEA:
    """The k-th twisted raising combination of a pure-type invariant.

    For an invariant of type (2i, j) and 0 <= k <= 2i:
    sum_l (-2)^l C(k,l) C(j+l,l)^(-1) Xdelta^(2i-l) E^(j+l) (b) E^(k-l) X4^l.
    """
    comps = degree_machine(me).components(b)
    if len(comps) != 1:
        raise ValueError("element is not of pure type: %s" % sorted(comps))
    (two_i, j), = comps.keys()
    if two_i % 2 != 0:
        raise ValueError("first type label must be even")
    if not (0 <= k <= two_i):
        raise ValueError("k=%d out of range [0, %d]" % (k, two_i))
    xd = me.named["Xdelta"]
    e = me.named["E"]
    x4 = me.g.from_lie(me.named["X4"])
    acc: UEA = {}
    for l in range(0, k + 1):
        c = Fraction((-2) ** l * comb(k, l), comb(j + l, l))
        der = me.g.ad_power(xd, me.g.ad_power(e, b, j + l), two_i - l)
        if not der:
            continue
        tail = me.g.mul(me.g.gen("E", k - l), me.g.power(x4, l))
        acc = add(acc, scale(sca(c), me.g.mul(der, tail)))
    return acc


def weight_of(me: ModelEngine, u: UEA) -> Optional[Coord]:
    """The compact-Cartan weight of u, or None if u is not a weight vector."""
    if not u:
        return None
    out = []
    for ci in (1, 2, 3, 4):
        h = me.named["Ht%d" % ci]
        img = me.g.ad(h, u)
        if not img:
            out.append(Fraction(0))
            continue
        ratio = None
        for m, c in u.items():
            if m in img:
                ratio = img[m] / c
                break
        if ratio is None or not ratio.is_rational():
            return None
        if sub(img, scale(ratio, u)):
            return None
        out.append(ratio.rational_value())
    return tuple(out)


def u_element(me: ModelEngine) -> Tuple[UEA, Scalar, Scalar]:
    """The dominant quadratic element of weight gamma4 + delta.

    Returns (U, a, b) with U = Xdelta X4 + a T23 S23 + b T24 S24 solved
    exactly so that every simple raising kills U; the mixed terms lie in
    the abelian-ideal left ideal, so U is congruent to Xdelta X4 there.
    """
    xd_x4 = me.g.mul(me.g.gen("Xdelta"), me.g.from_lie(me.named["X4"]))
    t1 = me.g.mul(me.g.gen("T23"), me.g.gen("S23"))
    t2 = me.g.mul(me.g.gen("T24"), me.g.gen("S24"))
    # the images under every simple raising of k, stacked as one vector
    # keyed by (raiser, monomial): a ad(t1) + b ad(t2) = -ad(xd_x4)
    images = [{}, {}, {}]
    for r, x in enumerate(action_basis(me).e_vecs):
        for image, u in zip(images, (xd_x4, t1, t2)):
            image.update(((r, mo), c) for mo, c in me.g.ad(x, u).items())
    sol = coordinates(images[1:], scale(-ONE, images[0]))
    if sol is None:
        raise ValueError("no dominant combination exists")
    a, b = sol.get(0, ZERO), sol.get(1, ZERO)
    u = add(xd_x4, add(scale(a, t1), scale(b, t2)))
    return u, a, b


# ---------------------------------------------------------------------------
# assembled congruence sums
# ---------------------------------------------------------------------------


@dataclass
class CoefficientData:
    """Type decomposition of every polynomial coefficient of b."""

    m: int
    profile: Tuple[int, ...]
    components: List[Dict[Tuple[int, int], UEA]]
    degrees: List[int]


def coefficient_data(me: ModelEngine, b: IwasawaElement) -> CoefficientData:
    """Exact per-coefficient type decompositions, with the degree bounds
    d(b_r) <= 2 d_r verified; raises naming any violated hypothesis."""
    dm = degree_machine(me)
    b = b.trim()
    m = max(b.degree, 0)
    profile = degree_profile(m)
    comps = []
    degrees = []
    for r in range(m + 1):
        c = b.coeff(r)
        parts = dm.components(c) if c else {}
        comps.append(parts)
        d = label_degree(parts)
        degrees.append(d)
        if d > 2 * profile[r]:
            raise ValueError("degree bound violated: d(b_%d) = %d > %d"
                             % (r, d, 2 * profile[r]))
    return CoefficientData(m=m, profile=profile, components=comps,
                           degrees=degrees)


def _sigma_direct(me: ModelEngine, b: IwasawaElement, m: int, T: int,
                  l: int, n: int) -> UEA:
    """First assembled sum with raw coefficients: over the index pairs
    with n <= i <= min(m, T-l), i <= r <= min(m, i+l)."""
    xd = me.named["Xdelta"]
    e = me.named["E"]
    acc: UEA = {}
    for i in range(n, min(m, T - l) + 1):
        for r in range(i, min(m, i + l) + 1):
            c = coefficient_a(i, r, T, n, l)
            if not c:
                continue
            br = b.coeff(r)
            if not br:
                continue
            der = me.g.ad_power(xd, me.g.ad_power(e, br, l + i - r), T - l - i)
            if not der:
                continue
            term = me.g.mul_many(der, me.g.gen("E", r - i),
                                 me.g.gen("Xdelta", i - n))
            acc = add(acc, scale(c, term))
    return acc


def _sigma_typed(me: ModelEngine, data: CoefficientData, T: int,
                 l: int, n: int) -> UEA:
    """First assembled sum over the skew-diagonal type components, with
    the longer weight-aligning tails."""
    m = data.m
    xd = me.named["Xdelta"]
    e = me.named["E"]
    x4 = me.g.from_lie(me.named["X4"])
    acc: UEA = {}
    for i in range(n, min(m, T - l) + 1):
        for r in range(i, min(m, i + l) + 1):
            c = coefficient_a(i, r, T, n, l)
            if not c:
                continue
            for k in range(max(0, T - r - data.profile[r]),
                           (T - r) // 2 + 1):
                comp = data.components[r].get((2 * k, T - r - 2 * k))
                if not comp:
                    continue
                der = me.g.ad_power(xd, me.g.ad_power(e, comp, l + i - r),
                                    T - l - i)
                if not der:
                    continue
                term = me.g.mul_many(der, me.g.gen("E", r - i),
                                     me.g.gen("Xdelta", T - k),
                                     me.g.power(x4, k + i - n))
                acc = add(acc, scale(c, term))
    return acc


def assembly_pairs(T: int, n: int) -> List[Tuple[int, int]]:
    """The pairs (l, n) that assemble_system accepts at level T: the sums
    of a pair with l + n > T are empty, and the antisymmetric sum of
    (n, n) is zero."""
    return [(l, n) for l in range(0, T - n + 1) if l != n]


def assemble_system(me: ModelEngine, b: IwasawaElement, T: int,
                    ln_pairs: Sequence[Tuple[int, int]],
                    rep: Optional[Report] = None) -> Report:
    """Assemble the congruence sums for the pairs (l, n) and reduce.

    First raises ValueError naming the violated hypothesis: a degree
    bound, the diagonal hypothesis at T, T outside [m, 2 d_0], or a pair
    outside assembly_pairs(T, n).  Then, for each pair, records in rep
    whether the raw-coefficient ("direct") and type-component ("typed")
    assemblies vanish modulo the nilradical left ideal and whether the
    typed assembly has its weight, and finally whether the binomially
    combined family ("combined") vanishes for each n and admissible L.
    """
    data = coefficient_data(me, b)
    for r, parts in enumerate(data.components):
        bound = min(T - r, 2 * data.profile[r])
        for (p, q) in parts:
            if p + q > bound:
                raise ValueError("diagonal hypothesis fails at T=%d: "
                                 "coefficient %d has type (%d,%d) beyond "
                                 "diagonal %d" % (T, r, p, q, bound))
    if not (data.m <= T <= 2 * data.profile[0]):
        raise ValueError("T=%d out of range [%d, %d]"
                         % (T, data.m, 2 * data.profile[0]))
    for l, n in ln_pairs:
        if l < 0 or n < 0:
            raise ValueError("(l,n)=(%d,%d) has a negative entry" % (l, n))
        if (l, n) not in assembly_pairs(T, n):
            raise ValueError("(l,n)=(%d,%d) is vacuous at T=%d: only a "
                             "pair with l != n and l + n <= T has sums that "
                             "can fail" % (l, n, T))
    m = data.m
    g = gamma_basis()
    if rep is None:
        rep = Report("assembly")
    typed: Dict[Tuple[int, int], UEA] = {}

    def typed_pair(l: int, n: int) -> UEA:
        if (l, n) not in typed:
            typed[(l, n)] = antisymmetric_pair(
                me, lambda a, c: _sigma_typed(me, data, T, a, c), l, n)
        return typed[(l, n)]

    for (l, n) in ln_pairs:
        lhs = antisymmetric_pair(
            me, lambda a, c: _sigma_direct(me, b, m, T, a, c), l, n)
        rep.vanishes("direct (l,n)=(%d,%d)" % (l, n),
                     me.reduce_mod_mplus(lhs), me.g.serialize)
        lhs_t = typed_pair(l, n)
        rep.vanishes("typed (l,n)=(%d,%d)" % (l, n),
                     me.reduce_mod_mplus(lhs_t), me.g.serialize)
        expect = vadd(vscale(2 * T - l - n, g["gamma1"]),
                      vscale(T, vadd(g["gamma2"], g["delta"])))
        w = weight_of(me, lhs_t)
        rep.check("weight (l,n)=(%d,%d)" % (l, n),
                  (not lhs_t) or w == expect,
                  "weight %s, expected %s" % (w, expect))
    # the binomially combined family over admissible L
    x4 = me.g.from_lie(me.named["X4"])
    seen_n = sorted({n for (_, n) in ln_pairs})
    for n in seen_n:
        if n > min(2 * data.profile[m], T):
            continue
        for L in range(0, min(2 * m, T) - n + 1):
            acc: UEA = {}
            for l in range(0, L + 1):
                eps = typed_pair(l, n)
                if not eps:
                    continue
                tail = me.g.mul(me.g.gen("E", L - l), me.g.power(x4, l + n))
                acc = add(acc, scale(sca((-2) ** l * comb(L, l)),
                                     me.g.mul(eps, tail)))
            rep.vanishes("combined (n,L)=(%d,%d)" % (n, L),
                         me.reduce_mod_mplus(acc), me.g.serialize)
    return rep
