"""The noncommutative polynomial calculus on U(k)[x] and the defining
congruences of the algebra of polynomial-part images.

Elements of U(k) (x) U(a) are read as polynomials in one central
indeterminate x with left coefficients in U(k): b(arg) always means
sum_j b_j * arg^j with the argument powers multiplying on the right.
One type holds them, uea.IwasawaElement, with its coefficients in the
monomial basis; to_phi gives the coefficients over the difference basis
phi_0, phi_1, ....
Every argument is s + t, a rational constant s plus an element t of
U(g): substitute forms b(x + t), which commutes with x but not with the
coefficients, and IwasawaElement.at evaluates it at x = s.

The membership test implements, for the unique simple restricted root,
the congruence

    E^n b(n - Y - 1) = b(-n - Y - 1) E^n   modulo the left ideal
                                           I = U(g) m+ generated by the
                                           centralizer nilradical m+,

together with its triangularized equivalent and the mixed-difference
combinations used by the induction machinery downstream.

Both sides are computed in the quotient U(g)/I.  Its normal form NF
(uea.reduce_mod) keeps the PBW monomials of U(k) with no m+ label: in
the model order the nine m+ labels D2 ... S24 are the last labels of k,
so a monomial of U(k) lies in I exactly when its last label is one.
  - I is a left ideal, so NF(u X) = NF(u NF(X)): the left side
    multiplies only the reduced sum by E^n.
  - E is the last label before the m+ block, and [E, m+] = 0, so
    (U(g) m+) E^n = U(g) E^n m+ lies in I and NF(X E^n) = NF(X) E^n.
    Every label of NF(X) is at most E, so that product only appends E^n
    to each monomial (append_power), with no straightening.
  - b(x + a) with a = -Y is formed once per element by Horner's rule
    and its coefficients are reduced once (NF is linear); each n then
    evaluates it at the scalars x = n - 1 and x = -n - 1.
quotient_label checks the two facts about E on the engine's table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, List, Optional

from .exactnum import ONE, accumulate, add, sca, scale, sub
from .reporting import Report
from .repth import is_m_invariant
from .uea import IwasawaElement, ONE_MONO, UEA, ModelEngine


# ---------------------------------------------------------------------------
# scalar polynomials phi_n
# ---------------------------------------------------------------------------


def phi_coeffs(n: int) -> List[Fraction]:
    """Monomial coefficients of phi_n: phi_0 = 1 and for n >= 1
    phi_n(x) = x (x + n/2 - 1)(x + n/2 - 2) ... (x - n/2 + 1) / n!."""
    if n == 0:
        return [Fraction(1)]
    coeffs = [Fraction(0), Fraction(1)]   # x
    for k in range(1, n):
        shift = Fraction(n, 2) - k
        # multiply by (x + shift)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] += c * shift
        coeffs = new
    inv = Fraction(1, factorial(n))
    return [c * inv for c in coeffs]


# ---------------------------------------------------------------------------
# the phi basis
# ---------------------------------------------------------------------------


def to_phi(p: IwasawaElement) -> List[UEA]:
    """The coefficients of p over phi_0, phi_1, ..., as many as p has."""
    rem = [dict(c) for c in p.trim().coeffs]
    out: List[UEA] = [dict() for _ in range(len(rem))]
    for j in range(len(rem) - 1, -1, -1):
        top = rem[j]
        if top:
            cj = scale(sca(factorial(j)), top)
            out[j] = cj
            for i, s in enumerate(phi_coeffs(j)):
                if s:
                    rem[i] = sub(rem[i], scale(sca(s), cj))
    if any(rem):
        raise AssertionError("phi-basis conversion left a remainder")
    return out


# ---------------------------------------------------------------------------
# discrete derivative and substitutions
# ---------------------------------------------------------------------------


def shift_by_scalar(p: IwasawaElement, c: Fraction) -> IwasawaElement:
    """p(x + c)."""
    out: List[UEA] = [dict() for _ in range(len(p.coeffs))]
    for j, pj in enumerate(p.coeffs):
        if not pj:
            continue
        for i in range(j + 1):
            s = comb(j, i) * c ** (j - i)
            if s:
                out[i] = add(out[i], scale(sca(s), pj))
    return IwasawaElement(out).trim()


def discrete_derivative(p: IwasawaElement, n: int) -> IwasawaElement:
    """The n-th central difference sum_j (-1)^j C(n,j) p(x + n/2 - j)."""
    if n == 0:
        return p
    out = IwasawaElement([])
    for j in range(n + 1):
        term = shift_by_scalar(p, Fraction(n, 2) - j)
        out = out.add(term.scale(sca((-1) ** j * comb(n, j))))
    return out


def phi_poly(n: int) -> IwasawaElement:
    """phi_n with scalar coefficients."""
    return IwasawaElement([{ONE_MONO: sca(c)} if c else {}
                           for c in phi_coeffs(n)]).trim()


def substitute(me: ModelEngine, b: IwasawaElement, t: UEA) -> IwasawaElement:
    """b(x + t) = sum_j b_j (x + t)^j for t in U(g), coefficients on the
    left, by Horner's rule acc <- acc (x + t) + b_j.  Since x is central,
    acc (x + t) moves each coefficient a_i up to x^(i+1) and adds a_i t
    at x^i."""
    acc: List[UEA] = []
    for bj in reversed(b.trim().coeffs):
        acc = [add(lo, me.g.mul(hi, t)) if hi else lo
               for lo, hi in zip([bj] + acc, acc + [{}])]
    return IwasawaElement(acc).trim()


def t_matrix_entry(me: ModelEngine, i: int, j: int) -> UEA:
    """t_ij = sum_k (-1)^k C(i,k) (H + i/2 - 1 - k)^j, an H-polynomial."""
    h = me.g.from_lie(me.named["H"])
    acc: UEA = {}
    for k in range(i + 1):
        arg = add(h, scale(sca(Fraction(i, 2) - 1 - k), me.g.one()))
        accumulate(acc, me.g.power(arg, j), sca((-1) ** k * comb(i, k)))
    return acc


def shift_substitute(me: ModelEngine, b: IwasawaElement) -> IwasawaElement:
    """c(x) = b(x + H - 1)."""
    h = me.g.from_lie(me.named["H"])
    return substitute(me, b, sub(h, me.g.one()))


# ---------------------------------------------------------------------------
# membership reports
# ---------------------------------------------------------------------------


def default_nmax(degree: int) -> int:
    return 2 * degree + 2


def coefficients_m_invariant(me: ModelEngine, b: IwasawaElement) -> bool:
    """Whether every polynomial coefficient is killed by the centralizer."""
    return all(is_m_invariant(me, me.g.to_core(c)[:2])
               for c in b.coeffs if c)


def quotient_label(me: ModelEngine) -> int:
    """The label of E, once the two facts the quotient arithmetic rests on
    are checked on the engine's table: E is the last label before the m+
    block, and E commutes with every m+ label.  Raises ValueError naming
    the label that breaks them."""
    alg = me.g.algebra
    e = alg.index["E"]
    if e != me.mplus_start - 1:
        raise ValueError("E is label %d, but the label before the m+ block "
                         "is %s" % (e, alg.labels[me.mplus_start - 1]))
    for i in range(me.mplus_start, me.n_k):
        if alg.bracket_basis(e, i):
            raise ValueError("E does not commute with the m+ label %s"
                             % alg.labels[i])
    return e


def append_power(u: UEA, label: int, n: int) -> UEA:
    """u * e_label^n for u whose monomials use no label above label; the
    product is then in PBW order as it stands.  Raises ValueError on a
    monomial of u with a label above label, whose product would need
    straightening."""
    out: UEA = {}
    for m, c in u.items():
        if m and m[-1][0] > label:
            raise ValueError("monomial %r has a label above %d" % (m, label))
        if m and m[-1][0] == label:
            out[m[:-1] + ((label, m[-1][1] + n),)] = c
        else:
            out[m + ((label, n),)] = c
    return out


def congruence_residuals(me: ModelEngine, b: IwasawaElement, nmax: int
                         ) -> Iterator[UEA]:
    """NF(E^n b(n - Y - 1) - b(-n - Y - 1) E^n) for n = 1..nmax, in the
    quotient by I (module docstring).

    Raises ValueError when a coefficient leaves U(k), or when the model
    order breaks a fact quotient_label checks.
    """
    b = b.trim()
    for c in b.coeffs:
        if c and not me.k_only(c):
            raise ValueError("coefficients must lie in U(k)")
    e = quotient_label(me)
    neg_y = me.g.from_lie(scale(-ONE, me.named["Y"]))
    c = IwasawaElement([me.reduce_mod_mplus(u)
                        for u in substitute(me, b, neg_y).coeffs])
    for n in range(1, nmax + 1):
        lhs = me.reduce_mod_mplus(me.g.mul(me.g.gen("E", n), c.at(n - 1)))
        yield sub(lhs, append_power(c.at(-n - 1), e, n))


def check_congruences(me: ModelEngine, b: IwasawaElement,
                      nmax: Optional[int] = None,
                      rep: Optional[Report] = None) -> Report:
    """The raw congruences for n = 1..nmax, reduced exactly, into rep.

    Raises when a coefficient leaves U(k).  nmax defaults to twice the
    degree plus two; the triangular form shows higher equations are
    redundant, and the buffer catches assembly errors.
    """
    if nmax is None:
        nmax = default_nmax(max(b.degree, 0))
    if rep is None:
        rep = Report("congruences")
    for n, residual in enumerate(congruence_residuals(me, b, nmax), 1):
        rep.vanishes("n=%d" % n, residual, me.g.serialize)
    return rep


def check_b_membership(me: ModelEngine, b: IwasawaElement,
                       nmax: Optional[int] = None,
                       rep: Optional[Report] = None) -> Report:
    """Membership in the congruence algebra: invariance plus equations.

    The algebra is defined inside the centralizer invariants, so rep gets
    one record for the invariance of the coefficients followed by one
    record per congruence, all reduced exactly.
    """
    if rep is None:
        rep = Report("membership")
    rep.check("m-invariance", coefficients_m_invariant(me, b),
              "a coefficient is moved by the centralizer")
    return check_congruences(me, b, nmax, rep)


def check_triangular(me: ModelEngine, c: IwasawaElement) -> Report:
    """The triangularized system, one equation per degree level.

    Equation n reads: apply the raising derivation n+1 times to the n-th
    difference, evaluate at n/2 + 1 - Ytilde, add the n-times-derived
    (n+1)-st difference evaluated at n/2 - 1/2 - Ytilde times E, and
    reduce; equation n only involves the coefficients from n upward.
    Each term is reduced on its own, and E is appended to the reduced
    second one (module docstring).
    """
    m = c.degree
    neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
    e = quotient_label(me)
    rep = Report("triangular")
    e_elt = me.named["E"]
    for n in range(0, max(m, 0) + 1):
        dn = discrete_derivative(c, n).coeffs
        dn1 = discrete_derivative(c, n + 1).coeffs
        dn_e = [me.g.ad_power(e_elt, u, n + 1) for u in dn]
        dn1_e = [me.g.ad_power(e_elt, u, n) for u in dn1]
        first = substitute(me, IwasawaElement(dn_e), neg_yt)
        second = substitute(me, IwasawaElement(dn1_e), neg_yt)
        total = add(
            me.reduce_mod_mplus(first.at(Fraction(n, 2) + 1)),
            append_power(me.reduce_mod_mplus(
                second.at(Fraction(n, 2) - Fraction(1, 2))), e, 1))
        rep.vanishes("n=%d" % n, total, me.g.serialize)
    return rep


def antisymmetric_pair(me: ModelEngine, f: Callable[[int, int], UEA],
                       l: int, n: int) -> UEA:
    """(-1)^n f(l, n) E^n - (-1)^l f(n, l) E^l, the form in which every
    (l, n) congruence combination is assembled."""
    return sub(scale(sca((-1) ** n), me.g.mul(f(l, n), me.g.gen("E", n))),
               scale(sca((-1) ** l), me.g.mul(f(n, l), me.g.gen("E", l))))


def epsilon_ln(me: ModelEngine, cphi: List[UEA], l: int, n: int) -> UEA:
    """The mixed-difference combination for a pair (l, n), exactly.

    With cphi = to_phi(c) the phi-basis coefficients c_i of c, it is the
    antisymmetric pair of
    f(l, n) = sum_{i >= n} ad(E)^l(c_i) phi_{i-n}(l - n/2 - Ytilde).
    For members of the congruence algebra it reduces to zero modulo the
    nilradical left ideal; the (n, l) combination is its negative.  A
    caller asking for many pairs converts c once.
    """
    neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
    e_elt = me.named["E"]
    # phi_k(x - Ytilde) for every k either half of the pair reads
    phis = [substitute(me, phi_poly(k), neg_yt)
            for k in range(len(cphi) - min(l, n))]

    def f(l: int, n: int) -> UEA:
        acc: UEA = {}
        for i in range(n, len(cphi)):
            der = me.g.ad_power(e_elt, cphi[i], l)
            if der:
                acc = add(acc, me.g.mul(
                    der, phis[i - n].at(l - Fraction(n, 2))))
        return acc

    return antisymmetric_pair(me, f, l, n)
