import copy
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from f4workbench.balg import (
    append_power, check_b_membership, check_congruences, check_triangular,
    coefficients_m_invariant, congruence_residuals, default_nmax,
    discrete_derivative, epsilon_ln, phi_coeffs, phi_poly, shift_substitute,
    quotient_label, substitute, t_matrix_entry, to_phi,
)
from f4workbench.exactnum import ONE, add, sca, scale, sub
from f4workbench.liealg import LieAlgebra, _closure
from f4workbench.repth import m_generators
from f4workbench.uea import IwasawaElement, ONE_MONO


class CentralArg:
    """An argument s + T: a rational constant plus an element of g given
    in Chevalley coordinates, with its powers multiplied out one at a
    time."""

    def __init__(self, me, scalar, element=None):
        self.me = me
        base = {}
        if scalar:
            base[ONE_MONO] = sca(scalar)
        if element:
            base = add(base, me.g.from_lie(me.lie_in_mixed(element)))
        self.value = base
        self._powers = [me.g.one()]

    def power(self, i):
        while len(self._powers) <= i:
            self._powers.append(self.me.g.mul(self._powers[-1], self.value))
        return self._powers[i]


def evaluate_poly_oracle(me, p, arg):
    """sum_j p_j arg^j, coefficients on the left, each power of the
    argument multiplied out in full."""
    acc = {}
    for j, pj in enumerate(p.coeffs):
        if pj:
            acc = add(acc, me.g.mul(pj, arg.power(j)))
    return acc


def from_phi(cs):
    """sum_j cs[j] phi_j in the monomial basis."""
    out = [dict() for _ in range(len(cs))]
    for j, c in enumerate(cs):
        for i, s in enumerate(phi_coeffs(j)):
            if c and s:
                out[i] = add(out[i], scale(sca(s), c))
    return IwasawaElement(out).trim()


def shift_substitute_direct(me, b):
    """Independent route to shift_substitute: expand b(x + (H - 1))
    binomially."""
    m = b.degree
    h = me.model.distinguished["H"]
    arg = CentralArg(me, Fraction(-1), h)
    out = [dict() for _ in range(m + 1)]
    for j in range(m + 1):
        bj = b.coeff(j)
        if not bj:
            continue
        for i in range(j + 1):
            term = me.g.mul(scale(sca(comb(j, i)), bj),
                            arg.power(j - i))
            out[i] = add(out[i], term)
    return IwasawaElement(out).trim()


def x_poly(me, *coeff_specs):
    """The polynomial with the (label, scalar) coefficient specs."""
    coeffs = []
    for spec in coeff_specs:
        if spec is None:
            coeffs.append({})
        else:
            lab, c = spec
            if lab is None:
                coeffs.append(scale(sca(c), me.g.one()))
            else:
                coeffs.append(scale(sca(c), me.g.gen(lab)))
    return IwasawaElement(coeffs).trim()


class TestPhi:
    def test_phi_zero_one_two(self):
        assert phi_coeffs(0) == [1]
        assert phi_coeffs(1) == [0, 1]
        assert phi_coeffs(2) == [0, 0, Fraction(1, 2)]

    def test_vanishing_at_zero(self):
        for n in range(1, 9):
            assert phi_coeffs(n)[0] == 0
            assert phi_poly(n).at(0) == {}

    def test_difference_recursion(self, me):
        for n in range(1, 9):
            lhs = discrete_derivative(phi_poly(n), 1)
            assert lhs.coeffs == phi_poly(n - 1).coeffs

    def test_basis_roundtrip(self, me):
        rng = random.Random(13)
        for deg in range(0, 9):
            coeffs = [scale(sca(rng.randint(-4, 4)),
                                      me.g.gen(me.model.g_algebra.labels[
                                          rng.randrange(36)]))
                      for _ in range(deg + 1)]
            p = IwasawaElement(coeffs).trim()
            assert from_phi(to_phi(p)) == p


class TestDiscreteDerivative:
    def test_linear(self, me):
        p = IwasawaElement([{}, me.g.one()])
        assert discrete_derivative(p, 1).trim().coeffs == [me.g.one()]

    def test_power_full_derivative(self, me):
        for m in range(1, 6):
            p = IwasawaElement([{}] * m + [me.g.one()])
            d = discrete_derivative(p, m)
            assert d.trim().coeffs == [
                scale(sca(factorial(m)), me.g.one())]
            assert discrete_derivative(p, m + 1).degree == -1

    def test_iterated_equals_direct(self, me):
        rng = random.Random(17)
        coeffs = [scale(sca(rng.randint(-3, 3)), me.g.gen("Xdelta"))
                  for _ in range(5)]
        p = IwasawaElement(coeffs).trim()
        once = discrete_derivative(discrete_derivative(p, 1), 1)
        assert once.trim().coeffs == discrete_derivative(p, 2).trim().coeffs

    def test_commutes_with_derivations(self, me):
        # coefficient-wise derivations commute with taking differences
        rng = random.Random(19)
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        coeffs = [scale(sca(rng.randint(-3, 3)),
                                  me.g.gen(me.model.g_algebra.labels[
                                      rng.randrange(36)])) for _ in range(4)]
        p = IwasawaElement(coeffs).trim()
        for n in (1, 2):
            lhs = IwasawaElement([me.g.ad(e_elt, u) for u in
                                  discrete_derivative(p, n).coeffs])
            rhs = discrete_derivative(IwasawaElement(
                [me.g.ad(e_elt, u) for u in p.coeffs]), n)
            assert lhs.trim().coeffs == rhs.trim().coeffs


class TestShiftSubstitute:
    def test_constant(self, me):
        b = IwasawaElement([me.g.one()])
        c = shift_substitute(me, b)
        assert c.coeffs == [me.g.one()]

    def test_t0j_is_shift_power(self, me):
        h = me.model.distinguished["H"]
        arg = CentralArg(me, Fraction(-1), h)
        for j in range(5):
            assert t_matrix_entry(me, 0, j) == arg.power(j)

    def test_derived_identity(self, me):
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        for j in range(5):
            for i in range(j + 1):
                t = t_matrix_entry(me, i, j)
                d = me.g.ad_power(e_elt, t, j - i)
                scalef = Fraction((-1) ** (j - i) * factorial(j), 2 ** (j - i))
                expect = scale(sca(scalef), me.g.gen("E", j - i))
                assert d == expect

    def test_two_routes_agree(self, me, omega_report):
        b = omega_report.omega
        assert shift_substitute(me, b) == shift_substitute_direct(me, b)


class TestMembership:
    def test_scalars_pass(self, me):
        rep = check_b_membership(me, IwasawaElement([me.g.one()]), nmax=3)
        assert rep.passed

    def test_omega_passes(self, me, omega_report):
        rep = check_b_membership(me, omega_report.omega, nmax=6)
        assert rep.passed

    def test_raising_vector_fails(self, me):
        rep = check_b_membership(me, IwasawaElement([me.g.gen("E")]), nmax=2)
        assert not rep.passed

    def test_non_uk_coefficient_rejected(self, me):
        with pytest.raises(ValueError):
            check_b_membership(me, IwasawaElement([me.g.gen("Z")]), nmax=1)

    def test_default_nmax(self):
        assert default_nmax(2) == 6

    def test_products_of_members(self, me, omega_report):
        # the congruence set is closed under the tensor product
        om = omega_report.omega
        om2 = om.mul(om, me.g)
        for b in (om, om2):
            assert check_b_membership(me, b, nmax=6).passed

    def test_equivalence_with_triangular_sampled(self, me):
        # seeded degree <= 2 inputs: the direct congruences hold exactly
        # when the triangularized system does
        rng = random.Random(23)
        labels = ["Xdelta", "E", "X2", "T23", "S24", "Ht2", None]
        agree = disagree = 0
        passing = 0
        for _ in range(10):
            spec = []
            for _ in range(3):
                lab = labels[rng.randrange(len(labels))]
                spec.append((lab, rng.randint(-2, 2)))
            b = x_poly(me, *spec)
            nmax = default_nmax(max(b.degree, 0))
            direct = check_congruences(me, b, nmax).passed
            tri = check_triangular(me, shift_substitute(me, b)).passed
            if direct == tri:
                agree += 1
                passing += int(direct)
            else:
                disagree += 1
        assert disagree == 0
        assert agree == 10

    def test_triangular_constant(self, me):
        rep = check_triangular(me, IwasawaElement([me.g.one()]))
        assert rep.passed

    def test_triangular_top_equation(self, me):
        # a pure top-coefficient polynomial: the last equation is exactly
        # the (m+1)-fold derivation of the top coefficient
        c = from_phi([{}, {}, me.g.gen("Xm3")])
        rep = check_triangular(me, c)
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        want = not me.reduce_mod_mplus(
            me.g.ad_power(e_elt, me.g.gen("Xm3"), 3))
        assert (rep.checks[-1]["status"] == "pass") == want


class TestEpsilon:
    def test_diagonal_identically_zero(self, me, omega_report):
        c = to_phi(shift_substitute(me, omega_report.omega))
        for l in range(3):
            assert epsilon_ln(me, c, l, l) == {}

    def test_antisymmetry(self, me, omega_report):
        c = to_phi(shift_substitute(me, omega_report.omega))
        a = epsilon_ln(me, c, 1, 2)
        b = epsilon_ln(me, c, 2, 1)
        assert add(a, b) == {}

    def test_omega_reduces_to_zero(self, me, omega_report):
        c = to_phi(shift_substitute(me, omega_report.omega))
        for l in range(4):
            for n in range(4):
                assert me.reduce_mod_mplus(epsilon_ln(me, c, l, n)) == {}


class TestLeadingData:
    """The degree in x and the leading coefficient of members."""

    def test_omega(self, me, omega_report):
        om = omega_report.omega
        assert om.degree == 2 and om.coeff(2) == me.g.one()

    def test_z_degree_one(self, me):
        b = IwasawaElement([{}, me.g.one(), {}])
        assert b.degree == 1 and b.coeff(b.degree) == me.g.one()

    def test_omega_squared(self, me, omega_report):
        om2 = omega_report.omega.mul(omega_report.omega, me.g)
        assert om2.degree == 4 and om2.coeff(4) == me.g.one()

    def test_zero(self):
        assert IwasawaElement([{}, {}]).degree == -1


class TestRaisingIdentities:
    """The four derivation identities for powers of the torus arguments."""

    def test_e_on_h_powers(self, me):
        h = me.g.from_lie(me.named["H"])
        raiser = me.lie_in_mixed(me.model.distinguished["E"])
        for k in range(5):
            got = me.g.ad_power(raiser, me.g.power(h, k), k)
            expect = scale(
                sca(Fraction(factorial(k) * (-1) ** k, 2 ** k)),
                me.g.gen("E", k))
            assert got == expect
            if k:
                assert me.g.ad_power(raiser, me.g.power(h, k - 1), k) == {}

    def test_e_on_phi_of_h(self, me):
        h = me.g.from_lie(me.named["H"])
        raiser = me.lie_in_mixed(me.model.distinguished["E"])
        for k in range(5):
            val = substitute(me, phi_poly(k), h).at(0)
            got = me.g.ad_power(raiser, val, k)
            expect = scale(sca(Fraction((-1) ** k, 2 ** k)),
                           me.g.gen("E", k))
            assert got == expect

    def test_xdelta_on_ytilde_powers(self, me):
        neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
        raiser = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        xdelta = me.g.gen("Xdelta")
        for k in range(5):
            got = me.g.ad_power(raiser, me.g.power(neg_yt, k), k)
            expect = scale(sca(factorial(k) * (-1) ** k),
                                     me.g.power(xdelta, k))
            assert got == expect
            if k:
                assert me.g.ad_power(raiser, me.g.power(neg_yt, k - 1),
                                     k) == {}

    def test_xdelta_on_phi_of_shifted_ytilde(self, me):
        neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
        raiser = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        xdelta = me.g.gen("Xdelta")
        for a in (Fraction(0), Fraction(3), Fraction(-1, 2)):
            for k in range(5):
                val = substitute(me, phi_poly(k), neg_yt).at(a)
                got = me.g.ad_power(raiser, val, k)
                expect = scale(sca((-1) ** k),
                                         me.g.power(xdelta, k))
                assert got == expect


class TestHigherDifferenceVanishing:
    def test_on_omega(self, me, omega_report):
        # after the substitution, every coefficient dies under m+1
        # raisings; the original coefficients die under 2m+1-j raisings
        om = omega_report.omega
        m = om.degree
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        c = to_phi(shift_substitute(me, om))
        for j in range(m + 1):
            assert me.reduce_mod_mplus(
                me.g.ad_power(e_elt, c[j], m + 1)) == {}
        for j in range(m + 1):
            assert me.reduce_mod_mplus(
                me.g.ad_power(e_elt, om.coeff(j), 2 * m + 1 - j)) == {}


class TestSerialization:
    def test_iwasawa_roundtrip(self, me, omega_report):
        om = omega_report.omega
        data = om.serialize(me.g)
        back = IwasawaElement.deserialize(me.g, data)
        assert back.add(om.scale(-ONE)).degree == -1


def phi_substitute_oracle(me, b):
    """The phi-basis coefficients of b(x + H - 1), straight from the
    triangular matrix c_i = sum_{j >= i} b_j t_ij."""
    m = b.degree
    out = []
    for i in range(m + 1):
        acc = {}
        for j in range(i, m + 1):
            if b.coeff(j):
                acc = add(acc, me.g.mul(b.coeff(j), t_matrix_entry(me, i, j)))
        out.append(acc)
    return out


def epsilon_oracle(me, cphi, l, n):
    """The mixed-difference combination as two inline sums, one term at a
    time, on the phi-basis coefficients cphi."""
    neg_yt = scale(-ONE, me.model.distinguished["Ytilde"])
    e_elt = me.lie_in_mixed(me.model.distinguished["E"])
    acc = {}
    for i in range(n, len(cphi)):
        der = me.g.ad_power(e_elt, cphi[i], l) if cphi[i] else {}
        if der:
            arg = CentralArg(me, -Fraction(n, 2) + l, neg_yt)
            phi_at = evaluate_poly_oracle(me, phi_poly(i - n), arg)
            term = me.g.mul_many(der, phi_at,
                                 me.g.gen("E", n) if n else me.g.one())
            acc = add(acc, scale(sca((-1) ** n), term))
    for i in range(l, len(cphi)):
        der = me.g.ad_power(e_elt, cphi[i], n) if cphi[i] else {}
        if der:
            arg = CentralArg(me, -Fraction(l, 2) + n, neg_yt)
            phi_at = evaluate_poly_oracle(me, phi_poly(i - l), arg)
            term = me.g.mul_many(der, phi_at,
                                 me.g.gen("E", l) if l else me.g.one())
            acc = sub(acc, scale(sca((-1) ** l), term))
    return acc


class TestEpsilonOracle:
    """epsilon_ln through the shared pair helper against the inline sums,
    on a non-member where the residuals do not vanish."""

    def test_substitution_in_phi_basis(self, me, shifted_omega):
        assert to_phi(shift_substitute(me, shifted_omega)) == \
            phi_substitute_oracle(me, shifted_omega)

    def test_matches_inline_sums(self, me, shifted_omega):
        c = to_phi(shift_substitute(me, shifted_omega))
        cphi = phi_substitute_oracle(me, shifted_omega)
        nonzero = 0
        for l in range(4):
            for n in range(4):
                got = epsilon_ln(me, c, l, n)
                assert got == epsilon_oracle(me, cphi, l, n), (l, n)
                nonzero += bool(me.reduce_mod_mplus(got))
        assert nonzero == 2


# ---------------------------------------------------------------------------
# the quotient arithmetic against the full products
# ---------------------------------------------------------------------------


def congruence_residuals_oracle(me, b, nmax):
    """The residuals of E^n b(n - Y - 1) - b(-n - Y - 1) E^n for
    n = 1..nmax: both sides in full in U(g) for each n, each argument power
    formed afresh, and the difference reduced mod m+ at the end."""
    neg_y = scale(-ONE, me.model.distinguished["Y"])
    out = []
    for n in range(1, nmax + 1):
        left_arg = CentralArg(me, Fraction(n - 1), neg_y)
        right_arg = CentralArg(me, Fraction(-n - 1), neg_y)
        en = me.g.gen("E", n)
        lhs = me.g.mul(en, evaluate_poly_oracle(me, b, left_arg))
        rhs = me.g.mul(evaluate_poly_oracle(me, b, right_arg), en)
        out.append(me.reduce_mod_mplus(sub(lhs, rhs)))
    return out


def m_invariant_oracle(me, b):
    """Whether ad of each of the 21 basis vectors of m kills every
    coefficient."""
    mbasis = [me.lie_in_mixed(v) for v in me.model.subspaces["m"].rows()]
    return not any(me.g.ad(x, c) for c in b.coeffs if c for x in mbasis)


def triangular_oracle(me, c):
    """The triangular residuals with the E term multiplied in full and the
    sum reduced afterwards."""
    neg_yt = scale(-ONE, me.model.distinguished["Ytilde"])
    e_elt = me.lie_in_mixed(me.model.distinguished["E"])
    out = []
    for n in range(0, max(c.degree, 0) + 1):
        dn_e = [me.g.ad_power(e_elt, u, n + 1)
                for u in discrete_derivative(c, n).coeffs]
        dn1_e = [me.g.ad_power(e_elt, u, n)
                 for u in discrete_derivative(c, n + 1).coeffs]
        arg1 = CentralArg(me, Fraction(n, 2) + 1, neg_yt)
        arg2 = CentralArg(me, Fraction(n, 2) - Fraction(1, 2), neg_yt)
        second = evaluate_poly_oracle(me, IwasawaElement(dn1_e), arg2)
        total = add(evaluate_poly_oracle(me, IwasawaElement(dn_e), arg1),
                    me.g.mul(second, me.g.gen("E")))
        out.append(me.reduce_mod_mplus(total))
    return out


def z_shifted(me, b):
    """b with 1 added to its Z coefficient: not a member when b is."""
    coeffs = [dict(c) for c in b.coeffs]
    coeffs[1] = add(coeffs[1], me.g.one())
    return IwasawaElement(coeffs)


QUOTIENT_LABELS = ("X2", "T23", "S24", "D3", "Ht1", "Ht2", "E", "Xdelta")


def random_element(me, rng):
    """A polynomial of degree <= 3 whose coefficients are short sums of
    products of up to two QUOTIENT_LABELS, ideal labels among them."""
    coeffs = []
    for _ in range(rng.randint(1, 4)):
        c = {}
        for _ in range(rng.randint(0, 2)):
            term = me.g.one()
            for _ in range(rng.randint(0, 2)):
                term = me.g.mul(term, me.g.gen(rng.choice(QUOTIENT_LABELS)))
            c = add(c, scale(sca(rng.randint(-3, 3)), term))
        coeffs.append(c)
    return IwasawaElement(coeffs).trim()


class TestQuotientOracle:
    """congruence_residuals and the invariance test on the six generators
    against the full products and the 21 basis vectors of m."""

    def test_named_elements(self, me, omega_report):
        om = omega_report.omega
        om2 = om.mul(om, me.g)
        nonzero = []
        for b in (om, om2, z_shifted(me, om), z_shifted(me, om2)):
            nmax = default_nmax(b.degree)
            got = list(congruence_residuals(me, b, nmax))
            assert got == congruence_residuals_oracle(me, b, nmax)
            assert m_invariant_oracle(me, b)
            assert coefficients_m_invariant(me, b)
            nonzero.append(sum(1 for r in got if r))
        # the members pass every equation; the shifted controls fail some
        assert nonzero[:2] == [0, 0] and all(nonzero[2:])

    def test_seeded_random_elements(self, me):
        rng = random.Random(31)
        checked = failing = invariant = 0
        while checked < 32:
            b = random_element(me, rng)
            if b.degree < 0:
                continue
            checked += 1
            nmax = default_nmax(b.degree)
            got = list(congruence_residuals(me, b, nmax))
            assert got == congruence_residuals_oracle(me, b, nmax)
            inv = coefficients_m_invariant(me, b)
            assert inv == m_invariant_oracle(me, b)
            failing += any(got)
            invariant += inv
        # the family exercises nonzero residuals and both invariance answers
        assert failing >= 20 and 0 < invariant < checked

    def test_triangular_terms_reduced_first(self, me, shifted_omega):
        c = shift_substitute(me, shifted_omega)
        rep = check_triangular(me, c)
        want = triangular_oracle(me, c)
        assert any(want)
        for record, residual in zip(rep.checks, want):
            assert (record["status"] == "pass") == (not residual)
            if residual:
                assert record["witness"].startswith(
                    "%d residual monomials" % len(residual))
        assert len(rep.checks) == len(want)

    def test_m_generators_close_to_m(self, me):
        model = me.model
        gens = [model.k_element_in_g(g) for g in m_generators(me)]
        closure = _closure(model.algebra, gens)
        assert len(closure) == 21
        assert closure.rows() == model.subspaces["m"].rows()

    def test_e_must_centralize_mplus(self, me, omega_report):
        alg = me.g.algebra
        e, d3 = alg.index["E"], alg.index["D3"]
        table = dict(alg.table)
        table[(e, d3)] = {d3: ONE}
        doctored = copy.copy(me)
        doctored.g = copy.copy(me.g)
        doctored.g.algebra = LieAlgebra(alg.labels, table)
        with pytest.raises(ValueError, match="D3"):
            check_congruences(doctored, omega_report.omega, 2)
        with pytest.raises(ValueError, match="D3"):
            check_triangular(doctored, omega_report.omega)

    def test_e_must_precede_mplus(self, me, omega_report):
        doctored = copy.copy(me)
        doctored.mplus_start = me.mplus_start + 1
        with pytest.raises(ValueError, match="D2"):
            check_congruences(doctored, omega_report.omega, 2)


# ---------------------------------------------------------------------------
# the one substitution against the argument powers multiplied out
# ---------------------------------------------------------------------------


# each argument s + t as (constant part of t, name of the rest of t, sign)
ARGUMENTS = ((0, "Y", -1), (-1, "H", 1), (0, "Ytilde", -1), (2, "Xdelta", 1))


def substitution_family(me, omega):
    """omega, omega^2, both with 1 added to the Z coefficient, and 20
    seeded random elements."""
    om2 = omega.mul(omega, me.g)
    family = [omega, om2, z_shifted(me, omega), z_shifted(me, om2)]
    rng = random.Random(37)
    while len(family) < 24:
        b = random_element(me, rng)
        if b.degree >= 0:
            family.append(b)
    return family


class TestSubstituteOracle:
    """substitute(me, b, t).at(s) against sum_j b_j (s + t)^j with the
    powers of s + t multiplied out.  Xdelta + 2 does not commute with the
    coefficients, so a product taken in the wrong order shows."""

    def test_matches_multiplied_out_powers(self, me, omega_report):
        family = substitution_family(me, omega_report.omega)
        for const, name, sign in ARGUMENTS:
            elt = scale(sca(sign), me.model.distinguished[name])
            t = add(me.g.from_lie(me.lie_in_mixed(elt)),
                    scale(sca(const), me.g.one()))
            for b in family:
                c = substitute(me, b, t)
                assert c.degree == b.degree
                for s in (Fraction(0), Fraction(1), Fraction(3, 2),
                          Fraction(-2)):
                    want = evaluate_poly_oracle(
                        me, b, CentralArg(me, s + const, elt))
                    assert c.at(s) == want, (name, s)

    def test_shift_substitute_matches_phi_oracle(self, me, omega_report):
        for b in substitution_family(me, omega_report.omega):
            assert shift_substitute(me, b) == \
                from_phi(phi_substitute_oracle(me, b))


class TestAppendPower:
    """append_power(u, e, n) = u e^n with no straightening, for u with no
    label above e; a label above e is refused."""

    def test_matches_the_engine_product(self, me):
        e = quotient_label(me)
        u = {ONE_MONO: ONE, ((0, 1),): sca(2), ((0, 1), (e, 2)): sca(-3),
             ((e, 1),): sca(5)}
        got = append_power(u, e, 3)
        assert got == {((e, 3),): ONE, ((0, 1), (e, 3)): sca(2),
                       ((0, 1), (e, 5)): sca(-3), ((e, 4),): sca(5)}
        assert got == me.g.mul(u, me.g.gen("E", 3))

    def test_label_above_rejected(self, me):
        e = quotient_label(me)
        for m in (((e + 1, 1),), ((0, 2), (me.n_k - 1, 1))):
            with pytest.raises(ValueError, match="above"):
                append_power({ONE_MONO: ONE, m: ONE}, e, 1)
