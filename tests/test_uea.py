import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from f4workbench.exactnum import (Matrix, ONE, SQRT2, Scalar, ZERO, add,
                                  dual_basis, sca, scale, sub)
from f4workbench.liealg import LieAlgebra, chevalley_algebra
from f4workbench.repth import degree_machine
from f4workbench.rootdata import build_root_system, f4_satake_data, vec
from f4workbench.uea import (
    DEGREE_LIMIT, ONE_MONO, PBWEngine, _casimir_core, _casimir_element,
    _casimir_of, _casimir_tensor, invariants_up_to_degree, model_casimir_g,
    model_casimir_m, reduce_mod,
)


@pytest.fixture(scope="module")
def sl2():
    alg = chevalley_algebra(build_root_system([vec(1)]))
    return alg, PBWEngine(alg)


def _sl2_form(alg):
    kf = alg.killing_form()

    def fv(x, y):
        acc = ZERO
        for i, ci in x.items():
            for j, cj in y.items():
                if j in kf[i]:
                    acc = acc + ci * cj * kf[i][j]
        return acc

    return fv


def _sl2_casimir(alg, eng):
    """The Casimir of sl2 for its Killing form, read off its tensor."""
    basis = [{0: ONE}, {1: ONE}, {2: ONE}]
    pairs = zip(basis, dual_basis(basis, _sl2_form(alg), basis))
    return _casimir_element(eng, _casimir_tensor(eng, pairs))


def casimir_by_products(engine, basis, form, images):
    """sum_i x_i x^i over form-dual bases, one PBW product per basis
    vector; form pairs the images of the basis vectors.  The oracle for
    the Casimir read off its tensor."""
    out = {}
    for x, dual in zip(basis, dual_basis(basis, form, images)):
        out = add(out, engine.mul(engine.from_lie(x), engine.from_lie(dual)))
    return out


def k_simple_generators(me):
    names = [("Xphi2", "Xmphi2"), ("T34", "T43"), ("Xdelta2", "Xmdelta2"),
             ("X1", "Xm1")]
    out = []
    for p, m_ in names:
        out.append(me.lie_in_mixed(me.model.distinguished[p]))
        out.append(me.lie_in_mixed(me.model.distinguished[m_]))
    return out


def mixed_t_weights(me):
    _, split = f4_satake_data()
    lw = {i: me.model.k_t_weights[i][1:] for i in range(36)}
    lw[36] = (0, 0, 0)
    for idx, a in enumerate(split.p_plus):
        lw[37 + idx] = tuple(a[1:])
    return lw


def mono_degree(m):
    return sum(e for _, e in m)


def uea_degree(u):
    """Filtration degree; -1 for the zero element."""
    return max((mono_degree(m) for m in u), default=-1)


def ad_named(me, name, u):
    """ad of a distinguished vector of the model on u."""
    return me.g.ad(me.lie_in_mixed(me.model.distinguished[name]), u)


def ideal_components(u, suffix_start):
    """Split u = reduced + sum_k a_k X_k for the left ideal spanned by the
    labels from suffix_start on: the components a_k keyed by the terminal
    ideal generator X_k, and the normal form."""
    reduced = {}
    components = {}
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


class TestProduct:
    def test_sl2_commutator(self, sl2):
        alg, eng = sl2
        e, f, h = eng.gen("x[1]"), eng.gen("x[-1]"), eng.gen("h1")
        assert eng.mul(e, f) == add(eng.mul(f, e), h)

    def test_unit(self, sl2):
        _, eng = sl2
        x = eng.gen("x[1]", 3)
        assert eng.mul(x, eng.one()) == x
        assert eng.mul(eng.one(), x) == x

    def test_zeroth_power_is_the_unit(self, me):
        # the zeroth power is 1, not a monomial with exponent 0
        assert me.g.gen("E", 0) == me.g.one()
        assert me.g.serialize(me.g.gen("E", 0)) == [
            {"exponents": {}, "coeff": ONE.to_string()}]
        x = me.g.gen("Xdelta", 2)
        assert me.g.mul(x, me.g.gen("E", 0)) == x
        with pytest.raises(KeyError):
            me.g.gen("nope", 0)

    def test_associativity_sampled(self, me):
        rng = random.Random(2)
        for _ in range(12):
            us = []
            for _ in range(3):
                m = rng.randint(1, 2)
                u = me.g.one()
                for _ in range(m):
                    u = me.g.mul(u, {((rng.randrange(52), 1),): ONE})
                us.append(u)
            u, v, w = us
            assert me.g.mul(me.g.mul(u, v), w) == me.g.mul(u, me.g.mul(v, w))

    def test_extends_bracket(self, me):
        rng = random.Random(3)
        alg = me.model.g_algebra
        for _ in range(20):
            i, j = rng.randrange(52), rng.randrange(52)
            xy = me.g.mul(me.g.gen(alg.labels[i]), me.g.gen(alg.labels[j]))
            yx = me.g.mul(me.g.gen(alg.labels[j]), me.g.gen(alg.labels[i]))
            br = alg.bracket_basis(i, j)
            assert sub(xy, yx) == me.g.from_lie(br)


class TestDerivation:
    def test_named_identities(self, me):
        d = me.named
        yt = me.g.from_lie(d["Ytilde"])
        assert ad_named(me, "E", yt) == me.g.from_lie(d["E"])
        assert ad_named(me, "Xdelta", yt) == me.g.from_lie(d["Xdelta"])

    def test_kills_unit(self, me):
        assert ad_named(me, "E", me.g.one()) == {}

    def test_leibniz_sampled(self, me):
        rng = random.Random(4)
        for _ in range(10):
            x = {rng.randrange(36): ONE}
            u = {((rng.randrange(36), 1), ): ONE}
            v = {((rng.randrange(36), 2), ): ONE}
            uv = me.g.mul(u, v)
            lhs = me.g.ad(x, uv)
            rhs = add(me.g.mul(me.g.ad(x, u), v),
                                me.g.mul(u, me.g.ad(x, v)))
            assert lhs == rhs

    def test_commutator_of_derivations(self, me):
        rng = random.Random(5)
        alg = me.model.g_algebra
        for _ in range(8):
            i, j = rng.randrange(52), rng.randrange(52)
            u = me.g.mul({((rng.randrange(52), 1),): ONE},
                         {((rng.randrange(52), 1),): ONE})
            x, y = {i: ONE}, {j: ONE}
            lhs = sub(me.g.ad(x, me.g.ad(y, u)),
                                me.g.ad(y, me.g.ad(x, u)))
            rhs = me.g.ad(alg.bracket(x, y), u)
            assert lhs == rhs


class TestNamedVectors:
    """ModelEngine.named against converting each Chevalley vector anew,
    and the relations verify_model checks on the Chevalley table, here on
    the mixed one."""

    def test_named_is_the_conversion(self, me):
        assert len(me.model.distinguished) == 48
        assert me.named.keys() == me.model.distinguished.keys()
        for name, x in me.model.distinguished.items():
            assert me.named[name] == me.lie_in_mixed(x), name

    @pytest.mark.parametrize("x, y, c, z", [
        ("X1", "X2", 1, "E"), ("X1", "E", 1, "X4"), ("Xm1", "E", 2, "X2"),
        ("H", "E", Fraction(1, 2), "E"), ("E", "Ytilde", 1, "E"),
        ("Xdelta", "Ytilde", 1, "Xdelta"), ("E", "Y", Fraction(3, 2), "E"),
    ], ids=str)
    def test_relations_on_the_mixed_table(self, me, x, y, c, z):
        d = me.named
        assert me.model.g_algebra.bracket(d[x], d[y]) == scale(sca(c), d[z])


class TestIdealNormalForm:
    def test_member_reduces_to_zero(self, me):
        u = me.g.mul(me.g.gen("E", 2), me.g.gen("S23"))
        assert reduce_mod(u, me.mplus_start) == {}
        assert reduce_mod(u, me.y_start) == {}

    def test_no_support_untouched(self, me):
        u = me.g.mul(me.g.gen("Xm1"), me.g.gen("E"))
        assert reduce_mod(u, me.mplus_start) == u

    def test_idempotent(self, me):
        rng = random.Random(6)
        for _ in range(6):
            u = me.g.one()
            for _ in range(3):
                u = me.g.mul(u, {((rng.randrange(36), 1),): ONE})
            r = reduce_mod(u, me.mplus_start)
            assert reduce_mod(r, me.mplus_start) == r

    def test_triangular_support_condition(self, me):
        # components a_k may mention only labels up to their own generator
        rng = random.Random(7)
        for _ in range(6):
            u = me.g.one()
            for _ in range(3):
                u = me.g.mul(u, {((rng.randrange(30, 36), 1),): ONE})
            comps, red = ideal_components(u, me.mplus_start)
            assert red == reduce_mod(u, me.mplus_start)
            recon = dict(red)
            for g, a in comps.items():
                for m in a:
                    assert all(i <= g for i, _ in m)
                recon = add(recon, me.g.mul(a, {((g, 1),): ONE}))
            # each monomial of a_k * X_k is already normal, so this reassembles u
            assert recon == u

    def test_lowering_cancellation_sampled(self, me):
        # ad(E) kills the abelian ideal, so u E^n lies in the left ideal
        # exactly when u does
        rng = random.Random(8)
        en = me.g.gen("E", 2)
        for _ in range(5):
            u = me.g.one()
            for _ in range(2):
                u = me.g.mul(u, {((rng.randrange(36), 1),): ONE})
            ue = me.g.mul(u, en)
            assert (not reduce_mod(ue, me.y_start)) == \
                (not reduce_mod(u, me.y_start))


class TestIwasawaProjection:
    def test_kills_nilpotent_labels(self, me):
        for lab in me.model.g_algebra.labels[37:42]:
            assert me.iwasawa_project(me.g.gen(lab)).degree == -1

    def test_identity_on_polynomial_part(self, me):
        u = me.g.gen("Z", 2)
        p = me.iwasawa_project(u)
        assert p.degree == 2 and p.coeff(2) == {ONE_MONO: ONE}
        v = me.g.mul(me.g.gen("X1"), me.g.gen("Z"))
        p2 = me.iwasawa_project(v)
        assert p2.coeff(1) == me.g.gen("X1")

    def test_filtration_bound_sampled(self, me):
        rng = random.Random(9)
        for _ in range(10):
            m = rng.randint(1, 3)
            u = me.g.one()
            for _ in range(m):
                u = me.g.mul(u, {((rng.randrange(52), 1),): ONE})
            p = me.iwasawa_project(u)
            assert p.degree <= m
            for l, c in enumerate(p.coeffs):
                if c:
                    assert uea_degree(c) <= m - l
                    assert me.k_only(c)


class TestCasimir:
    def test_sl2_central(self, sl2):
        alg, eng = sl2
        om = _sl2_casimir(alg, eng)
        for i in range(3):
            assert eng.ad({i: ONE}, om) == {}

    def test_dual_basis_pairing(self, sl2):
        alg, eng = sl2
        fv = _sl2_form(alg)
        basis = [{0: ONE}, {1: ONE}, {2: ONE}]
        gram = Matrix([[fv(x, y) for y in basis] for x in basis])
        for i in range(3):
            rhs = [ONE if k == i else ZERO for k in range(3)]
            coords = gram.solve(rhs)
            dual = {}
            for c, b in zip(coords, basis):
                dual = add(dual, scale(c, b))
            for j in range(3):
                assert fv(basis[j], dual) == (ONE if i == j else ZERO)

    def test_f4_casimir_invariant(self, me):
        om = model_casimir_g(me)
        assert ad_named(me, "E", om) == {}
        assert ad_named(me, "Xm1", om) == {}
        assert me.g.ad({36: ONE}, om) == {}   # the torus generator too

    def test_centralizer_casimir_in_uk(self, me):
        cm = model_casimir_m(me)
        assert me.k_only(cm)
        for v in me.model.subspaces["m"].rows():
            assert me.g.ad(me.lie_in_mixed(v), cm) == {}


class TestCasimirElement:
    """The Casimir read off its triangular tensor, sum_h Y_h e'_h - r,
    against the products oracle, on another basis: the Chevalley basis
    for g, the rows of k and of m for k and m."""

    def test_sl2(self, sl2):
        alg, eng = sl2
        # h, e + f, e - f
        basis = [{0: ONE}, {1: ONE, 2: ONE}, {1: ONE, 2: -ONE}]
        assert _sl2_casimir(alg, eng) == \
            casimir_by_products(eng, basis, _sl2_form(alg), basis)

    @pytest.mark.parametrize("space, dim", [("g", 52), ("m", 21), ("k", 36)])
    def test_f4(self, me, space, dim):
        model = me.model
        if space == "g":
            rows = [{i: ONE} for i in range(model.algebra.dim)]
            got = model_casimir_g(me)
        elif space == "m":
            rows = model.subspaces["m"].rows()
            got = model_casimir_m(me)
        else:
            # the tensor casimir_apply acts by, on the mixed unit vectors
            rows = model.subspaces["k"].rows()
            got = _casimir_element(
                me.g, _casimir_of(me, [{i: ONE} for i in range(36)]))
        assert len(rows) == dim
        want = casimir_by_products(
            me.g, [me.lie_in_mixed(x) for x in rows], model.b, rows)
        assert got and got == want


class TestOmega:
    def test_shape(self, omega_report):
        om = omega_report.omega
        assert om.degree == 2
        assert om.coeff(2) == {ONE_MONO: ONE}
        assert omega_report.omega1_scalar
        assert omega_report.omega1_scalar.is_rational()

    def test_omega0_is_centralizer_casimir_multiple(self, me, omega_report):
        cm = model_casimir_m(me)
        w0 = omega_report.omega.coeff(0)
        expect = add(
            scale(omega_report.casimir_m_coeff, cm),
            scale(omega_report.constant_coeff, me.g.one()))
        assert w0 == expect
        assert omega_report.casimir_m_coeff != ZERO

    def test_scalars_match_dense_solve(self, me, omega_report):
        # w0 = s Cas(m) + t 1, solved densely over the monomials
        w0 = omega_report.omega.coeff(0)
        cm = model_casimir_m(me)
        monos = sorted(set(w0) | set(cm) | {ONE_MONO})
        a = Matrix([[cm.get(m, ZERO), ONE if m == ONE_MONO else ZERO]
                    for m in monos])
        sol = a.solve([w0.get(m, ZERO) for m in monos])
        assert sol == [omega_report.casimir_m_coeff,
                       omega_report.constant_coeff]

    def test_omega0_m_invariant(self, me, omega_report):
        w0 = omega_report.omega.coeff(0)
        for v in me.model.subspaces["m"].rows():
            assert me.g.ad(me.lie_in_mixed(v), w0) == {}


def fraction_weight_zero_monomials(n, max_degree, label_weights):
    """The PBW monomials of degree <= max_degree in the labels below n
    whose weight, summed in Fractions, is zero, in sorted order: the
    filter invariants_up_to_degree ran before it scaled the weights to
    integers."""
    monos = set()
    for d in range(max_degree + 1):
        for letters in itertools.combinations_with_replacement(range(n), d):
            monos.add(tuple((g, letters.count(g))
                            for g in sorted(set(letters))))
    width = len(next(iter(label_weights.values())))

    def weight(m):
        acc = [Fraction(0)] * width
        for i, e in m:
            for j in range(width):
                acc[j] += e * Fraction(label_weights[i][j])
        return acc

    return [m for m in sorted(monos) if not any(weight(m))]


class TestInvariants:
    @pytest.mark.parametrize("weights, limit, max_degree", [
        ("k", 36, 1), ("k", 36, 2), ("k", 36, 3), ("mixed", None, 2)])
    def test_weight_filter_matches_fractions(self, me, weights, limit,
                                             max_degree):
        # with no generators the kernel is every monomial the filter keeps
        lw = (mixed_t_weights(me) if weights == "mixed"
              else {i: me.model.k_t_weights[i][1:] for i in range(36)})
        got = invariants_up_to_degree(me.g, [], max_degree, label_weights=lw,
                                      label_limit=limit)
        assert all(list(u.values()) == [ONE] for u in got)
        assert [next(iter(u)) for u in got] == \
            fraction_weight_zero_monomials(limit or 52, max_degree, lw)

    def test_sl2_degree2(self, sl2):
        alg, eng = sl2
        gens = [{0: ONE}, {1: ONE}, {2: ONE}]
        inv = invariants_up_to_degree(eng, gens, 2)
        assert len(inv) == 2   # span{1, Casimir}
        om = _sl2_casimir(alg, eng)
        monos = sorted({m for u in inv for m in u} | set(om))
        mat = Matrix([[u.get(m, ZERO) for u in inv] for m in monos])
        assert mat.solve([om.get(m, ZERO) for m in monos]) is not None

    def test_degree_zero(self, sl2):
        _, eng = sl2
        inv = invariants_up_to_degree(eng, [{0: ONE}, {1: ONE}, {2: ONE}], 0)
        assert len(inv) == 1 and inv[0] == eng.one()

    def test_f4_k_invariants(self, me):
        gens = k_simple_generators(me)
        inv = invariants_up_to_degree(me.g, gens, 2,
                                      label_weights=mixed_t_weights(me))
        assert len(inv) == 3
        for u in inv:
            for i in range(36):
                assert me.g.ad({i: ONE}, u) == {}
        om = model_casimir_g(me)
        monos = sorted({m for u in inv for m in u} | set(om) | {ONE_MONO})
        mat = Matrix([[u.get(m, ZERO) for u in inv] for m in monos])
        assert mat.solve([om.get(m, ZERO) for m in monos]) is not None
        assert mat.solve([ONE if m == ONE_MONO else ZERO for m in monos]) is not None

    def test_antihomomorphism(self, me):
        gens = k_simple_generators(me)
        inv = invariants_up_to_degree(me.g, gens, 2,
                                      label_weights=mixed_t_weights(me))
        for u in inv:
            for v in inv:
                lhs = me.iwasawa_project(me.g.mul(u, v))
                rhs = me.iwasawa_project(v).mul(me.iwasawa_project(u), me.g)
                assert lhs.add(rhs.scale(-ONE)).degree == -1


class TestEvenOddSplit:
    def test_delta_congruence(self, me):
        # (-1)^j Delta^j = E^{2j} modulo the abelian-ideal left ideal
        delta = sub(
            scale(sca(2), me.g.mul(me.g.from_lie(me.named["X4"]),
                                   me.g.gen("X2"))),
            me.g.gen("E", 2))
        for j in range(4):
            lhs = scale(sca((-1) ** j), me.g.power(delta, j))
            rhs = me.g.gen("E", 2 * j) if j else me.g.one()
            assert reduce_mod(sub(lhs, rhs), me.y_start) == {}

    def test_delta_is_x1_invariant(self, me):
        delta = sub(
            scale(sca(2), me.g.mul(me.g.from_lie(me.named["X4"]),
                                   me.g.gen("X2"))),
            me.g.gen("E", 2))
        assert ad_named(me, "X1", delta) == {}

    def test_even_odd_parts_vanish(self, me):
        # eta_0 = Delta, eta_1 = Delta, eta_2 = 1, eta_3 = 1: the full sum lies
        # in the ideal and each parity part reduces to zero separately
        delta = sub(
            scale(sca(2), me.g.mul(me.g.from_lie(me.named["X4"]),
                                   me.g.gen("X2"))),
            me.g.gen("E", 2))
        e = me.g.gen("E")
        etas = [delta, delta, me.g.one(), me.g.one()]
        total = me.g.zero()
        even = me.g.zero()
        odd = me.g.zero()
        for j, eta in enumerate(etas):
            term = me.g.mul(eta, me.g.gen("E", j) if j else me.g.one())
            total = add(total, term)
            if j % 2 == 0:
                even = add(even, term)
            else:
                odd = add(odd, term)
        assert reduce_mod(total, me.y_start) == {}
        assert reduce_mod(even, me.y_start) == {}
        assert reduce_mod(odd, me.y_start) == {}

    def test_sum_decomposition_sampled(self, me):
        # u0 + u1 E in the ideal with both annihilated by the raising
        # derivation forces both congruent to zero
        x4 = me.g.from_lie(me.named["X4"])
        xd = me.g.from_lie(me.named["Xdelta"])
        delta = sub(scale(sca(2), me.g.mul(x4, me.g.gen("X2"))),
                              me.g.gen("E", 2))
        rng = random.Random(11)
        family = [me.g.one(), xd, x4, delta, me.g.gen("S23"), me.g.gen("S24"),
                  me.g.mul(xd, me.g.gen("S24")), me.g.mul(x4, me.g.gen("S23"))]
        hits = 0
        for _ in range(25):
            u0 = me.g.zero()
            u1 = me.g.zero()
            for _ in range(2):
                u0 = add(u0, scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
                u1 = add(u1, scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
            assert ad_named(me, "X1", u0) == {}
            assert ad_named(me, "X1", u1) == {}
            s = add(u0, me.g.mul(u1, me.g.gen("E")))
            if reduce_mod(s, me.y_start):
                continue
            hits += 1
            assert reduce_mod(u0, me.y_start) == {}
            assert reduce_mod(u1, me.y_start) == {}
        assert hits >= 3   # the sample family produces nonvacuous instances


# ---------------------------------------------------------------------------
# The Scalar straightening the integer core replaced, kept as an oracle
# ---------------------------------------------------------------------------


def mono_mul_free(m1, m2):
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


def _acc(out, mono, c):
    s = out.get(mono, ZERO) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


class ScalarPBW:
    """PBW straightening with {monomial: Scalar} memo tables on the
    original basis: the engine as it was before the rescaled integer core."""

    def __init__(self, algebra):
        self._memo = {}
        self._memo_left = {}
        self._brackets = {}
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                t = algebra.bracket_basis(i, j)
                if t:
                    self._brackets[(i, j)] = tuple(t.items())

    def _mono_times_gen(self, m, g):
        if not m or m[-1][0] < g:
            return {m + ((g, 1),): ONE}
        last, p = m[-1]
        if last == g:
            return {m[:-1] + ((g, p + 1),): ONE}
        key = (m, g)
        if key in self._memo:
            return self._memo[key]
        head = m[:-1] + ((last, p - 1),) if p > 1 else m[:-1]
        out = {}
        for mono, c in self._mono_times_gen(head, g).items():
            for mono2, c2 in self._mono_times_gen(mono, last).items():
                _acc(out, mono2, c * c2)
        for k, c in self._brackets.get((last, g), ()):
            for mono2, c2 in self._mono_times_gen(head, k).items():
                _acc(out, mono2, c * c2)
        self._memo[key] = out
        return out

    def _gen_times_mono(self, g, m):
        if not m or g < m[0][0]:
            return {((g, 1),) + m: ONE}
        first, p = m[0]
        if first == g:
            return {((g, p + 1),) + m[1:]: ONE}
        key = (g, m)
        if key in self._memo_left:
            return self._memo_left[key]
        tail = ((first, p - 1),) + m[1:] if p > 1 else m[1:]
        out = {}
        for mono, c in self._gen_times_mono(g, tail).items():
            for mono2, c2 in self._gen_times_mono(first, mono).items():
                _acc(out, mono2, c * c2)
        for k, c in self._brackets.get((g, first), ()):
            for mono2, c2 in self._gen_times_mono(k, tail).items():
                _acc(out, mono2, c * c2)
        self._memo_left[key] = out
        return out

    def mono_mul(self, m1, m2):
        free = mono_mul_free(m1, m2)
        if free is not None:
            return {free: ONE}
        cur = {m1: ONE}
        for g, p in m2:
            for _ in range(p):
                nxt = {}
                for mono, c in cur.items():
                    for mono2, c2 in self._mono_times_gen(mono, g).items():
                        _acc(nxt, mono2, c * c2)
                cur = nxt
        return cur

    def mul(self, u, v):
        out = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                for m, cm in self.mono_mul(m1, m2).items():
                    _acc(out, m, c1 * c2 * cm)
        return out

    def ad(self, x, u):
        out = {}
        for g, cg in x.items():
            for m, c in u.items():
                for mono, c2 in self._gen_times_mono(g, m).items():
                    _acc(out, mono, cg * c * c2)
                for mono, c2 in self._mono_times_gen(m, g).items():
                    _acc(out, mono, -(cg * c * c2))
        return out


@pytest.fixture(scope="module")
def oracle(me):
    return ScalarPBW(me.model.g_algebra)


def _mono(labels):
    return tuple(sorted(Counter(labels).items()))


# coefficients a + b sqrt2 with both parts present in most draws
_coeffs = st.builds(Scalar, st.integers(-9, 9), st.integers(-9, 9),
                    st.integers(1, 8)).filter(bool)


def _elements(max_degree, max_terms=3):
    monos = st.lists(st.integers(0, 51), max_size=max_degree).map(_mono)
    return st.dictionaries(monos, _coeffs, max_size=max_terms)


_lie = st.dictionaries(st.integers(0, 51), _coeffs, min_size=1, max_size=3)


class TestIntegerCore:
    @given(_elements(4), _elements(4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mul_matches_oracle(self, me, oracle, u, v):
        assert me.g.mul(u, v) == oracle.mul(u, v)
        for m1 in u:
            for m2 in v:
                assert me.g.mul({m1: ONE}, {m2: ONE}) == \
                    oracle.mono_mul(m1, m2)

    @given(_lie, _elements(4))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_ad_matches_oracle(self, me, oracle, x, u):
        assert me.g.ad(x, u) == oracle.ad(x, u)

    @given(_elements(2), _elements(2), _elements(2))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_associativity(self, me, u, v, w):
        assert me.g.mul(me.g.mul(u, v), w) == me.g.mul(u, me.g.mul(v, w))

    @given(_lie, _elements(4), _elements(4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_ad_is_a_derivation(self, me, x, u, v):
        lhs = me.g.ad(x, me.g.mul(u, v))
        rhs = add(me.g.mul(me.g.ad(x, u), v),
                            me.g.mul(u, me.g.ad(x, v)))
        assert lhs == rhs

    @given(_elements(4, max_terms=8))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_core_roundtrip(self, me, u):
        core_p, core_q, den = me.g.to_core(u)
        assert den > 0
        assert all(type(c) is int for c in (*core_p.values(),
                                            *core_q.values()))
        assert me.g.from_core(core_p, core_q, den) == u

    @given(_elements(3, max_terms=2))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_casimir_apply_matches_oracle(self, me, oracle, u):
        from f4workbench.repth import degree_machine
        model = me.model
        kb = [{i: ONE} for i in range(36)]

        def fv(x, y):
            return model.b(model.in_chevalley(x), model.in_chevalley(y))

        want = {}
        for x, xd in zip(kb, dual_basis(kb, fv, kb)):
            want = add(want, oracle.ad(x, oracle.ad(xd, u)))
        assert degree_machine(me).casimir_apply(u) == want

    def test_memo_tables_hold_integers(self, me):
        # a fresh engine, so that the tables hold what this test fills
        # whatever ran before it
        eng = PBWEngine(me.model.g_algebra)
        u = eng.mul(eng.gen("X1", 2), eng.mul(eng.gen("Xm1"), eng.gen("E")))
        assert u
        assert eng.ad({eng.algebra.index["Xm1"]: ONE}, u)
        for tables in (eng._memo, eng._memo_left):
            assert tables
            assert len(tables) == sum(len(t) for t in tables)
            assert all(type(c) is int for table in tables
                       for out in table.values() for c in out.values())


def _bracket_cases():
    """(g, m) over all 52 labels g: m = (), then monomials of degree 1 to 5
    with g below, among and above their labels, and with exponents >= 2."""
    rng = random.Random(20240806)

    def mono(pool, deg, min_exp=1):
        labels = rng.sample(pool, min(len(pool),
                                      rng.randint(1, min(3, deg // min_exp))))
        exps = [min_exp] * len(labels)
        while sum(exps) < deg:
            exps[rng.randrange(len(exps))] += 1
        return tuple(sorted(zip(labels, exps)))

    cases = []
    for g in range(52):
        cases.append((g, ONE_MONO))
        below, above = list(range(g + 1, 52)), list(range(g))
        among = list(range(52))
        for deg in range(1, 6):
            if below:
                cases.append((g, mono(below, deg)))
            if above:
                cases.append((g, mono(above, deg)))
            m = dict(mono(among, deg - 1)) if deg > 1 else {}
            m[g] = m.get(g, 0) + 1
            cases.append((g, tuple(sorted(m.items()))))
        cases.append((g, mono(among, 5, min_exp=2)))
    return cases


def _key(eng, m):
    """The core key of the monomial m, read off to_core."""
    core_p, core_q, _ = eng.to_core({m: ONE})
    (key,) = {**core_p, **core_q}
    return key


def _mono_of(eng, key):
    """The monomial of a core key, read off from_core."""
    (m,) = eng.from_core({key: 1}, {}, 1)
    return m


class TestPackedCore:
    """Core monomials are packed ints, one byte per label; a degree that
    could carry into the next byte is refused before packing."""

    def test_keys_pack_one_byte_per_label(self, me):
        m = ((0, 2), (26, 1), (51, 200))
        core_p, core_q, den = me.g.to_core({m: ONE})
        assert set(core_p) | set(core_q) == {2 + (1 << 208) + (200 << 408)}
        assert me.g.from_core(core_p, core_q, den) == {m: ONE}

    def test_negative_power_rejected(self, me):
        with pytest.raises(ValueError):
            me.g.gen("E", -1)
        with pytest.raises(ValueError):
            me.g.to_core({((26, -1),): ONE})

    def test_degree_limit(self, me):
        eng = me.g
        top = eng.gen("E", DEGREE_LIMIT - 1)
        assert eng.mul(eng.gen("E", DEGREE_LIMIT - 2), eng.gen("E")) == top
        assert eng.from_core(*eng.to_core(top)) == top
        # E^255 E would carry into the field of the next label
        with pytest.raises(ValueError):
            eng.mul(top, eng.gen("E"))
        with pytest.raises(ValueError):
            eng.mul({((26, 200),): ONE}, {((1, 56),): ONE})
        with pytest.raises(ValueError):
            eng.to_core(eng.gen("E", DEGREE_LIMIT))
        with pytest.raises(ValueError):
            eng.to_core({((0, 128), (26, 128)): ONE})


class TestBracketTable:
    """The memoized brackets [e'_g, e'^m] against the oracle's left and
    right products."""

    @pytest.fixture(scope="class")
    def fresh(self, me):
        return PBWEngine(me.model.g_algebra)

    def test_cases_cover_the_orders(self):
        cases = _bracket_cases()
        assert {g for g, _ in cases} == set(range(52))
        assert {mono_degree(m) for _, m in cases} == set(range(6))
        assert any(m and m[0][0] > g for g, m in cases)
        assert any(m and m[-1][0] < g for g, m in cases)
        assert any(g in dict(m) for g, m in cases)
        assert any(e >= 2 for _, m in cases for _, e in m)

    def test_ad_matches_oracle(self, fresh, oracle):
        for g, m in _bracket_cases():
            assert fresh.ad({g: ONE}, {m: ONE}) == \
                oracle.ad({g: ONE}, {m: ONE}), (g, m)

    def test_brackets_do_not_raise_degree(self, fresh):
        for g, m in _bracket_cases():
            fresh.ad({g: ONE}, {m: ONE})
        assert fresh._memo_left
        for g, table in enumerate(fresh._memo_left):
            for m, out in table.items():
                assert uea_degree(fresh.from_core(out, {}, 1)) <= \
                    mono_degree(_mono_of(fresh, m)), (g, m)
                assert all(type(c) is int for c in out.values())

    def test_bracket_is_a_commutator(self, fresh):
        for g, m in _bracket_cases()[::7]:
            key, gen = _key(fresh, m), _key(fresh, ((g, 1),))
            gm = fresh._mono_mul_core(gen, key)
            for mono, c in fresh._mono_mul_core(key, gen).items():
                gm[mono] = gm.get(mono, 0) - c
            assert {k: c for k, c in gm.items() if c} == \
                fresh._bracket(g, key), (g, m)


class TestCasimirTriangular:
    """The Casimir tensor in triangular form, sum_h ad(Y_h) ad(e'_h) - ad(r),
    against the pair sum sum_i ad(x_i) ad(x^i)."""

    @staticmethod
    def _pair_sum(ad, pairs, u):
        out = {}
        for x, xd in pairs:
            out = add(out, ad(x, ad(xd, u)))
        return out

    def test_sl2_by_hand(self, sl2):
        alg, eng = sl2
        basis = [{0: ONE}, {1: ONE}, {2: ONE}]          # h, e, f
        pairs = list(zip(basis, dual_basis(basis, _sl2_form(alg), basis)))
        inner, shift, den = _casimir_tensor(eng, pairs)
        # the form has (h, h) = 8 and (e, f) = 4, so the tensor is
        # (h h + 2 e f + 2 f e) / 8: Y_h = h, Y_f = 4 e, r = 2 [e, f] = 2 h
        assert den == 8
        assert inner == [(0, {0: 1}), (2, {1: 4})]
        assert shift == {0: 2}
        for a, b, c in itertools.product(range(4), repeat=3):
            # e^a f^b h^c, in PBW order h < e < f
            m = tuple((i, p) for i, p in ((0, c), (1, a), (2, b)) if p)
            got = eng.from_core(
                _casimir_core(eng, inner, shift, {_key(eng, m): 1}), {}, den)
            assert got == self._pair_sum(eng.ad, pairs, {m: ONE}), (a, b, c)

    def test_asymmetric_tensor_rejected(self, sl2):
        _, eng = sl2
        with pytest.raises(ValueError):
            _casimir_tensor(eng, [({1: ONE}, {2: ONE})])

    def test_f4_krylov_vectors_match_pair_sum(self, me, oracle, omega_report):
        model = me.model
        kb = [{i: ONE} for i in range(36)]

        def fv(x, y):
            return model.b(model.in_chevalley(x), model.in_chevalley(y))

        pairs = list(zip(kb, dual_basis(kb, fv, kb)))
        dm = degree_machine(me)
        for u in (model_casimir_m(me), omega_report.omega.coeff(0)):
            comps = dm.components(u)
            vectors = [u]
            while len(vectors) < len(comps):
                vectors.append(dm.casimir_apply(vectors[-1]))
            for v in vectors:
                assert dm.casimir_apply(v) == \
                    self._pair_sum(oracle.ad, pairs, v)


class TestRescaling:
    def test_sl2_needs_no_rescaling(self, sl2):
        _, eng = sl2
        assert eng.parity == [0, 0, 0]
        assert eng.scale_l == 1

    def test_mixed_constant_rejected(self):
        alg = LieAlgebra(["a", "b"], {(0, 1): {1: Scalar(1, 1)}})
        with pytest.raises(ValueError):
            PBWEngine(alg)

    def test_unsolvable_parities_rejected(self):
        # s_a + s_b + s_c would have to be both even and odd
        alg = LieAlgebra(["a", "b", "c"], {(0, 1): {2: ONE},
                                           (0, 2): {1: SQRT2}})
        with pytest.raises(ValueError):
            PBWEngine(alg)

    def test_f4_constants_are_integers(self, me):
        alg, eng = me.model.g_algebra, me.g
        s, big_l = eng.parity, eng.scale_l
        assert big_l == 8
        assert any(s)
        for i in range(alg.dim):
            for j in range(alg.dim):
                want = alg.bracket_basis(i, j)
                got = dict(eng._brackets.get((i, j), ()))
                assert set(got) == set(want)
                for k, c in want.items():
                    assert type(got[k]) is int
                    # [e'_i, e'_j] = L sqrt2^{s_i + s_j - s_k} c e'_k
                    assert sca(got[k]) == sca(big_l) * c * \
                        SQRT2 ** (s[i] + s[j] - s[k])


class TestCopies:
    """Scalars, and the UEA dicts and IwasawaElements holding them, survive
    pickling and deep copies unchanged."""

    def test_scalar_round_trip(self):
        x = Scalar(3, -5, 14)
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x),
                     copy.copy(x)):
            assert type(back) is Scalar
            assert (back.p, back.q, back.r) == (3, -5, 14)
            with pytest.raises(AttributeError):
                back.p = 1

    def test_uea_dict_round_trip(self, me, omega_report):
        # a sqrt2 part and a denominator in every coefficient
        u = scale(Scalar(1, 2, 3), omega_report.omega.coeff(0))
        assert pickle.loads(pickle.dumps(u)) == u
        assert copy.deepcopy(u) == u

    def test_iwasawa_element_round_trip(self, me, omega_report):
        om = omega_report.omega
        for back in (pickle.loads(pickle.dumps(om)), copy.deepcopy(om)):
            assert back == om and back is not om
            assert back.coeffs[0] is not om.coeffs[0]
