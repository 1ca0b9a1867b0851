import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from f4workbench.exactnum import (Matrix, ONE, SQRT2, Scalar, ZERO, dual_basis,
                                  sca)
from f4workbench.liealg import (LieAlgebra, chevalley_algebra, el_add,
                                el_scale)
from f4workbench.rootdata import build_root_system, f4_satake_data
from f4workbench.uea import (
    IwasawaElement, ONE_MONO, PBWEngine, casimir, ideal_normal_form,
    in_ideal, invariants_up_to_degree, model_casimir_g, model_casimir_m,
    mono_mul_free, omega_normalized, reduce_mod,
)


@pytest.fixture(scope="module")
def sl2():
    alg = chevalley_algebra(build_root_system([[2]]))
    return alg, PBWEngine(alg)


def _sl2_form(alg):
    kf = alg.killing_form()

    def fv(x, y):
        acc = ZERO
        for i, ci in x.items():
            for j, cj in y.items():
                if kf.entries[i][j]:
                    acc = acc + ci * cj * kf.entries[i][j]
        return acc

    return fv


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


class TestBasisOrder:
    def test_suffix_start(self, me):
        from f4workbench.uea import BasisOrder
        order = BasisOrder(me.model.g_algebra.labels)
        assert order.suffix_start(me.model.g_algebra.labels[37:]) == 37
        assert order.index("Z") == 36

    def test_non_suffix_rejected(self, me):
        from f4workbench.uea import BasisOrder
        order = BasisOrder(me.model.g_algebra.labels)
        with pytest.raises(ValueError):
            order.suffix_start(("X2", "S23"))   # not the literal tail


class TestProduct:
    def test_sl2_commutator(self, sl2):
        alg, eng = sl2
        e, f, h = eng.gen("x[1]"), eng.gen("x[-1]"), eng.gen("h1")
        assert eng.mul(e, f) == PBWEngine.add(eng.mul(f, e), h)

    def test_unit(self, sl2):
        _, eng = sl2
        x = eng.gen("x[1]", 3)
        assert eng.mul(x, eng.one()) == x
        assert eng.mul(eng.one(), x) == x

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
            assert PBWEngine.sub(xy, yx) == me.g.from_lie(br)


class TestDerivation:
    def test_named_identities(self, me):
        d = me.model.distinguished
        yt = me.uea_of(d["Ytilde"])
        assert me.ad_named("E", yt) == me.uea_of(d["E"])
        assert me.ad_named("Xdelta", yt) == me.uea_of(d["Xdelta"])

    def test_kills_unit(self, me):
        assert me.ad_named("E", me.g.one()) == {}

    def test_leibniz_sampled(self, me):
        rng = random.Random(4)
        for _ in range(10):
            x = {rng.randrange(36): ONE}
            u = {((rng.randrange(36), 1), ): ONE}
            v = {((rng.randrange(36), 2), ): ONE}
            uv = me.g.mul(u, v)
            lhs = me.g.ad(x, uv)
            rhs = PBWEngine.add(me.g.mul(me.g.ad(x, u), v),
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
            lhs = PBWEngine.sub(me.g.ad(x, me.g.ad(y, u)),
                                me.g.ad(y, me.g.ad(x, u)))
            rhs = me.g.ad(alg.bracket(x, y), u)
            assert lhs == rhs


class TestIdealNormalForm:
    def test_member_reduces_to_zero(self, me):
        u = me.g.mul(me.g.gen("E", 2), me.g.gen("S23"))
        assert reduce_mod(me.g, u, me.mplus_start) == {}
        assert reduce_mod(me.g, u, me.y_start) == {}

    def test_no_support_untouched(self, me):
        u = me.g.mul(me.g.gen("Xm1"), me.g.gen("E"))
        assert reduce_mod(me.g, u, me.mplus_start) == u

    def test_idempotent(self, me):
        rng = random.Random(6)
        for _ in range(6):
            u = me.g.one()
            for _ in range(3):
                u = me.g.mul(u, {((rng.randrange(36), 1),): ONE})
            r = reduce_mod(me.g, u, me.mplus_start)
            assert reduce_mod(me.g, r, me.mplus_start) == r

    def test_triangular_support_condition(self, me):
        # components a_k may mention only labels up to their own generator
        rng = random.Random(7)
        for _ in range(6):
            u = me.g.one()
            for _ in range(3):
                u = me.g.mul(u, {((rng.randrange(30, 36), 1),): ONE})
            comps, red = ideal_normal_form(me.g, u, me.mplus_start)
            recon = dict(red)
            for g, a in comps.items():
                for m in a:
                    assert all(i <= g for i, _ in m)
                recon = PBWEngine.add(recon, me.g.mul(a, {((g, 1),): ONE}))
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
            assert in_ideal(me.g, ue, me.y_start) == in_ideal(me.g, u, me.y_start)


class TestIwasawaProjection:
    def test_kills_nilpotent_labels(self, me):
        for lab in me.model.g_algebra.labels[37:42]:
            assert me.iwasawa_project(me.g.gen(lab)).is_zero()

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
                    assert me.g.degree(c) <= m - l
                    assert me.k_only(c)


class TestCasimir:
    def test_sl2_central(self, sl2):
        alg, eng = sl2
        om = casimir(eng, [{0: ONE}, {1: ONE}, {2: ONE}], _sl2_form(alg))
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
                dual = el_add(dual, el_scale(c, b))
            for j in range(3):
                assert fv(basis[j], dual) == (ONE if i == j else ZERO)

    def test_f4_casimir_invariant(self, me):
        om = model_casimir_g(me)
        assert me.ad_named("E", om) == {}
        assert me.ad_named("Xm1", om) == {}
        assert me.g.ad({36: ONE}, om) == {}   # the torus generator too

    def test_centralizer_casimir_in_uk(self, me):
        cm = model_casimir_m(me)
        assert me.k_only(cm)
        for v in me.model.subspaces["m"].basis():
            assert me.g.ad(me.lie_in_mixed(v), cm) == {}


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
        expect = PBWEngine.add(
            PBWEngine.scale(omega_report.casimir_m_coeff, cm),
            PBWEngine.scale(omega_report.constant_coeff, me.g.one()))
        assert w0 == expect
        assert omega_report.casimir_m_coeff != ZERO

    def test_omega0_m_invariant(self, me, omega_report):
        w0 = omega_report.omega.coeff(0)
        for v in me.model.subspaces["m"].basis():
            assert me.g.ad(me.lie_in_mixed(v), w0) == {}


class TestInvariants:
    def test_sl2_degree2(self, sl2):
        alg, eng = sl2
        gens = [{0: ONE}, {1: ONE}, {2: ONE}]
        inv = invariants_up_to_degree(eng, gens, 2)
        assert len(inv) == 2   # span{1, Casimir}
        om = casimir(eng, gens, _sl2_form(alg))
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
                assert lhs.add(rhs.scale(-ONE)).is_zero()


class TestEvenOddSplit:
    def test_delta_congruence(self, me):
        # (-1)^j Delta^j = E^{2j} modulo the abelian-ideal left ideal
        delta = PBWEngine.sub(
            PBWEngine.scale(sca(2), me.g.mul(me.uea_of(me.model.distinguished["X4"]),
                                             me.g.gen("X2"))),
            me.g.gen("E", 2))
        for j in range(4):
            lhs = PBWEngine.scale(sca((-1) ** j), me.g.power(delta, j))
            rhs = me.g.gen("E", 2 * j) if j else me.g.one()
            assert reduce_mod(me.g, PBWEngine.sub(lhs, rhs), me.y_start) == {}

    def test_delta_is_x1_invariant(self, me):
        delta = PBWEngine.sub(
            PBWEngine.scale(sca(2), me.g.mul(me.uea_of(me.model.distinguished["X4"]),
                                             me.g.gen("X2"))),
            me.g.gen("E", 2))
        assert me.ad_named("X1", delta) == {}

    def test_even_odd_parts_vanish(self, me):
        # eta_0 = Delta, eta_1 = Delta, eta_2 = 1, eta_3 = 1: the full sum lies
        # in the ideal and each parity part reduces to zero separately
        delta = PBWEngine.sub(
            PBWEngine.scale(sca(2), me.g.mul(me.uea_of(me.model.distinguished["X4"]),
                                             me.g.gen("X2"))),
            me.g.gen("E", 2))
        e = me.g.gen("E")
        etas = [delta, delta, me.g.one(), me.g.one()]
        total = me.g.zero()
        even = me.g.zero()
        odd = me.g.zero()
        for j, eta in enumerate(etas):
            term = me.g.mul(eta, me.g.gen("E", j) if j else me.g.one())
            total = PBWEngine.add(total, term)
            if j % 2 == 0:
                even = PBWEngine.add(even, term)
            else:
                odd = PBWEngine.add(odd, term)
        assert reduce_mod(me.g, total, me.y_start) == {}
        assert reduce_mod(me.g, even, me.y_start) == {}
        assert reduce_mod(me.g, odd, me.y_start) == {}

    def test_sum_decomposition_sampled(self, me):
        # u0 + u1 E in the ideal with both annihilated by the raising
        # derivation forces both congruent to zero
        d = me.model.distinguished
        x4 = me.uea_of(d["X4"])
        xd = me.uea_of(d["Xdelta"])
        delta = PBWEngine.sub(PBWEngine.scale(sca(2), me.g.mul(x4, me.g.gen("X2"))),
                              me.g.gen("E", 2))
        rng = random.Random(11)
        family = [me.g.one(), xd, x4, delta, me.g.gen("S23"), me.g.gen("S24"),
                  me.g.mul(xd, me.g.gen("S24")), me.g.mul(x4, me.g.gen("S23"))]
        hits = 0
        for _ in range(25):
            u0 = me.g.zero()
            u1 = me.g.zero()
            for _ in range(2):
                u0 = PBWEngine.add(u0, PBWEngine.scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
                u1 = PBWEngine.add(u1, PBWEngine.scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
            assert me.ad_named("X1", u0) == {}
            assert me.ad_named("X1", u1) == {}
            s = PBWEngine.add(u0, me.g.mul(u1, me.g.gen("E")))
            if reduce_mod(me.g, s, me.y_start):
                continue
            hits += 1
            assert reduce_mod(me.g, u0, me.y_start) == {}
            assert reduce_mod(me.g, u1, me.y_start) == {}
        assert hits >= 3   # the sample family produces nonvacuous instances


# ---------------------------------------------------------------------------
# The Scalar straightening the integer core replaced, kept as an oracle
# ---------------------------------------------------------------------------


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
                assert me.g.mono_mul(m1, m2) == oracle.mono_mul(m1, m2)

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
        rhs = PBWEngine.add(me.g.mul(me.g.ad(x, u), v),
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
        kb = [me.lie_in_mixed(model.k_element_in_g({i: ONE}))
              for i in range(36)]

        def fv(x, y):
            return model.b(model.in_chevalley(x), model.in_chevalley(y))

        want = {}
        for x, xd in zip(kb, dual_basis(kb, fv)):
            want = PBWEngine.add(want, oracle.ad(x, oracle.ad(xd, u)))
        assert degree_machine(me).casimir_apply(u) == want

    def test_memo_tables_hold_integers(self, me):
        u = me.g.mul(me.g.gen("X1", 2), me.g.mul(me.g.gen("Xm1"),
                                                 me.g.gen("E")))
        assert u
        for table in (me.g._memo, me.g._memo_left):
            assert table
            assert all(type(c) is int
                       for out in table.values() for c in out.values())


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
