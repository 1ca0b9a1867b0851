from fractions import Fraction
from math import comb, factorial

import pytest

from f4workbench.combin import (
    _a_entry, _binom, _binom_poly, _sigma_direct, _sigma_typed,
    assemble_system, assembly_pairs, coefficient_a, coefficient_data,
    degree_profile, determinant_factorization, dk_operator,
    generalized_a_matrix, index_sets,
    system_matches_generalized, system_matrix, u_element, weight_of,
)
from f4workbench.exactnum import (Matrix, ONE, PolyScalar, ZERO, add, sca,
                                  scale, sub)
from f4workbench.reporting import Report
from f4workbench.repth import action_basis, degree_machine
from f4workbench.rootdata import gamma_basis, vadd, vscale
from f4workbench.uea import IwasawaElement, model_casimir_m
from test_exactnum import (permutation_sign, poly_det_cofactor,
                           poly_det_leibniz, variable)


def coefficient_b(r, k, T, n, L):
    """r! (-1)^T 2^(T-r-2k) C(L, T-r-2k) C(T-L-n, r-n), or zero."""
    c1 = _binom(L, T - r - 2 * k)
    c2 = _binom(T - L - n, r - n)
    if not c1 or not c2:
        return ZERO
    return sca(factorial(r) * (-1) ** T * Fraction(2) ** (T - r - 2 * k)
               * c1 * c2)


# The degree property of a member b of degree m in x, and the reduced
# subspace, read off the degrees and types of its coefficients.  The
# degree machine is built per engine on first use.

def power_needed_for_degree_property(me, b):
    """Smallest n with d(b_{m-j}) <= m + 2n + 2j for all j."""
    dm = degree_machine(me)
    m = b.degree
    need = 0
    for j in range(m + 1):
        c = b.coeff(m - j)
        if not c:
            continue
        gap = dm.degree(c) - m - 2 * j
        if gap > 0:
            need = max(need, (gap + 1) // 2)
    return need


def has_degree_property(me, b):
    """d(b_{m-j}) <= m + 2j for every coefficient."""
    return power_needed_for_degree_property(me, b) == 0


def in_reduced_subspace(me, b):
    """Whether every even coefficient has all its skew types of degree
    beyond the coefficient index: types (2i, j) with i + j <= k vanish
    in the coefficient of index 2k."""
    data = coefficient_data(me, b)
    return all(p // 2 + q > r // 2
               for r in range(0, data.m + 1, 2)
               for (p, q) in data.components[r])


@pytest.fixture(scope="module")
def cas_components(me):
    return degree_machine(me).components(model_casimir_m(me))


class TestDegreeProfile:
    def test_m2(self):
        assert degree_profile(2) == (4, 3, 2)

    def test_m0(self):
        assert degree_profile(0) == (1,)

    def test_m1(self):
        assert degree_profile(1) == (2, 1)

    def test_m4_table(self):
        # floor((12 - 2r + 2)/2) = 7 - r
        assert degree_profile(4) == (7, 6, 5, 4, 3)


class TestIndexSets:
    def test_spec_point(self):
        s = index_sets(2, 2, 0)
        assert s.L == (1,)
        assert s.R == (0, 2)
        assert s.R_reduced == (0,)

    def test_n_equals_t(self):
        s = index_sets(2, 2, 2)
        assert set(s.R) <= {0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_sets(2, 9, 0)
        with pytest.raises(ValueError):
            index_sets(2, 2, 7)

    def test_odd_parity_keeps_full_set(self):
        s = index_sets(2, 3, 0)
        assert s.R_reduced == s.R


class TestCoefficients:
    def test_a_diagonal(self):
        # A_{n,n} with l = 0 is n!
        for n in range(4):
            assert coefficient_a(n, n, n + 2, n, 0) == sca(
                [1, 1, 2, 6][n])

    def test_a_zero_below_diagonal(self):
        assert coefficient_a(2, 1, 4, 0, 1) == ZERO

    def test_b_vanishing_binomial(self):
        assert coefficient_b(1, 3, 2, 0, 1) == ZERO

    def test_b_value(self):
        # r=0, k=0, T=2, n=0, L=1: 0! * (-1)^2 * 2^2 * C(1,2)... vanishes
        assert coefficient_b(0, 0, 2, 0, 1) == ZERO
        # T=2, r=2, k=0, L=2, n=0: 2! * 4... C(2,0)=1, C(0,2)=0
        assert coefficient_b(2, 0, 2, 0, 2) == ZERO
        # T=3, r=1, k=1, L=1, n=0: 1!*(-1)^3*2^0*C(1,1)*C(2,1) = -2
        assert coefficient_b(1, 1, 3, 0, 1) == sca(-2)


class TestSystemMatrix:
    def test_empty_columns(self):
        # n = T makes R a subset of {0}; odd T - n parities empty it
        s = index_sets(2, 3, 2)
        assert s.R == (1,)
        assert [len(row) for row in system_matrix(3, 2, 2)] == \
            [1] * len(s.L)

    def test_spec_entry(self):
        assert system_matrix(2, 0, 2, reduced=True) == [[ONE]]

    def test_matches_generalized_all_small(self):
        for m in (1, 2, 3):
            d0 = degree_profile(m)[0]
            for T in range(m, 2 * d0 + 1):
                for n in range(0, min(T, 2 * d0 - T) + 1):
                    assert system_matches_generalized(m, T, n), (m, T, n)


class TestGeneralizedMatrix:
    def test_trivial(self):
        ga = generalized_a_matrix([0], 0)
        assert ga[0][0] == PolyScalar.constant(1)

    def test_single_entry(self):
        ga = generalized_a_matrix([1], 1)
        assert ga[0][0] == PolyScalar([sca(-2), ONE])   # s - 2

    def test_bad_sequence_rejected(self):
        with pytest.raises(ValueError):
            generalized_a_matrix([2, 1], 0)
        with pytest.raises(ValueError):
            generalized_a_matrix([0, 1], 2)

    def test_spec_2x2_against_cofactor_oracle(self):
        from f4workbench.exactnum import poly_det
        entries = generalized_a_matrix([0, 1], 0)
        assert poly_det(entries) == poly_det_cofactor(entries)

    def test_factorizations_match_the_cofactor_oracle(self):
        # the 196 (lseq, delta) of the determinant check of verify all:
        # Bareiss agrees with cofactor expansion on the unscaled matrix, and
        # a determinant that splits is its leading coefficient times the
        # linear factors of its roots
        import itertools
        from f4workbench.exactnum import poly_det
        s = variable()
        cases = 0
        for size in (1, 2, 3, 4):
            for lseq in itertools.combinations(range(0, 7), size):
                for delta in (0, 1):
                    entries = generalized_a_matrix(lseq, delta)
                    det = poly_det_cofactor(entries)
                    assert poly_det(entries) == det, (lseq, delta)
                    fac = determinant_factorization(lseq, delta)
                    if fac.splits:
                        product = PolyScalar.constant(fac.leading)
                        for root in fac.roots:
                            product = product * (s - PolyScalar.constant(root))
                        assert product == det, (lseq, delta)
                    cases += 1
        assert cases == 196

    def test_row_exchanges_match_the_leibniz_oracle(self):
        # the first column of a delta = 0 matrix is all ones, so taking row
        # 1 from row 0 zeroes the leading entry and keeps the determinant;
        # the row orders then meet poly_det's row exchange
        import itertools
        from f4workbench.exactnum import poly_det
        for lseq in itertools.combinations(range(5), 3):
            entries = generalized_a_matrix(lseq, 0)
            det = poly_det(entries)
            rows = [[a - b for a, b in zip(entries[0], entries[1])]]
            rows += entries[1:]
            for perm in itertools.permutations(range(3)):
                m = [rows[i] for i in perm]
                want = det if permutation_sign(perm) == 1 else -det
                assert poly_det(m) == poly_det_leibniz(m) == want, (lseq, perm)

    def test_singularity_at_integer_points_reported(self):
        # the numeric system is singular exactly when T - n is a root of
        # the polynomial determinant over the same index data
        from f4workbench.exactnum import poly_det
        m = 2
        d0 = degree_profile(m)[0]
        hits = 0
        for T in range(m, 2 * d0 + 1):
            for n in range(0, min(T, 2 * d0 - T) + 1):
                s = index_sets(m, T, n)
                if not s.L or not s.R or len(s.L) != len(s.R):
                    continue
                delta = s.R[0] % 2
                if any(r % 2 != delta for r in s.R) or \
                        [2 * j + delta for j in range(len(s.R))] != list(s.R):
                    continue
                det_poly = poly_det(generalized_a_matrix(s.L, delta))
                num = Matrix(system_matrix(T, n, m)).det()
                assert (num == sca(0)) == \
                    (det_poly.evaluate(sca(T - n)) == sca(0))
                hits += 1
        assert hits >= 3

    def test_determinants_split(self):
        # every determinant factors into rational linear terms
        import itertools
        checked = 0
        for size in (1, 2, 3):
            for lseq in itertools.combinations(range(0, 7), size):
                for delta in (0, 1):
                    fac = determinant_factorization(lseq, delta)
                    assert fac.splits, (lseq, delta)
                    if not fac.leading:
                        continue
                    assert len(fac.roots) <= 2 * sum(
                        2 * j + delta for j in range(size)) + size
                    checked += 1
        assert checked > 50


class TestBinomPoly:
    def test_matches_math_comb(self):
        from math import comb
        for shift in range(-3, 4):
            for t in range(6):
                poly = _binom_poly(shift, t)
                for s in range(-shift, -shift + 8):
                    assert poly.evaluate(sca(s)) == sca(comb(s + shift, t))

    def test_factorization_survives_the_cache(self):
        # the cached polynomials and matrix entries are shared between
        # calls; a caller that mutated one would change the second answer
        _binom_poly.cache_clear()
        _a_entry.cache_clear()
        cold = [determinant_factorization(lseq, delta)
                for lseq in ((0, 1), (1, 3), (0, 2, 5)) for delta in (0, 1)]
        warm = [determinant_factorization(lseq, delta)
                for lseq in ((0, 1), (1, 3), (0, 2, 5)) for delta in (0, 1)]
        assert _a_entry.cache_info().hits > 0
        assert cold == warm


class TestUElement:
    def test_weight(self, me):
        u, a, b = u_element(me)
        g = gamma_basis()
        assert weight_of(me, u) == vadd(g["gamma4"], g["delta"])

    def test_dominance(self, me):
        u, _, _ = u_element(me)
        k_idx = me.model.k_algebra.index
        raisers = [
            {k_idx["D4"]: ONE, k_idx["Xdelta2"]: ONE},
            {k_idx["T34"]: ONE},
            {k_idx["Xdelta2"]: ONE},
            {k_idx["X1"]: ONE},
        ]
        for x in raisers:
            assert me.g.ad(x, u) == {}

    def test_raisers_are_the_simple_raisings_of_k(self, me):
        # u_element takes them from the action basis
        k_idx = me.model.k_algebra.index
        literal = [{k_idx["D4"]: ONE, k_idx["Xdelta2"]: ONE},
                   {k_idx["T34"]: ONE}, {k_idx["Xdelta2"]: -ONE},
                   {k_idx["X1"]: ONE}]
        assert {frozenset(x.items()) for x in action_basis(me).e_vecs} == \
            {frozenset(x.items()) for x in literal}

    def test_congruent_to_leading_product(self, me):
        u, _, _ = u_element(me)
        lead = me.g.mul(me.g.gen("Xdelta"), me.g.from_lie(me.named["X4"]))
        assert me.reduce_mod_y(sub(u, lead)) == {}

    def test_coefficients_match_dense_solve(self, me):
        # a ad(T23 S23) + b ad(T24 S24) = -ad(Xdelta X4) under each raiser,
        # solved densely over the monomials of the images
        xd_x4 = me.g.mul(me.g.gen("Xdelta"), me.g.from_lie(me.named["X4"]))
        t1 = me.g.mul(me.g.gen("T23"), me.g.gen("S23"))
        t2 = me.g.mul(me.g.gen("T24"), me.g.gen("S24"))
        k_idx = me.model.k_algebra.index
        rows, rhs = [], []
        for labels in (("D4", "Xdelta2"), ("T34",), ("Xdelta2",), ("X1",)):
            x = {k_idx[lab]: ONE for lab in labels}
            im0, im1, im2 = (me.g.ad(x, u) for u in (xd_x4, t1, t2))
            for mo in sorted(set(im0) | set(im1) | set(im2)):
                rows.append([im1.get(mo, ZERO), im2.get(mo, ZERO)])
                rhs.append(-im0.get(mo, ZERO))
        _, a, b = u_element(me)
        assert Matrix(rows).solve(rhs) == [a, b]

    def test_mixing_coefficients_nonzero(self, me):
        _, a, b = u_element(me)
        assert a and b


class TestDkOperator:
    def test_k0_is_double_raising(self, me, cas_components):
        b20 = cas_components[(2, 0)]
        xd = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        d0 = dk_operator(me, b20, 0)
        assert d0 == me.g.ad_power(xd, b20, 2)

    def test_weights(self, me, cas_components):
        g = gamma_basis()
        b20 = cas_components[(2, 0)]
        for k in range(0, 3):
            dk = dk_operator(me, b20, k)
            expect = vadd(vadd(g["gamma4"], g["delta"]), vscale(k, g["gamma3"]))
            assert weight_of(me, dk) == expect

    def test_x1_annihilation(self, me, cas_components):
        x1 = me.lie_in_mixed(me.model.distinguished["X1"])
        b20 = cas_components[(2, 0)]
        for k in range(0, 3):
            assert me.g.ad(x1, dk_operator(me, b20, k)) == {}

    def test_qplus_congruence(self, me, cas_components):
        # every raising outside the distinguished direction sends D_k
        # into the abelian-ideal left ideal
        b20 = cas_components[(2, 0)]
        dk = dk_operator(me, b20, 1)
        for v in me.model.subspaces["qplus"].rows():
            img = me.g.ad(me.lie_in_mixed(v), dk)
            assert me.reduce_mod_y(img) == {}

    def test_type_checked(self, me, cas_components):
        mixed = add(cas_components[(2, 0)],
                              cas_components[(0, 2)])
        with pytest.raises(ValueError):
            dk_operator(me, mixed, 0)
        with pytest.raises(ValueError):
            dk_operator(me, cas_components[(2, 0)], 3)


class TestAssembleSystem:
    def test_trivial_element(self, me):
        b = IwasawaElement([me.g.one()])
        rep = assemble_system(me, b, 1, [(1, 0), (0, 1)])
        assert rep.passed

    def test_omega_at_t2(self, me, omega_report):
        rep = assemble_system(me, omega_report.omega, 2,
                              [(1, 0), (0, 1), (2, 0)])
        assert rep.passed
        for kind in ("direct", "typed"):
            got = {c["id"]: c["status"] for c in rep.checks
                   if c["id"].startswith(kind + " ")}
            assert got == {"%s (l,n)=%s" % (kind, pair): "pass"
                           for pair in ("(1,0)", "(0,1)", "(2,0)")}

    @pytest.mark.parametrize("pair", [(2, 1), (1, 1)],
                             ids=["l+n-above-T", "l-equals-n"])
    def test_vacuous_pair_rejected_before_any_record(self, me, omega_report,
                                                     pair):
        # (2, 1) at T = 2 empties both index families, and the
        # antisymmetric sum of (1, 1) is zero: both would pass on any input
        for pairs in ([pair], [(1, 0), pair]):
            rep = Report("assembly")
            with pytest.raises(ValueError, match=r"\(l,n\)=\(%d,%d\) is "
                               "vacuous at T=2" % pair):
                assemble_system(me, omega_report.omega, 2, pairs, rep=rep)
            assert rep.checks == []

    def test_assembly_pairs(self):
        assert assembly_pairs(2, 0) == [(1, 0), (2, 0)]
        assert assembly_pairs(2, 1) == [(0, 1)]
        assert assembly_pairs(2, 2) == [(0, 2)]
        assert assembly_pairs(2, 3) == []

    def test_diagonal_hypothesis_enforced(self, me, omega_report):
        with pytest.raises(ValueError) as err:
            assemble_system(me, omega_report.omega, 1 + 0, [(0, 1)])
        assert "diagonal hypothesis" in str(err.value) or "T=" in str(err.value)

    def test_coefficient_data_on_omega(self, me, omega_report):
        data = coefficient_data(me, omega_report.omega)
        assert data.degrees == [4, 0, 0]
        assert sorted(data.components[0]) == [(0, 0), (0, 2), (2, 0)]


class TestDegreeProperty:
    def test_omega_has_it(self, me, omega_report):
        assert has_degree_property(me, omega_report.omega)

    def test_product_bookkeeping(self, me, omega_report):
        # coefficients of b * omega reassemble b exactly:
        # b_{m-j} = (b w)_{m+2-j} - b_{m-j+1} w_1 - b_{m-j+2} w_0
        om = omega_report.omega
        b = om   # use omega itself as the test member
        bw = b.mul(om, me.g)
        m = b.degree
        w1 = om.coeff(1)
        w0 = om.coeff(0)
        for j in range(m + 1):
            lhs = b.coeff(m - j)
            t1 = bw.coeff(m + 2 - j)
            t2 = me.g.mul(b.coeff(m - j + 1), w1) if b.coeff(m - j + 1) else {}
            t3 = me.g.mul(b.coeff(m - j + 2), w0) if b.coeff(m - j + 2) else {}
            assert lhs == sub(sub(t1, t2), t3)

    def test_power_closure(self, me, omega_report):
        # multiplying by the computed power of omega restores the bound
        om = omega_report.omega
        # a deliberately unbalanced member: coefficient of Z^0 too deep
        b = IwasawaElement([om.coeff(0), {}, me.g.one()])
        n = power_needed_for_degree_property(me, b)
        c = b
        for _ in range(n):
            c = c.mul(om, me.g)
        assert has_degree_property(me, c)

    def test_reduced_subspace_predicate(self, me, omega_report):
        # omega itself has low-degree types (the unit coefficients), so
        # it is not in the reduced subspace
        assert not in_reduced_subspace(me, omega_report.omega)
        # a degree-2 element whose coefficients carry only deep types is
        dm = degree_machine(me)
        comps = dm.components(omega_report.omega.coeff(0))
        deep = add(comps[(2, 0)], comps[(0, 2)])
        b = IwasawaElement([deep, {}, comps[(0, 2)]])
        assert in_reduced_subspace(me, b)


def pair_oracle(me, sigma, l, n):
    """(-1)^n sigma(l, n) E^n - (-1)^l sigma(n, l) E^l, written inline."""
    return sub(
        scale(sca((-1) ** n),
              me.g.mul(sigma(l, n), me.g.gen("E", n) if n else me.g.one())),
        scale(sca((-1) ** l),
              me.g.mul(sigma(n, l), me.g.gen("E", l) if l else me.g.one())))


class TestAssembleOracle:
    """The sums assemble_system reduces, captured before the reduction
    and compared with inline pair formulas, on a non-member."""

    def test_unreduced_sums_match(self, me, shifted_omega, monkeypatch):
        b, T, pairs = shifted_omega, 2, [(1, 0), (0, 1), (2, 0)]
        data = coefficient_data(me, b)
        direct = [pair_oracle(me, lambda a, c: _sigma_direct(
            me, b, data.m, T, a, c), l, n) for l, n in pairs]
        typed = {(l, n): pair_oracle(me, lambda a, c: _sigma_typed(
            me, data, T, a, c), l, n) for l in range(3) for n in range(2)}
        x4 = me.g.from_lie(me.named["X4"])
        combined = []
        for n, lmax in ((0, 2), (1, 1)):
            for L in range(lmax + 1):
                acc = {}
                for l in range(L + 1):
                    tail = me.g.mul(me.g.gen("E", L - l) if L > l
                                    else me.g.one(), me.g.power(x4, l + n))
                    acc = add(acc, scale(sca((-2) ** l * comb(L, l)),
                                         me.g.mul(typed[(l, n)], tail)))
                combined.append(acc)
        want = [s for pair in zip(direct, (typed[p] for p in pairs))
                for s in pair] + combined
        assert [len(s) for s in want[:6]] == [2, 4, 2, 4, 6, 8]

        seen = []
        reduce = me.reduce_mod_mplus
        monkeypatch.setattr(me, "reduce_mod_mplus",
                            lambda u: seen.append(u) or reduce(u))
        assemble_system(me, b, T, pairs)
        assert seen == want
