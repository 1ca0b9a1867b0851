"""Acceptance criteria: one test per criterion, exact arithmetic, zero
tolerance.  Each test prints a single PASS/FAIL line."""

import itertools
import random
from fractions import Fraction
from math import factorial

from f4workbench.exactnum import ONE, ZERO, add, sca, scale, sub
from f4workbench.liealg import transversality_rank
from f4workbench.rootdata import (F4_SIMPLE, cartan_type, compact_split,
                                  f4_satake_data, gamma_basis, simple_system,
                                  vadd, vscale)
from f4workbench.uea import (IwasawaElement, invariants_up_to_degree,
                             model_casimir_m)

SEED = 20240801


def _report(num, ok, text):
    print("ACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def _fails(records):
    return [c["id"] for c in records if c["status"] != "pass"]


class TestAcceptance:
    def test_01_model_integrity(self, model):
        sub = model.subspaces
        checks = {
            "dim g": model.algebra.dim == 52,
            "dim k": len(sub["k"]) == 36,
            "dim p": len(sub["p"]) == 16,
            "dim m": len(sub["m"]) == 21,
            "dim n": len(sub["n"]) == 15,
            "dim a": len(sub["a"]) == 1,
            "dim gtilde": len(sub["gtilde"]) == 21,
        }
        cs = compact_split()
        checks["k type B4"] = cartan_type(cs.simple_k) == "B4"
        _, split = f4_satake_data()
        checks["m type B3"] = cartan_type(simple_system(split.p_minus)) == "B3"
        from f4workbench.liealg import _gtilde_type
        checks["gtilde type C3"] = _gtilde_type(model) == "C3"
        bad = [k for k, v in checks.items() if not v]
        _report(1, not bad, "model integrity (dims 52/36/16/21/15/1, "
                "types B4/B3/C3)" if not bad else "failed: %s" % bad)

    def test_02_normalization_battery(self, model):
        d = model.distinguished
        br = model.algebra.bracket
        half = sca(Fraction(1, 2))
        xa1 = {model.algebra.root_index[F4_SIMPLE[0]]: ONE}
        checks = {
            "[X1,X2]=E": br(d["X1"], d["X2"]) == d["E"],
            "[X1,E]=X4": br(d["X1"], d["E"]) == d["X4"],
            "[Xm1,E]=2X2": br(d["Xm1"], d["E"]) == scale(sca(2), d["X2"]),
            "[Xm1,X4]=2E": br(d["Xm1"], d["X4"]) == scale(sca(2), d["E"]),
            "[H,E]=E/2": br(d["H"], d["E"]) == scale(half, d["E"]),
            "[Xdelta,H]=0": br(d["Xdelta"], d["H"]) == {},
            "adE(Ytilde)=E": br(d["E"], d["Ytilde"]) == d["E"],
            "adXdelta(Ytilde)=Xdelta": br(d["Xdelta"], d["Ytilde"]) == d["Xdelta"],
            "c=3/2": br(d["Y"], xa1) == scale(sca(Fraction(3, 2)), xa1),
        }
        bad = [k for k, v in checks.items() if not v]
        _report(2, not bad, "normalization battery (9 identities)"
                if not bad else "failed: %s" % bad)

    def test_03_transversality(self, model):
        r1, t1 = transversality_rank(model, "T")
        r2, t2 = transversality_rank(model, "Ttilde")
        ok = (r1, t1) == (33, 33) and (r2, t2) == (36, 36) \
            and len(model.subspaces["y_perp"]) == 33
        _report(3, ok, "transversality ranks 33 and 36"
                if ok else "got (%d,%d) and (%d,%d)" % (r1, t1, r2, t2))

    def test_04_casimir_projection(self, me, omega_report):
        from f4workbench.balg import check_b_membership
        from f4workbench.repth import degree_machine
        om = omega_report.omega
        dm = degree_machine(me)
        checks = {
            "degree 2": om.degree == 2,
            "leading = 1": om.coeff(2) == me.g.one(),
            "middle scalar nonzero": bool(omega_report.omega1_scalar),
            "constant in span{1, Cas(m)}": omega_report.casimir_m_coeff != ZERO,
            "d(omega0) <= 4": dm.degree(om.coeff(0)) <= 4,
            "omega member (nmax 6)":
                check_b_membership(me, om, nmax=6).passed,
            "omega^2 member (nmax 6)":
                check_b_membership(me, om.mul(om, me.g), nmax=6).passed,
        }
        bad = [k for k, v in checks.items() if not v]
        _report(4, not bad, "projected Casimir shape and membership"
                if not bad else "failed: %s" % bad)

    def test_05_polynomial_calculus(self, me, omega_report):
        from f4workbench.balg import (check_congruences, check_triangular,
                                      default_nmax, discrete_derivative,
                                      phi_poly, shift_substitute,
                                      substitute, t_matrix_entry, to_phi)
        om = omega_report.omega
        bad = []
        # basis axioms
        for n in range(1, 7):
            if discrete_derivative(phi_poly(n), 1).coeffs != \
                    phi_poly(n - 1).coeffs:
                bad.append("difference recursion %d" % n)
            if phi_poly(n).at(0):
                bad.append("vanishing at zero %d" % n)
        if phi_poly(0).coeffs != [me.g.one()]:
            bad.append("unit basis element")
        # substitution-matrix identity, degrees up to 4
        e_elt = me.lie_in_mixed(me.model.distinguished["E"])
        for j in range(5):
            for i in range(j + 1):
                got = me.g.ad_power(e_elt, t_matrix_entry(me, i, j), j - i)
                scalef = Fraction((-1) ** (j - i) * factorial(j), 2 ** (j - i))
                want = scale(
                    sca(scalef), me.g.gen("E", j - i) if j > i else me.g.one())
                if got != want:
                    bad.append("t(%d,%d)" % (i, j))
        # the four raising identities, k <= 4
        h = me.g.from_lie(me.named["H"])
        neg_yt = me.g.from_lie(scale(-ONE, me.named["Ytilde"]))
        xdelta_elt = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        xdelta = me.g.gen("Xdelta")
        for k in range(5):
            if me.g.ad_power(e_elt, me.g.power(h, k), k) != scale(
                    sca(Fraction(factorial(k) * (-1) ** k, 2 ** k)),
                    me.g.gen("E", k) if k else me.g.one()):
                bad.append("torus power %d" % k)
            if me.g.ad_power(e_elt, substitute(me, phi_poly(k), h).at(0),
                             k) != scale(
                    sca(Fraction((-1) ** k, 2 ** k)),
                    me.g.gen("E", k) if k else me.g.one()):
                bad.append("basis at torus %d" % k)
            if me.g.ad_power(xdelta_elt, me.g.power(neg_yt, k), k) != scale(
                    sca(factorial(k) * (-1) ** k), me.g.power(xdelta, k)):
                bad.append("argument power %d" % k)
            phi_yt = substitute(me, phi_poly(k), neg_yt)
            for a in (Fraction(0), Fraction(2), Fraction(-1, 2)):
                if me.g.ad_power(xdelta_elt, phi_yt.at(a), k) != scale(
                        sca((-1) ** k), me.g.power(xdelta, k)):
                    bad.append("basis at argument %d" % k)
        # equivalence of the two systems on a seeded degree <= 2 family
        rng = random.Random(SEED)
        labels = ["Xdelta", "E", "X2", "T23", "S24", "Ht2", None]
        for _ in range(10):
            coeffs = []
            for _ in range(3):
                lab = labels[rng.randrange(len(labels))]
                c = sca(rng.randint(-2, 2))
                coeffs.append(scale(c, me.g.gen(lab))
                              if lab else scale(c, me.g.one()))
            b = IwasawaElement(coeffs).trim()
            nmax = default_nmax(max(b.degree, 0))
            direct = check_congruences(me, b, nmax).passed
            tri = check_triangular(me, shift_substitute(me, b)).passed
            if direct != tri:
                bad.append("equivalence on sampled input")
        # higher-difference vanishing on the projected Casimir
        m = om.degree
        c = to_phi(shift_substitute(me, om))
        for j in range(m + 1):
            if me.reduce_mod_mplus(me.g.ad_power(e_elt, c[j], m + 1)):
                bad.append("substituted coefficient %d" % j)
        for j in range(m + 1):
            if me.reduce_mod_mplus(
                    me.g.ad_power(e_elt, om.coeff(j), 2 * m + 1 - j)):
                bad.append("raw coefficient %d" % j)
        _report(5, not bad, "difference calculus, raising identities, "
                "equivalence, vanishing consequences"
                if not bad else "failed: %s" % bad)

    def test_06_representation_battery(self, me):
        from f4workbench.repth import (build_module, m_invariants,
                                       verify_hw3iv, verify_techo,
                                       weyl_dimension, xi_weight)
        bad = []
        mults = {}
        for kl in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
            ctx = build_module(me, *kl)
            want = weyl_dimension(xi_weight(*kl))
            if ctx.rep.dim != want:
                bad.append("dim at %s" % (kl,))
            inv = m_invariants(ctx, me)
            mults[kl] = len(inv)
            if not inv:
                bad.append("no invariant at %s" % (kl,))
            if not verify_hw3iv(ctx, me, *kl).ok:
                bad.append("vanishing boundary at %s" % (kl,))
            if not verify_techo(ctx, me, *kl).ok:
                bad.append("chain identities at %s" % (kl,))
        _report(6, not bad, "five modules: dims, invariant multiplicities "
                "%s, boundaries, chains" % sorted(mults.values())
                if not bad else "failed: %s" % bad)

    def test_07_kostant_degree(self, me):
        from f4workbench.repth import degree_machine, m_generators
        dm = degree_machine(me)
        bad = []
        if dm.degree(me.g.one()) != 0:
            bad.append("unit degree")
        gens = m_generators(me)
        lw = {i: me.model.k_t_weights[i][1:] for i in range(36)}
        inv2 = invariants_up_to_degree(me.g, gens, 2, label_weights=lw,
                                       label_limit=36)
        rng = random.Random(SEED)
        count = 0
        while count < 20:
            u = me.g.zero()
            for b in inv2:
                u = add(u, scale(sca(rng.randint(-3, 3)), b))
            if not u:
                continue
            count += 1
            if dm.degree(u) > 4:   # 2m with m = 2
                bad.append("bound violated at sample %d" % count)
        pairs = 0
        while pairs < 10:
            u = me.g.zero()
            v = me.g.zero()
            for b in inv2:
                u = add(u, scale(sca(rng.randint(-2, 2)), b))
                v = add(v, scale(sca(rng.randint(-2, 2)), b))
            if not u or not v:
                continue
            pairs += 1
            d_u, d_v = dm.degree(u), dm.degree(v)
            d_uv = dm.degree(me.g.mul(u, v))
            if d_uv != d_u + d_v:
                bad.append("additivity fails: %d + %d != %d"
                           % (d_u, d_v, d_uv))
        _report(7, not bad, "degree: unit, 20 bounded samples, additivity "
                "on 10 pairs" if not bad else "failed: %s" % bad)

    def test_08_combinatorics(self, me, omega_report):
        from f4workbench.combin import (assemble_system, coefficient_data,
                                        degree_profile,
                                        determinant_factorization,
                                        dk_operator, index_sets,
                                        system_matches_generalized, u_element,
                                        weight_of)
        from f4workbench.repth import degree_machine
        bad = []
        for m in range(0, 5):
            for r, d in enumerate(degree_profile(m)):
                if d != (3 * m - 2 * r + 2) // 2:
                    bad.append("profile m=%d" % m)
        for m in (1, 2, 3):
            d0 = degree_profile(m)[0]
            for T in range(m, 2 * d0 + 1):
                for n in range(0, min(T, 2 * d0 - T) + 1):
                    index_sets(m, T, n)
                    if not system_matches_generalized(m, T, n):
                        bad.append("cross-eval (%d,%d,%d)" % (m, T, n))
        for size in (1, 2, 3, 4):
            for lseq in itertools.combinations(range(0, 7), size):
                for delta in (0, 1):
                    if not determinant_factorization(lseq, delta).splits:
                        bad.append("det %r/%d" % (lseq, delta))
        g = gamma_basis()
        u, _, _ = u_element(me)
        if weight_of(me, u) != vadd(g["gamma4"], g["delta"]):
            bad.append("U weight")
        lead = me.g.mul(me.g.gen("Xdelta"), me.g.from_lie(me.named["X4"]))
        if me.reduce_mod_y(sub(u, lead)):
            bad.append("U congruence")
        k_idx = me.model.k_algebra.index
        raisers = [
            {k_idx["D4"]: ONE, k_idx["Xdelta2"]: ONE},
            {k_idx["T34"]: ONE},
            {k_idx["Xdelta2"]: ONE},
            {k_idx["X1"]: ONE},
        ]
        for x in raisers:
            if me.g.ad(x, u):
                bad.append("U dominance")
        dm = degree_machine(me)
        comps = dm.components(model_casimir_m(me))
        x1 = me.lie_in_mixed(me.model.distinguished["X1"])
        rng = random.Random(SEED)
        for trial in range(3):
            b20 = scale(sca(rng.randint(1, 5)), comps[(2, 0)])
            for k in range(0, 3):
                dk = dk_operator(me, b20, k)
                expect = vadd(vadd(g["gamma4"], g["delta"]),
                              vscale(k, g["gamma3"]))
                if weight_of(me, dk) != expect:
                    bad.append("D_%d weight" % k)
                if me.g.ad(x1, dk):
                    bad.append("D_%d annihilation" % k)
        rep = assemble_system(me, omega_report.omega, 2,
                              [(1, 0), (0, 1), (2, 0)])
        if not rep.passed:
            bad.append("assembly residuals %s" % rep.details)
        _report(8, not bad, "profiles, index sets, 196 split determinants, "
                "dominant element, twisted raisings, assembled sums"
                if not bad else "failed: %s" % bad)

    def test_09_transversality_statement_tests(self, me, omega_report):
        from f4workbench.combin import _sigma_typed, coefficient_data
        bad = []
        # Thm-level: the typed assemblies lie in the nilradical ideal,
        # satisfy the q+ hypothesis, and reduce to zero modulo the
        # abelian-ideal left ideal
        data = coefficient_data(me, omega_report.omega)
        qplus = me.model.subspaces["qplus"].rows()
        hits = 0
        for (l, n) in [(1, 0), (0, 1), (2, 0)]:
            t1 = _sigma_typed(me, data, 2, l, n)
            t2 = _sigma_typed(me, data, 2, n, l)
            lhs = sub(
                scale(sca((-1) ** n),
                                me.g.mul(t1, me.g.gen("E", n)
                                         if n else me.g.one())),
                scale(sca((-1) ** l),
                                me.g.mul(t2, me.g.gen("E", l)
                                         if l else me.g.one())))
            if not lhs:
                continue
            if me.reduce_mod_mplus(lhs):
                bad.append("assembly not in the ideal at (%d,%d)" % (l, n))
                continue
            hyp = all(me.reduce_mod_y(me.g.ad(me.lie_in_mixed(x), lhs)) == {}
                      for x in qplus)
            if not hyp:
                continue
            hits += 1
            if me.reduce_mod_y(lhs):
                bad.append("conclusion fails at (%d,%d)" % (l, n))
        if hits < 2:
            bad.append("too few nonvacuous ideal-membership instances")
        # dominant vectors of spherical weight in the ideal vanish
        from tests.test_repth import dominant_in_ideal_slice
        g = gamma_basis()
        for target in (vadd(g["gamma4"], g["delta"]), g["gamma3"]):
            if dominant_in_ideal_slice(me, target, max_degree=2):
                bad.append("nonzero dominant slice at %s" % (target,))
        # sum decomposition: u0 + u1 E in the ideal forces both in
        x4 = me.g.from_lie(me.named["X4"])
        xd = me.g.gen("Xdelta")
        delta_el = sub(
            scale(sca(2), me.g.mul(x4, me.g.gen("X2"))),
            me.g.gen("E", 2))
        rng = random.Random(SEED)
        family = [me.g.one(), me.g.mul(xd, me.g.one()), x4, delta_el,
                  me.g.gen("S23"), me.g.gen("S24"),
                  me.g.mul(x4, me.g.gen("S23"))]
        pair_hits = 0
        for _ in range(30):
            u0 = me.g.zero()
            u1 = me.g.zero()
            for _ in range(2):
                u0 = add(u0, scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
                u1 = add(u1, scale(
                    sca(rng.randint(-2, 2)), family[rng.randrange(len(family))]))
            x1 = me.named["X1"]
            if me.g.ad(x1, u0) or me.g.ad(x1, u1):
                bad.append("sample family is not invariant")
                break
            s = add(u0, me.g.mul(u1, me.g.gen("E")))
            if me.reduce_mod_y(s):
                continue
            pair_hits += 1
            if me.reduce_mod_y(u0) or me.reduce_mod_y(u1):
                bad.append("decomposition fails")
        if pair_hits < 3:
            bad.append("too few nonvacuous decomposition instances")
        # parity splitting through the quadratic relation
        for j in range(4):
            lhs = scale(sca((-1) ** j), me.g.power(delta_el, j))
            rhs = me.g.gen("E", 2 * j) if j else me.g.one()
            if me.reduce_mod_y(sub(lhs, rhs)):
                bad.append("quadratic relation at %d" % j)
        etas = [delta_el, delta_el, me.g.one(), me.g.one()]
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
        for name, vecu in (("total", total), ("even", even), ("odd", odd)):
            if me.reduce_mod_y(vecu):
                bad.append("parity split: %s part" % name)
        _report(9, not bad, "ideal congruence statements on sampled inputs "
                "(%d assembly + %d decomposition instances)"
                % (hits, pair_hits)
                if not bad else "failed: %s" % bad)
