import itertools
import random
from fractions import Fraction

import pytest

from f4workbench import repth
from f4workbench.exactnum import (Echelon, Matrix, ONE, PolyScalar, Scalar,
                                  ZERO, accumulate, add, combine, coordinates,
                                  dual_basis, rational_roots, sca, scale, sub)
from f4workbench.liealg import orthocomplement
from f4workbench.repth import (
    DegreeMachine, ModuleContext, action_basis, build_irrep, build_module,
    commutator, degree_machine, m_generators, m_invariants, raising_grid,
    verify_hw3iv, verify_techo, weyl_dimension, xi_weight,
)
from f4workbench.rootdata import build_root_system, dot, k_root_system, vec
from f4workbench.uea import (_casimir_element, _casimir_of, _casimir_step,
                             invariants_up_to_degree)


LABELS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


def root_system(*simple):
    """The root system on the given simple roots."""
    return build_root_system(simple)


SL2 = root_system((2,))
B4_STANDARD = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1))
A3_IN_R4 = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))


def label_of_weight(w):
    """Invert xi_weight, or None when w is not on the spherical lattice."""
    if not (w[0] == w[2] == w[3]):
        return None
    l2 = 2 * w[0]
    k = w[1] - w[0]
    if l2.denominator != 1 or k.denominator != 1:
        return None
    l, k = int(l2), int(k)
    if l < 0 or k < 0:
        return None
    return (k, l)


def unit_weight(j):
    return tuple(Fraction(1 if t == j else 0) for t in range(4))


def spherical_fundamentals():
    """The fundamental weights of k with their spherical-lattice
    membership."""
    rs = k_root_system()
    # column j holds the pairings of the unit weight j with the simple roots
    columns = [{i: sca(p) for i, a in enumerate(rs.simple)
                if (p := rs.coroot_pairing(unit_weight(j), a))}
               for j in range(4)]
    out = []
    for i in range(4):
        coords = coordinates(columns, {i: ONE})
        w = tuple(coords.get(j, ZERO).rational_value() for j in range(4))
        out.append((w, label_of_weight(w) is not None))
    return out


def weight_diag(rep, coords_eval):
    """Diagonal operator mu -> coords_eval(mu) on each weight space, as a
    list of sparse columns."""
    op = [{} for _ in range(rep.dim)]
    for w, off in rep.offsets.items():
        v = coords_eval(w)
        if v:
            for t in range(rep.dims[w]):
                op[off + t][off + t] = v
    return op


def is_zero(op):
    return not any(op)


def op_sub(a, b):
    """The columns of a - b."""
    return [sub(x, y) for x, y in zip(a, b)]


@pytest.fixture(scope="module")
def modules(me):
    return {kl: build_module(me, *kl) for kl in LABELS}


@pytest.fixture(scope="module")
def uk2_m_basis(me):
    gens = m_generators(me)
    lw = {i: me.model.k_t_weights[i][1:] for i in range(36)}
    return invariants_up_to_degree(me.g, gens, 2, label_weights=lw,
                                   label_limit=36)


class TestWeylDimension:
    def test_trivial(self):
        assert weyl_dimension(xi_weight(0, 0)) == 1

    def test_vector_rep(self):
        # the nine-dimensional module sits at label (0, 1)
        assert weyl_dimension(xi_weight(0, 1)) == 9

    def test_spin_rep(self):
        assert weyl_dimension(xi_weight(1, 0)) == 16

    def test_adjoint(self):
        assert weyl_dimension(vec(0, 1, 1, 0)) == 36

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            weyl_dimension(vec(1, 0, 0, 0))

    def test_matches_the_fraction_formula(self):
        rs = k_root_system()
        fundamentals = [w for w, _ in spherical_fundamentals()]
        cases = [(rs, tuple(sum(n * w[c] for n, w in zip(ns, fundamentals))
                            for c in range(4)))
                 for ns in itertools.product(range(3), repeat=4)]
        cases += [(SL2, (Fraction(n),)) for n in range(5)]
        cases += [(root_system(*simple), vec(1, 0, 0, 0))
                  for simple in (B4_STANDARD, A3_IN_R4)]
        for rs, xi in cases:
            assert weyl_dimension(xi, rs) == fraction_weyl_dimension(xi, rs)


def fraction_weyl_dimension(xi, rs):
    """weyl_dimension as it was before it ran on the Cartan data: the
    product over the positive roots of (xi + rho, a) / (rho, a), on the
    rational coordinates."""
    rho = rs.rho
    num = den = Fraction(1)
    for a in rs.positives:
        num *= dot(tuple(x + r for x, r in zip(xi, rho)), a)
        den *= dot(rho, a)
    return num / den


class TestBuildIrrep:
    def test_sl2(self):
        for n in range(0, 5):
            rep = build_irrep(SL2, (Fraction(n),))
            assert rep.dim == n + 1

    @pytest.mark.parametrize("simple, dim", [(B4_STANDARD, 9), (A3_IN_R4, 4)],
                             ids=["B4-standard", "A3-in-R4"])
    def test_prediction_uses_the_given_roots(self, simple, dim):
        # the vector module of B4 and of A3, each in its own coordinates:
        # the Weyl formula must run over their roots, not over those of k
        rs = root_system(*simple)
        xi = vec(1, 0, 0, 0)
        assert weyl_dimension(xi, rs) == dim
        assert build_irrep(rs, xi).dim == dim

    def test_dims_match_oracle(self, modules):
        for (k, l), ctx in modules.items():
            assert ctx.rep.dim == weyl_dimension(xi_weight(k, l))

    def test_cap_enforced(self):
        with pytest.raises(ValueError) as err:
            build_irrep(k_root_system(), xi_weight(2, 2), cap=512)
        assert "exceeds the cap" in str(err.value)

    def test_determinism_under_candidate_order(self):
        # the quotient module is order-independent; the oracle builds it
        # with the candidates in reverse order
        a = build_irrep(k_root_system(), xi_weight(1, 1))
        b = fraction_keyed_build_irrep(k_root_system(), xi_weight(1, 1),
                                       reverse_candidates=True)
        assert_same_module(a, b)

    def test_bracket_relations_on_operators(self, modules):
        # [e_i, f_j] = delta_ij h_i as operators, checked exactly
        ctx = modules[(1, 0)]
        rep = ctx.rep
        rs = rep.data
        for i in range(4):
            for j in range(4):
                comm = commutator(rep.e_ops[i], rep.f_ops[j])
                if i != j:
                    assert is_zero(comm)
                else:
                    diag = weight_diag(rep, lambda mu: sca(
                        rs.coroot_pairing(mu, rs.simple[i])))
                    assert is_zero(op_sub(comm, diag))

    def test_serre_relations_via_action_basis(self, me, modules):
        # the action map is a Lie homomorphism on sampled pairs
        ctx = modules[(0, 1)]
        ka = me.model.k_algebra
        rng = random.Random(3)
        for _ in range(12):
            i, j = rng.randrange(36), rng.randrange(36)
            x, y = {i: ONE}, {j: ONE}
            lhs = commutator(ctx.action(x), ctx.action(y))
            rhs = ctx.action(ka.bracket(x, y))
            assert is_zero(op_sub(lhs, rhs))


def _dense_quotient_basis(gram_rows):
    """The dense path build_irrep took before the echelon: the rref pivots
    of the Gram matrix, then one solve per candidate over them."""
    nc = len(gram_rows)
    gram = Matrix([[row.get(b, ZERO) for b in range(nc)] for row in gram_rows])
    _, pivots = gram.rref()
    if not pivots:
        return [], [{} for _ in range(nc)]
    gm = Matrix([[gram.entries[a][b] for b in pivots] for a in pivots])
    coords = []
    for a in range(nc):
        sol = gm.solve([gram.entries[a][b] for b in pivots])
        coords.append({r: c for r, c in enumerate(sol) if c})
    return pivots, coords


def fraction_keyed_build_irrep(rs, xi, cap=512, reverse_candidates=False):
    """build_irrep as it was before weights were keyed by depth vectors:
    Fraction weights throughout, every Gram entry computed, the Gram
    matrices kept as dense Matrix objects, and the candidates at each
    weight optionally taken in reverse order.

    It is also the two-pass oracle for the one raising pass per weight:
    every Gram entry recomputes e_i f_j w_s for its pair, and the raising
    tables recompute the same vectors in a second loop."""
    rank = rs.rank

    def pairing(w, i):
        return rs.coroot_pairing(w, rs.simple[i])

    for i in range(rank):
        p = pairing(xi, i)
        if p < 0 or p.denominator != 1:
            raise ValueError("weight %r is not dominant integral" % (xi,))
    predicted = repth.weyl_dimension(xi, rs)
    if predicted > cap:
        raise ValueError("predicted dimension %d exceeds the cap %d"
                         % (predicted, cap))

    dims = {xi: 1}
    grams = {xi: Matrix([[ONE]])}
    # E[i][mu]: list over basis of V_mu of vectors over basis of V_{mu+a_i}
    e_data = [dict() for _ in range(rank)]
    # F[i][nu]: list over basis of V_nu of vectors over basis of V_{nu-a_i}
    f_data = [dict() for _ in range(rank)]
    for i in range(rank):
        e_data[i][xi] = [dict()]

    level = [xi]
    total = 1
    while level:
        nxt = set()
        for w in level:
            for i in range(rank):
                lower = tuple(x - a for x, a in zip(w, rs.simple[i]))
                nxt.add(lower)
        new_level = []
        for mu in sorted(nxt):
            cands = []
            for i in range(rank):
                up = tuple(x + a for x, a in zip(mu, rs.simple[i]))
                for t in range(dims.get(up, 0)):
                    cands.append((i, t))
            if reverse_candidates:
                cands = cands[::-1]
            if not cands:
                continue
            # pairings <f_i u, f_j w> = <u, f_j e_i w> + d_ij <mu+a_i, a_i~> <u, w>
            def raise_then_lower(i, j, t):
                # e_i applied to basis vector t of V_{mu + a_j}, then f_j down
                up_j = tuple(x + a for x, a in zip(mu, rs.simple[j]))
                up_ij = tuple(x + a for x, a in zip(up_j, rs.simple[i]))
                fj = f_data[j].get(up_ij)
                if fj is None:
                    return {}
                return combine(e_data[i][up_j][t], fj)

            gram_rows = []
            for i, t in cands:
                up_i = tuple(x + a for x, a in zip(mu, rs.simple[i]))
                g = grams[up_i]
                row = {}
                for b_idx, (j, s) in enumerate(cands):
                    vecv = raise_then_lower(i, j, s)
                    if i == j:
                        hval = pairing(up_i, i)
                        if hval:
                            vecv = add(vecv, {s: sca(hval)})
                    # pair with gram at up_i against basis vector t
                    acc = ZERO
                    for r, c in vecv.items():
                        acc = acc + g.entries[t][r] * c
                    if acc:
                        row[b_idx] = acc
                gram_rows.append(row)
            pivots, coords = repth._quotient_basis(gram_rows)
            dim_mu = len(pivots)
            if dim_mu == 0:
                continue
            total += dim_mu
            if total > cap:
                raise ValueError(
                    "dimension exceeds cap %d while building (prediction %s)"
                    % (cap, predicted))
            dims[mu] = dim_mu
            grams[mu] = Matrix([[gram_rows[a].get(b, ZERO) for b in pivots]
                                for a in pivots])
            # record lowering data f_i: V_{mu+a_i} -> V_mu
            for i in range(rank):
                up = tuple(x + a for x, a in zip(mu, rs.simple[i]))
                if up in dims:
                    table = [dict() for _ in range(dims[up])]
                    for a_idx, (ii, t) in enumerate(cands):
                        if ii == i:
                            table[t] = coords[a_idx]
                    f_data[i][up] = table
            # raising data e_i on the new basis: pivot a = (j, s) means f_j w_s
            for i in range(rank):
                up_i = tuple(x + a for x, a in zip(mu, rs.simple[i]))
                table = []
                for a_idx in pivots:
                    j, s = cands[a_idx]
                    vecv = raise_then_lower(i, j, s)
                    if i == j:
                        up_j = tuple(x + a for x, a in zip(mu, rs.simple[j]))
                        hval = pairing(up_j, i)
                        if hval:
                            vecv = add(vecv, {s: sca(hval)})
                    table.append(vecv if up_i in dims else dict())
                e_data[i][mu] = table
            new_level.append(mu)
        level = new_level

    if total != predicted:
        raise AssertionError("constructed dimension %d != predicted %d"
                             % (total, predicted))
    # flatten
    order = sorted(dims)
    offsets = {}
    off = 0
    weights_of_index = []
    for w in order:
        offsets[w] = off
        off += dims[w]
        weights_of_index.extend([w] * dims[w])
    e_ops = [[{} for _ in range(total)] for _ in range(rank)]
    f_ops = [[{} for _ in range(total)] for _ in range(rank)]
    for w in order:
        for i in range(rank):
            up = tuple(x + a for x, a in zip(w, rs.simple[i]))
            if w in e_data[i] and up in offsets:
                for t, v in enumerate(e_data[i][w]):
                    for r, c in v.items():
                        e_ops[i][offsets[w] + t][offsets[up] + r] = c
            if up in offsets and up in f_data[i]:
                for t, v in enumerate(f_data[i][up]):
                    for r, c in v.items():
                        f_ops[i][offsets[up] + t][offsets[w] + r] = c
    return repth.Irrep(data=rs, highest=xi, dims=dims, offsets=offsets,
                       dim=total, grams=grams, e_ops=e_ops, f_ops=f_ops,
                       weights_of_index=weights_of_index)


def _gram_entries(g):
    """A Gram matrix as dense rows: Irrep.grams holds symmetric sparse
    rows, the Fraction-keyed oracle a dense Matrix."""
    if isinstance(g, Matrix):
        return g.entries
    return [[row.get(b, ZERO) for b in range(len(g))] for row in g]


def _irrep_fields(rep):
    """Every field of an Irrep, with each dict's key order."""
    return (rep.data, rep.highest, list(rep.dims.items()),
            list(rep.offsets.items()), rep.dim,
            [(w, _gram_entries(g)) for w, g in rep.grams.items()],
            [[list(col.items()) for col in op] for op in rep.e_ops],
            [[list(col.items()) for col in op] for op in rep.f_ops],
            rep.weights_of_index,
            [tuple(map(type, w)) for w in rep.weights_of_index])


def assert_same_module(a, b):
    """Two builds of one module on different bases of its weight spaces:
    the same weights, multiplicities and layout, and congruent Gram
    matrices, whose determinants agree up to a nonzero square factor."""
    assert (a.highest, a.dim, list(a.dims.items()),
            list(a.offsets.items()), a.weights_of_index) == \
        (b.highest, b.dim, list(b.dims.items()), list(b.offsets.items()),
         b.weights_of_index)
    for w in a.grams:
        ratio = Matrix(_gram_entries(a.grams[w])).det() \
            / Matrix(_gram_entries(b.grams[w])).det()
        assert ratio.is_rational() and ratio.rational_value() > 0


class TestIntegerKeys:
    # the cap admits (1,2), of dimension 576, and bounds nothing else
    @pytest.mark.parametrize("kl", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2),
                                    (1, 2)], ids=str)
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_k_modules_match_fraction_keys(self, kl, reverse):
        rs, xi = k_root_system(), xi_weight(*kl)
        got = build_irrep(rs, xi, cap=1024)
        want = fraction_keyed_build_irrep(rs, xi, cap=1024,
                                          reverse_candidates=reverse)
        if reverse:
            assert_same_module(got, want)
        else:
            assert _irrep_fields(got) == _irrep_fields(want)

    def test_sl2_matches_fraction_keys(self):
        for n in range(0, 5):
            xi = (Fraction(n),)
            got = build_irrep(SL2, xi)
            want = fraction_keyed_build_irrep(SL2, xi)
            assert _irrep_fields(got) == _irrep_fields(want)

    def test_nonintegral_cartan_matrix_rejected(self):
        # the root system, and so the module builder, needs integral
        # Cartan pairings
        with pytest.raises(ValueError, match="Cartan"):
            root_system((2, 0), (1, Fraction(1, 3)))


class TestDenseOracles:
    @pytest.mark.parametrize("kl, cap", [(kl, 512) for kl in LABELS]
                             + [((1, 2), 1024)], ids=str)
    def test_build_irrep_matches_dense_elimination(self, monkeypatch, kl,
                                                    cap):
        rs, xi = k_root_system(), xi_weight(*kl)
        got = build_irrep(rs, xi, cap=cap)
        monkeypatch.setattr(repth, "_quotient_basis", _dense_quotient_basis)
        want = build_irrep(rs, xi, cap=cap)
        assert got.dims == want.dims
        assert got.offsets == want.offsets
        assert got.grams == want.grams
        assert got.e_ops == want.e_ops
        assert got.f_ops == want.f_ops

    def test_spherical_fundamentals_match_solve(self):
        rs = k_root_system()
        mat = Matrix([[sca(rs.coroot_pairing(unit_weight(j), a))
                       for j in range(4)] for a in rs.simple])
        want = []
        for i in range(4):
            sol = mat.solve([ONE if t == i else ZERO for t in range(4)])
            want.append(tuple(c.rational_value() for c in sol))
        assert [w for w, _ in spherical_fundamentals()] == want

    def test_action_matches_the_chain_of_copies(self, me, modules):
        # the action once copied the whole operator for every word
        ctx = modules[(1, 1)]
        rng = random.Random(11)
        samples = [{i: ONE} for i in range(0, 36, 7)] + [
            {i: sca(rng.randint(-3, 3)) for i in rng.sample(range(36), 6)}
            for _ in range(3)]
        for x in samples:
            x = {i: c for i, c in x.items() if c}
            old = [{} for _ in range(ctx.rep.dim)]
            for i, c in ctx.basis.coords(x).items():
                old = [add(col, scale(c, word_col))
                       for col, word_col in zip(old, ctx.word_op(i))]
            assert ctx.action(x) == old


def eager_word_ops(basis, rep):
    """The word operators as formed before they were built on demand:
    every word in order, each bracket word from the operator of its
    target."""
    ops = []
    for word in basis.words:
        if word[0] == "e":
            ops.append(rep.e_ops[word[1]])
        elif word[0] == "f":
            ops.append(rep.f_ops[word[1]])
        else:
            _, (kind, idx), target = word
            gen = rep.e_ops[idx] if kind == "e" else rep.f_ops[idx]
            ops.append(commutator(gen, ops[target]))
    return ops


class TestWordOps:
    @pytest.mark.parametrize("kl", [(1, 1), (2, 0), (0, 2), (1, 2)], ids=str)
    def test_on_demand_matches_the_eager_chain(self, me, kl):
        rep = build_irrep(k_root_system(), xi_weight(*kl), cap=1024)
        basis = action_basis(me)
        ctx = ModuleContext(rep, basis)
        eager = eager_word_ops(basis, rep)
        order = list(range(36))
        random.Random(10 * kl[0] + kl[1]).shuffle(order)
        assert len(basis.words) == len(eager) == 36
        for i in order:
            assert ctx.word_op(i) == eager[i]

    @pytest.mark.parametrize("kl", [(1, 1), (2, 0)], ids=str)
    def test_action_matches_the_eager_action(self, me, modules, kl):
        ctx = modules[kl]
        eager = eager_word_ops(ctx.basis, ctx.rep)
        for j in range(36):
            x = {j: ONE}
            want = [{} for _ in range(ctx.rep.dim)]
            for i, c in ctx.basis.coords(x).items():
                for col, word_col in zip(want, eager[i]):
                    accumulate(col, word_col, c)
            assert ctx.action(x) == want

    def test_module_checks_form_nine_commutators(self, me, monkeypatch):
        # the six m generators and Xdelta, E, X1, Xm1 reach 17 of the 36
        # words, 9 of them brackets; the eager chain formed all 28
        calls = []

        def counted(a, b):
            calls.append(1)
            return commutator(a, b)

        monkeypatch.setattr(repth, "commutator", counted)
        ctx = build_module(me, 1, 1)
        m_invariants(ctx, me)
        assert verify_hw3iv(ctx, me, 1, 1).ok
        assert verify_techo(ctx, me, 1, 1).ok
        assert len(calls) == 9
        assert sum(w[0] == "br" for w in ctx.basis.words) == 28


def eval_weight(me, w, h):
    """w(h) for a toral h of k, by reading the coordinate out of each
    label Ht1..Ht4: the simple pairs were once scaled by this."""
    labels = me.model.k_algebra.labels
    acc = ZERO
    for i, c in h.items():
        lab = labels[i]
        if not lab.startswith("Ht"):
            raise ValueError("bracket is not toral")
        acc = acc + c * sca(w[int(lab[2]) - 1])
    return acc


class TestSimplePairs:
    def test_scalar_matches_the_label_reading(self, me):
        # alpha_i(h) read from [h, e_i] = alpha_i(h) e_i, for the unscaled
        # lowering vector, against the coordinates of the Ht labels; the
        # scaled pair then has alpha_i([e_i, f_i]) = 2
        from f4workbench.liealg import _ratio
        ka = me.model.k_algebra
        basis = action_basis(me)
        for a, e, f in zip(k_root_system().simple, basis.e_vecs,
                           basis.f_vecs):
            cand = me.lie_in_mixed(me.model.distinguished[
                repth._SIMPLE_VECTOR_NAMES[a][1]])
            h = ka.bracket(e, cand)
            assert _ratio(ka.bracket(h, e), e) == eval_weight(me, a, h)
            assert eval_weight(me, a, ka.bracket(e, f)) == sca(2)


class TestMInvariants:
    def test_trivial_module(self, me, modules):
        assert len(m_invariants(modules[(0, 0)], me)) == 1

    def test_multiplicities_measured(self, me, modules):
        # each spherical label carries a one-dimensional invariant space
        for kl, ctx in modules.items():
            assert len(m_invariants(ctx, me)) == 1

    def test_non_spherical_fundamental_empty(self, me):
        # the adjoint weight is not on the two-parameter lattice and
        # carries no invariant vector
        assert label_of_weight(vec(0, 1, 1, 0)) is None
        ctx = ModuleContext(build_irrep(k_root_system(), vec(0, 1, 1, 0)),
                            action_basis(me))
        assert m_invariants(ctx, me) == []

    def test_fundamental_lattice_membership(self):
        flags = [s for _, s in spherical_fundamentals()]
        assert flags.count(True) == 2
        assert flags.count(False) == 2


class TestHw3iv:
    def test_all_labels(self, me, modules):
        for (k, l), ctx in modules.items():
            rep = verify_hw3iv(ctx, me, k, l)
            assert rep.ok, ((k, l), rep.details)

    def test_boundary_cases_explicit(self, me, modules):
        # (0,1): E v nonzero, E^2 v = 0, Xdelta v = 0
        ctx = modules[(0, 1)]
        v = m_invariants(ctx, me)[0]
        e = ctx.action_named(me, "E")
        xd = ctx.action_named(me, "Xdelta")
        assert combine(v, e)
        assert not combine(combine(v, e), e)
        assert not combine(v, xd)
        # (1,0): Xdelta v nonzero, Xdelta^2 v = 0, Xdelta E v = 0
        ctx = modules[(1, 0)]
        v = m_invariants(ctx, me)[0]
        e = ctx.action_named(me, "E")
        xd = ctx.action_named(me, "Xdelta")
        assert combine(v, xd)
        assert not combine(combine(v, xd), xd)
        assert not combine(combine(v, e), xd)
        assert not combine(combine(v, xd), e)


class TestTecho:
    def test_all_labels(self, me, modules):
        for (k, l), ctx in modules.items():
            rep = verify_techo(ctx, me, k, l)
            assert rep.ok, ((k, l), rep.details)

    def test_singleton_for_k_zero(self, me, modules):
        ctx = modules[(0, 1)]
        v = m_invariants(ctx, me)[0]
        e = ctx.action_named(me, "E")
        assert combine(v, e)   # the one-element chain is a basis

    def test_explicit_lowering_scalar(self, me, modules):
        # at (1,1), lowering the extreme vector gives 2*1*1/(1+1) = 1
        # times the next chain vector; at (1,0) the scalar is 2
        ctx = modules[(1, 0)]
        v = m_invariants(ctx, me)[0]
        e = ctx.action_named(me, "E")
        xd = ctx.action_named(me, "Xdelta")
        xm1 = ctx.action_named(me, "Xm1")
        u = combine(v, xd)
        lowered = combine(u, xm1)
        expect = {i: sca(2) * c for i, c in combine(v, e).items()}
        assert lowered == expect


def lowering_chain(xd, e, v, k, l):
    """The vectors Xdelta^{k-j} E^{l+j} v for 0 <= j <= k, each raised
    from v on its own: the chain verify_techo read before raising_grid,
    kept as its oracle."""
    chain = []
    for j in range(0, k + 1):
        w = v
        for _ in range(l + j):
            w = combine(w, e)
        for _ in range(k - j):
            w = combine(w, xd)
        chain.append(w)
    return chain


class TestRaisingGrid:
    @pytest.mark.parametrize("kl", LABELS + [(0, 2), (1, 2), (2, 1)], ids=str)
    def test_grid_matches_the_separate_raisings(self, me, modules, kl):
        ctx = modules.get(kl) or build_module(me, *kl, cap=1024)
        k, l = kl
        xd = ctx.action_named(me, "Xdelta")
        e = ctx.action_named(me, "E")
        v, = m_invariants(ctx, me)
        # the chain verify_techo reads, against the oracle
        grid = raising_grid(ctx, me, v, k, k + l)
        assert [grid[l + j][k - j] for j in range(k + 1)] \
            == lowering_chain(xd, e, v, k, l)
        # every cell verify_hw3iv reads, each raised on its own
        grid = raising_grid(ctx, me, v, k + 1, k + l + 1)
        assert len(grid) == k + l + 2
        for q, row in enumerate(grid):
            assert len(row) == k + 2
            for p, w in enumerate(row):
                want = v
                for op in [e] * q + [xd] * p:
                    want = combine(want, op)
                assert w == want, (q, p)

    def test_module_checks_form_each_action_once(self, me, monkeypatch):
        # the six m generators and Xdelta, E, X1, Xm1; the two checks
        # once formed Xdelta and E each
        calls = []
        action = ModuleContext.action

        def counted(self, x):
            calls.append(1)
            return action(self, x)

        monkeypatch.setattr(ModuleContext, "action", counted)
        ctx = build_module(me, 2, 0)
        m_invariants(ctx, me)
        assert verify_hw3iv(ctx, me, 2, 0).ok
        assert verify_techo(ctx, me, 2, 0).ok
        assert len(calls) == 10
        assert ctx.action_named(me, "E") is ctx.action_named(me, "E")
        assert len(calls) == 10


class TestChainRankOracle:
    def test_echelon_rank_matches_dense(self, me, modules):
        # the lowering chain of verify_techo at (2, 0), densified
        ctx = modules[(2, 0)]
        xd = ctx.action_named(me, "Xdelta")
        e = ctx.action_named(me, "E")
        invariants = m_invariants(ctx, me)
        assert invariants
        for v in invariants:
            chain = lowering_chain(xd, e, v, 2, 0)
            idxs = sorted({i for w in chain for i in w})

            def dense(vectors):
                return Matrix([[w.get(i, ZERO) for w in vectors]
                               for i in idxs]).rank()
            assert len(Echelon(chain)) == dense(chain) == 3
            # a dependent vector raises neither rank
            extra = chain + [{i: chain[0].get(i, ZERO) + chain[2].get(i, ZERO)
                              for i in idxs}]
            assert len(Echelon(extra)) == dense(extra) == 3


class TestKostantDegree:
    def test_unit(self, me):
        assert degree_machine(me).degree(me.g.one()) == 0

    def test_invariant_space_dimension(self, uk2_m_basis):
        assert len(uk2_m_basis) == 4

    def test_centralizer_casimir(self, me):
        from f4workbench.uea import model_casimir_m
        dm = degree_machine(me)
        d = dm.degree(model_casimir_m(me))
        assert d in (0, 2, 4)
        assert d == 4   # measured value, fixed by the component split

    def test_casimir_components(self, me):
        from f4workbench.uea import model_casimir_m
        dm = degree_machine(me)
        comps = dm.components(model_casimir_m(me))
        assert set(comps) == {(0, 0), (2, 0), (0, 2)}
        # classes realized inside U(k) carry even first labels only
        assert all(k % 2 == 0 for (k, _) in comps)
        total = me.g.zero()
        for c in comps.values():
            total = add(total, c)
        from f4workbench.uea import model_casimir_m as mc
        assert total == mc(me)

    def test_degree_bound_sampled(self, me, uk2_m_basis):
        rng = random.Random(7)
        dm = degree_machine(me)
        for _ in range(6):
            u = me.g.zero()
            for b in uk2_m_basis:
                u = add(u, scale(sca(rng.randint(-3, 3)), b))
            if u:
                assert dm.degree(u) <= 4

    def test_non_invariant_rejected(self, me):
        dm = degree_machine(me)
        with pytest.raises(ValueError):
            dm.degree(me.g.gen("E"))

    def test_outside_uk_rejected(self, me):
        dm = degree_machine(me)
        with pytest.raises(ValueError):
            dm.degree(me.g.gen("Z"))


def degrees(me, u, v):
    """(d(u), d(v), d(uv)) of two invariants."""
    dm = degree_machine(me)
    return dm.degree(u), dm.degree(v), dm.degree(me.g.mul(u, v))


class TestAdditivity:
    def test_units(self, me):
        assert degrees(me, me.g.one(), me.g.one()) == (0, 0, 0)

    def test_unit_times_casimir(self, me):
        from f4workbench.uea import model_casimir_m
        d_u, d_v, d_uv = degrees(me, me.g.one(), model_casimir_m(me))
        assert d_uv == d_u + d_v

    def test_sampled_pairs(self, me, uk2_m_basis):
        rng = random.Random(11)
        done = 0
        while done < 3:
            u = me.g.zero()
            v = me.g.zero()
            for b in uk2_m_basis:
                u = add(u, scale(sca(rng.randint(-2, 2)), b))
                v = add(v, scale(sca(rng.randint(-2, 2)), b))
            if not u or not v:
                continue
            d_u, d_v, d_uv = degrees(me, u, v)
            assert d_uv == d_u + d_v, (d_u, d_v, d_uv)
            done += 1

    def test_subadditivity_of_sums(self, me, uk2_m_basis):
        dm = degree_machine(me)
        rng = random.Random(13)
        for _ in range(4):
            u = me.g.zero()
            v = me.g.zero()
            for b in uk2_m_basis:
                u = add(u, scale(sca(rng.randint(-2, 2)), b))
                v = add(v, scale(sca(rng.randint(-2, 2)), b))
            s = add(u, v)
            if not u or not v or not s:
                continue
            assert dm.degree(s) <= max(dm.degree(u), dm.degree(v))


class TestProductIdentities:
    """Raising-derivation identities for products of pure invariants."""

    def test_on_pure_components(self, me):
        from f4workbench.uea import model_casimir_m
        dm = degree_machine(me)
        comps = dm.components(model_casimir_m(me))
        u = comps[(2, 0)]   # type (k, s) = (2, 0): p = 2
        v = comps[(0, 2)]   # type (l, s') = (0, 2): q = 4
        k, l = 2, 0
        p, q = 2, 4
        uv = me.g.mul(u, v)
        xd = me.lie_in_mixed(me.model.distinguished["Xdelta"])
        e = me.lie_in_mixed(me.model.distinguished["E"])
        # (k + l + 1)-fold raising kills the product
        assert me.g.ad_power(xd, uv, k + l + 1) == {}
        # the (k + l)-fold raising equals the binomial times the product
        # of the raised factors
        from math import comb
        lhs = me.g.ad_power(xd, uv, k + l)
        du = me.g.ad_power(xd, u, k)
        dv = me.g.ad_power(xd, v, l)
        rhs = scale(sca(comb(k + l, l)), me.g.mul(du, dv))
        assert lhs == rhs and lhs
        # mixed double raising with both binomials
        lhs2 = me.g.ad_power(e, me.g.ad_power(xd, uv, k + l),
                             (p + q - k - l) // 2)
        du2 = me.g.ad_power(e, me.g.ad_power(xd, u, k), (p - k) // 2)
        dv2 = me.g.ad_power(e, me.g.ad_power(xd, v, l), (q - l) // 2)
        c = comb(k + l, l) * comb((p + q - k - l) // 2, (q - l) // 2)
        rhs2 = scale(sca(c), me.g.mul(du2, dv2))
        assert lhs2 == rhs2 and lhs2


def dominant_in_ideal_slice(me, target, max_degree=2):
    """Joint kernel of (Cartan - target) and the simple raisings on the
    filtration slice of the nilradical left ideal; empty means no
    dominant vector of that weight lives in the ideal."""
    monos = [()]
    for _ in range(max_degree):
        out = set(monos)
        for m in monos:
            start = m[-1][0] if m else 0
            for g in range(start, 36):
                if m and m[-1][0] == g:
                    out.add(m[:-1] + ((g, m[-1][1] + 1),))
                else:
                    out.add(m + ((g, 1),))
        monos = sorted(out)
    tw = me.model.k_t_weights
    space = []
    for m in monos:
        if not m or m[-1][0] < 27:       # must end in the nilradical block
            continue
        w = [Fraction(0)] * 4
        for idx, e in m:
            for t in range(4):
                w[t] += e * tw[idx][t]
        if tuple(w[1:]) == tuple(target[1:]):   # match the torus part
            space.append({m: ONE})
    if not space:
        return []
    ops = []
    for ci in (1, 2, 3, 4):
        h = me.lie_in_mixed(me.model.distinguished["Ht%d" % ci])
        ops.append((h, sca(target[ci - 1])))
    k_idx = me.model.k_algebra.index
    raisers = [{k_idx["D4"]: ONE, k_idx["Xdelta2"]: ONE},
               {k_idx["T34"]: ONE},
               {k_idx["Xdelta2"]: ONE},
               {k_idx["X1"]: ONE}]
    for r in raisers:
        ops.append((r, None))
    for x, eig in ops:
        if not space:
            break
        images = []
        for u in space:
            im = me.g.ad(x, u)
            if eig is not None:
                im = sub(im, scale(eig, u))
            images.append(im)
        idxs = sorted({m for im in images for m in im})
        if not idxs:
            continue
        mat = Matrix([[images[c].get(m, ZERO) for c in range(len(space))]
                      for m in idxs])
        new_space = []
        for coords in mat.nullspace():
            v = me.g.zero()
            for c, b in zip(coords, space):
                if c:
                    v = add(v, scale(c, b))
            if v:
                new_space.append(v)
        space = new_space
    return space


class TestDominantInIdeal:
    def test_weight_slices_are_zero(self, me):
        # dominant vectors of spherical weight inside the nilradical left
        # ideal are exactly zero: checked on low filtration slices
        from f4workbench.rootdata import gamma_basis, vadd
        g = gamma_basis()
        for target in (vadd(g["gamma4"], g["delta"]),
                       g["gamma3"],
                       vadd(vadd(g["gamma4"], g["delta"]), g["gamma3"])):
            assert dominant_in_ideal_slice(me, target, max_degree=2) == []


def _dense_invariants(engine, sub_basis, max_degree, label_weights,
                      label_limit):
    """invariants_up_to_degree as it ran on dense Matrix.nullspace."""
    n = label_limit
    level = [()]
    for _ in range(max_degree):
        out = set(level)
        for m in level:
            start = m[-1][0] if m else 0
            for g in range(start, n):
                if m and m[-1][0] == g:
                    out.add(m[:-1] + ((g, m[-1][1] + 1),))
                else:
                    out.add(m + ((g, 1),))
        level = sorted(out)
    zero = tuple(Fraction(0) for _ in next(iter(label_weights.values())))

    def mono_weight(m):
        acc = list(zero)
        for i, e in m:
            for j in range(len(acc)):
                acc[j] += e * label_weights[i][j]
        return tuple(acc)

    space = [{m: ONE} for m in level if mono_weight(m) == zero]
    for x in sub_basis:
        if not space:
            break
        images = [engine.ad(x, u) for u in space]
        img_monos = sorted({m for im in images for m in im})
        if not img_monos:
            continue
        mat = Matrix([[images[i].get(m, ZERO) for i in range(len(space))]
                      for m in img_monos])
        new_space = []
        for coords in mat.nullspace():
            u = {}
            for c, v in zip(coords, space):
                if c:
                    u = add(u, scale(c, v))
            if u:
                new_space.append(u)
        space = new_space
    return space


class TestEchelonOracles:
    def test_invariants_match_the_dense_loop(self, me, uk2_m_basis):
        gens = m_generators(me)
        lw = {i: me.model.k_t_weights[i][1:] for i in range(36)}
        dense = _dense_invariants(me.g, gens, 2, lw, 36)
        # same vectors in the same order, each with the same term order
        assert [list(u.items()) for u in uk2_m_basis] == \
            [list(u.items()) for u in dense]

    def test_engine_caches_do_not_keep_the_engine_alive(self):
        import gc
        import weakref
        from f4workbench.liealg import build_f4_model
        from f4workbench.uea import ModelEngine
        engine = ModelEngine(build_f4_model())
        degree_machine(engine)
        build_module(engine, 0, 0)
        ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert ref() is None


class TestInvariantCache:
    @staticmethod
    def _joint_kernel(ctx, me):
        """m_invariants before the cache: one joint solve per call."""
        space = [{i: ONE} for i in range(ctx.rep.dim)]
        for gvec in m_generators(me):
            op = ctx.action(gvec)
            space = [combine(c, space)
                     for c in repth.kernel([combine(v, op) for v in space])]
            if not space:
                break
        return space

    @pytest.mark.parametrize("kl", LABELS)
    def test_one_solve_per_module(self, me, modules, monkeypatch, kl):
        import dataclasses
        from f4workbench import repth
        from f4workbench.cli import _module_checks
        solves = []
        kernel = repth.kernel

        def counted(images):
            solves.append(len(images))
            return kernel(images)

        monkeypatch.setattr(repth, "kernel", counted)
        # a context without a cached solve, sharing the module's operators
        fresh = dataclasses.replace(modules[kl], invariants=None)
        want = self._joint_kernel(fresh, me)
        one_solve = list(solves)
        assert one_solve
        del solves[:]
        # the invariant, boundary and chain checks of verify repth
        checks = _module_checks(me, kl, 512, {kl: fresh})[1:]
        assert [fn()[0] for _, fn in checks] == [True] * 3
        assert solves == one_solve
        assert [list(v.items()) for v in m_invariants(fresh, me)] == \
            [list(v.items()) for v in want]
        assert solves == one_solve


def components_oracle(dm, u, apply=None):
    """components() without the integer chain or any pruning: the Krylov
    vectors come from apply (by default the whole C_k, casimir_apply) as
    Scalars, the relation and the projectors run on them through Echelon
    and combine, and each label is read off both raising chains."""
    apply = apply or dm.casimir_apply
    span = Echelon()
    krylov = []
    cur = u
    while True:
        relation = span.add(cur)
        if relation is not None:
            break
        krylov.append(cur)
        cur = apply(cur)
    poly = PolyScalar([-relation.get(t, ZERO) for t in range(len(krylov))]
                      + [ONE])
    roots, _ = rational_roots(poly)
    out = {}
    for root in sorted(set(roots)):
        quot = poly.exact_div(PolyScalar([-sca(root), ONE]))
        norm = quot.evaluate(sca(root)).inverse()
        comp = combine({t: norm * c for t, c in enumerate(quot.coeffs)},
                       krylov)
        if comp:
            out[dm._type_of_pure(dm.me.g.to_core(comp)[:2])] = comp
    return out


class TestPerpCasimir:
    """components() runs its Krylov chain through C_k with the passes that
    begin with ad of a label in m dropped, and after the first application
    also those of every label that kills the input.  On M-invariants the
    static chain must agree with the whole C_k (casimir_apply), with the
    plain pair sum over dual bases of k, and with the whole tensor of
    C_perp, the Casimir of the orthocomplement of m in k (C_k = C_m +
    C_perp, and C_m kills every M-invariant), on every Krylov vector; and
    the pruned chain must give the components of both unpruned ones."""

    @pytest.fixture(scope="class")
    def pair_sum(self, me):
        model = me.model
        kb = [{i: ONE} for i in range(36)]

        def fv(x, y):
            return model.b(model.in_chevalley(x), model.in_chevalley(y))

        pairs = list(zip(kb, dual_basis(kb, fv, kb)))

        def apply(u):
            out = {}
            for x, xd in pairs:
                out = add(out, me.g.ad(x, me.g.ad(xd, u)))
            return out

        return apply

    @pytest.fixture(scope="class")
    def whole_perp(self, me):
        """The triangular C_perp tensor with every label kept: an oracle
        for the degree machine's tensor built without C_k."""
        model = me.model
        perp = orthocomplement(model, model.subspaces["m"],
                               model.subspaces["k"])
        return _casimir_of(me, [me.lie_in_mixed(x) for x in perp.rows()])

    @pytest.fixture(scope="class")
    def product(self, me, uk2_m_basis):
        # as in the degree_products benchmark: u, v in the span of the unit
        # and the smallest quadratic invariant
        one, quad = sorted(uk2_m_basis, key=len)[:2]
        u = add(scale(sca(3), one), scale(sca(-5), quad))
        v = add(scale(sca(-7), one), scale(sca(2), quad))
        return me.g.mul(u, v)

    @pytest.fixture(scope="class")
    def oracle_inputs(self, me, uk2_m_basis, product):
        """The unit, Omega_k (every label kills it), the smallest quadratic,
        1 + sqrt2 times it (rational core part killed by every label, the
        sqrt2 part not), the degree-8 product and two generic samples of
        U(k)^M_{<=2}."""
        quad = sorted(uk2_m_basis, key=len)[1]
        rng = random.Random(11)
        samples = []
        for _ in range(2):
            x = {}
            for b in uk2_m_basis:
                c = rng.choice((-1, 1)) * rng.randrange(1, 2 ** 30)
                x = add(x, scale(sca(c), b))
            samples.append(x)
        return {"unit": me.g.one(),
                "casimir_k": _casimir_element(me.g,
                                              degree_machine(me)._casimir),
                "quadratic": quad,
                "sqrt2_quadratic": add(me.g.one(), scale(Scalar(0, 1), quad)),
                "product": product,
                "sample0": samples[0], "sample1": samples[1]}

    @staticmethod
    def perp_apply(dm, u, tensor=None):
        eng = dm.me.g
        return eng.from_core(*_casimir_step(
            eng, dm._casimir_on_invariants if tensor is None else tensor,
            eng.to_core(u)))

    @staticmethod
    def without_m(me, tensor):
        """tensor with every inner and shift label in m dropped."""
        model = me.model
        m = model.subspaces["m"]

        def in_m(h):
            return m.contains(model.in_chevalley({h: ONE}))

        inner, shift, den = tensor
        return ([(h, y) for h, y in inner if not in_m(h)],
                {h: c for h, c in shift.items() if not in_m(h)}, den)

    @staticmethod
    def dropped_labels(dm):
        """The inner and shift labels of C_k that the chain's tensor leaves
        out."""
        inner, shift, _ = dm._casimir_on_invariants
        kept = {h for h, _ in inner} | set(shift)
        whole_inner, whole_shift, _ = dm._casimir
        return ({h for h, _ in whole_inner} | set(whole_shift)) - kept

    def _check_chain(self, me, pair_sum, whole_perp, u):
        """C_k with the m labels dropped = the whole C_k (= the pair sum)
        = the whole C_perp on C^t u for t = 0 .. d, d the degree of the
        minimal polynomial, and ad of each dropped label kills C^t u."""
        dm = degree_machine(me)
        d = len(components_oracle(dm, u))
        dropped = self.dropped_labels(dm)
        vectors = [u]
        for _ in range(d):
            v = vectors[-1]
            for h in dropped:
                assert me.g.ad({h: ONE}, v) == {}, h
            got = self.perp_apply(dm, v)
            assert got == self.perp_apply(dm, v, whole_perp)
            assert got == dm.casimir_apply(v)
            assert got == pair_sum(v)
            vectors.append(got)
        assert len(Echelon(vectors)) == d
        return vectors

    def test_tensor_sizes(self, me, whole_perp):
        def sizes(tensor):
            inner, shift, _ = tensor
            return len(inner), sum(len(y) for _, y in inner), len(shift)

        dm = DegreeMachine(me)
        assert sizes(dm._casimir) == (20, 23, 3)
        assert sizes(dm._casimir_on_invariants) == (8, 11, 0)
        assert sizes(whole_perp) == (11, 17, 3)

    def test_chain_tensor_is_filtered_perp(self, me, whole_perp):
        dm = degree_machine(me)
        assert dm._casimir_on_invariants == self.without_m(me, dm._casimir)
        assert dm._casimir_on_invariants == self.without_m(me, whole_perp)

    def test_dropped_labels_lie_in_m(self, me):
        model = me.model
        labels = model.g_algebra.labels
        dropped = self.dropped_labels(degree_machine(me))
        assert {labels[h] for h in dropped} == \
            {"Ht2", "Ht3", "Ht4", "D2", "D3", "D4", "T23", "T24", "T34",
             "X2", "S23", "S24"}
        for h in dropped:
            assert model.subspaces["m"].contains(model.in_chevalley({h: ONE}))

    def test_degree_two_invariants(self, me, pair_sum, whole_perp,
                                   uk2_m_basis):
        for u in uk2_m_basis:
            self._check_chain(me, pair_sum, whole_perp, u)

    def test_casimir_of_m(self, me, pair_sum, whole_perp):
        from f4workbench.uea import model_casimir_m
        self._check_chain(me, pair_sum, whole_perp, model_casimir_m(me))

    def test_omega_constant_coefficient(self, me, pair_sum, whole_perp,
                                        omega_report):
        self._check_chain(me, pair_sum, whole_perp,
                          omega_report.omega.coeff(0))

    def test_product_krylov_vectors(self, me, pair_sum, whole_perp, product):
        vectors = self._check_chain(me, pair_sum, whole_perp, product)
        assert len(vectors) == 4
        assert [len(v) for v in vectors][-1] > 500

    def test_differs_off_invariants(self, me, pair_sum):
        dm = degree_machine(me)
        x = me.g.gen("T23")
        with pytest.raises(ValueError):
            dm.components(x)
        full = dm.casimir_apply(x)
        assert full == pair_sum(x)
        assert self.perp_apply(dm, x) != full

    def test_components_match_full_casimir_path(self, me, uk2_m_basis,
                                                omega_report, product):
        from f4workbench.uea import model_casimir_m
        dm = degree_machine(me)
        rng = random.Random(5)
        mixed = {}
        for b in uk2_m_basis:
            mixed = add(mixed, scale(sca(rng.randrange(1, 2 ** 30)), b))
        for u in [*uk2_m_basis, mixed, model_casimir_m(me),
                  omega_report.omega.coeff(0), product]:
            got = dm.components(u)
            want = components_oracle(dm, u)
            assert got == want
            assert {k: me.g.serialize(c) for k, c in got.items()} == \
                {k: me.g.serialize(c) for k, c in want.items()}

    def test_one_casimir_tensor_per_machine(self, me, monkeypatch):
        from f4workbench import repth
        from f4workbench.uea import model_casimir_m
        built = []

        def spy(*args):
            built.append(_casimir_of(*args))
            return built[-1]

        monkeypatch.setattr(repth, "_casimir_of", spy)
        dm = DegreeMachine(me)
        u = model_casimir_m(me)
        assert set(dm.components(u)) == {(0, 0), (2, 0), (0, 2)}
        dm.casimir_apply(u)
        assert len(built) == 1 and dm._casimir is built[0]

    @pytest.mark.parametrize("name", ["unit", "casimir_k", "quadratic",
                                      "sqrt2_quadratic", "product",
                                      "sample0", "sample1"])
    def test_pruning_matches_the_unpruned_chains(self, me, oracle_inputs,
                                                 name):
        dm = degree_machine(me)
        u = oracle_inputs[name]
        got = dm.components(u)
        static = components_oracle(dm, u, lambda v: self.perp_apply(dm, v))
        whole = components_oracle(dm, u)
        for want in (static, whole):
            assert list(got) == list(want)
            assert got == want
        assert list(got) == {"unit": [(0, 0)], "casimir_k": [(0, 0)],
                             "quadratic": [(0, 0), (0, 2)],
                             "sqrt2_quadratic": [(0, 0), (0, 2)],
                             "product": [(0, 0), (0, 2), (0, 4)]}.get(
                                 name, [(0, 0), (0, 2), (2, 0)])

    @pytest.mark.parametrize("name, killers", [("product", 28),
                                               ("sample0", 18)])
    def test_annihilator_kills_every_krylov_vector(self, me, oracle_inputs,
                                                   name, killers):
        # C_k commutes with ad(k): ad(e'_h) u = 0 gives ad(e'_h) C^t u = 0
        dm = degree_machine(me)
        labels = me.model.g_algebra.labels
        u = oracle_inputs[name]
        kill = [h for h in range(36) if not me.g.ad({h: ONE}, u)]
        assert len(kill) == killers
        v = u
        for t in range(1, 4):
            v = dm.casimir_apply(v)
            assert v
            for h in kill:
                assert me.g.ad({h: ONE}, v) == {}, (t, labels[h])

    @staticmethod
    def chain_steps(dm, monkeypatch, u):
        """(tensor, live) of each Casimir application dm.components(u)
        makes, live as the first one left it and None after."""
        steps = []

        def spy(engine, tensor, v, live=None):
            out = _casimir_step(engine, tensor, v, live)
            steps.append((tensor, None if live is None else set(live)))
            return out

        monkeypatch.setattr(repth, "_casimir_step", spy)
        dm.components(u)
        return steps

    @pytest.mark.parametrize("name, inner", [
        ("product", {"X1", "Xpsi1", "Xpsi2", "E"}),
        ("sample0", {"X1", "Xpsi1", "Xpsi2", "Xdelta1", "Xdelta2", "Ht1",
                     "Xdelta", "E"}),
    ])
    def test_pruned_tensor(self, me, monkeypatch, oracle_inputs, name,
                           inner):
        dm = degree_machine(me)
        labels = me.model.g_algebra.labels
        steps = self.chain_steps(dm, monkeypatch, oracle_inputs[name])
        assert len(steps) == 3
        (first, live), rest = steps[0], steps[1:]
        assert first is dm._casimir_on_invariants
        assert {labels[h] for h in live} == inner
        for tensor, live in rest:
            assert live is None
            assert {labels[h] for h, _ in tensor[0]} == inner
            assert tensor[1:] == first[1:]

    @pytest.mark.parametrize("name", ["unit", "casimir_k"])
    def test_central_input_stops_after_one_application(
            self, me, monkeypatch, oracle_inputs, name):
        # every label of k kills the unit and Omega_k, so C u = 0 and the
        # chain has length 1
        steps = self.chain_steps(degree_machine(me), monkeypatch,
                                 oracle_inputs[name])
        assert [live for _, live in steps] == [set()]

    def test_whole_casimir_prunes_its_shift(self, me, monkeypatch,
                                            oracle_inputs):
        # started on the whole C_k, the first application finds the labels
        # of m and r (on Cartan labels of m) reading zero on the product,
        # drops them all, and the chain gives the same components
        dm = DegreeMachine(me)
        labels = me.model.g_algebra.labels
        u = oracle_inputs["product"]
        want = dm.components(u)
        dm._casimir_on_invariants = dm._casimir
        assert dm._casimir[1]
        steps = self.chain_steps(dm, monkeypatch, u)
        assert steps[0][0] is dm._casimir
        for tensor, _ in steps[1:]:
            assert {labels[h] for h, _ in tensor[0]} == \
                {"X1", "Xpsi1", "Xpsi2", "E"}
            assert tensor[1] == {}
        got = dm.components(u)
        assert list(got) == list(want)
        assert got == want
