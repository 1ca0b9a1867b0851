import re
from fractions import Fraction

import pytest

from f4workbench.exactnum import (Echelon, Matrix, ONE, SQRT2, Scalar, ZERO,
                                  add, combine, sca, scale, sub)
from f4workbench.exactnum import accumulate
from f4workbench.liealg import (
    _CAYLEY_COEFFS, LieAlgebra, _is_automorphism, _is_involution,
    K_LABELS, _jacobi_witness, _leading_subalgebra, _rebase_table,
    _transversality_columns, build_f4_model,
    cayley_transform, chevalley_algebra, orthocomplement, root_label,
    transversality_rank, transversality_rank_zero_map, verify_model,
)
from f4workbench.rootdata import (F4_SIMPLE, build_root_system, dot,
                                  f4_root_system, vadd, vec, vneg, vsub)
from test_exactnum import identity

A1 = (vec(1),)
B4 = (vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1))
G2 = (vec(1, -1, 0), vec(-2, 1, 1))


@pytest.fixture(scope="session")
def model():
    return build_f4_model()


def dense(vectors) -> Matrix:
    """The square Matrix whose column j is vectors[j]; for the symmetric
    rows of a form, the matrix of the form."""
    n = len(vectors)
    return Matrix.from_columns([[v.get(i, ZERO) for i in range(n)]
                                for v in vectors])


def killing(model) -> list:
    """The Killing form of the model, as 18 times its invariant form."""
    return [scale(sca(18), row) for row in model.bform]


def columns(m: Matrix) -> list:
    """The columns of m as sparse vectors with ascending keys."""
    return [{i: row[j] for i, row in enumerate(m.entries) if row[j]}
            for j in range(m.cols)]


def matrix_apply(m: Matrix, x):
    """m x, reading the columns of m afresh for each call."""
    return combine(x, {j: {i: row[j] for i, row in enumerate(m.entries)
                           if row[j]} for j in x})


def dense_cayley(alg, xmu, theta_xmu) -> Matrix:
    """exp(pi/4 ad W) as cayley_transform computed it on dense matrices:
    ad W as a Matrix and its powers by Matrix products."""
    n = alg.dim
    w = sub(theta_xmu, xmu)
    a = Matrix.from_columns([[alg.bracket(w, {j: ONE}).get(i, ZERO)
                              for i in range(n)] for j in range(n)])
    powers = [identity(n), a]
    for _ in range(3):
        powers.append(powers[-1] * a)
    if (powers[4] * a).add(powers[3].scale(sca(5))).add(a.scale(sca(4))) \
            != Matrix.zero(n, n):
        raise ValueError("generator spectrum is not {0,+-i,+-2i}")
    out = Matrix.zero(n, n)
    for c, p in zip(_CAYLEY_COEFFS, powers):
        out = out.add(p.scale(c))
    return out


def dense_killing(alg) -> Matrix:
    """trace(ad x ad y) filled into a dense Matrix, entry by entry."""
    n = alg.dim
    ad = [[alg.bracket_basis(j, k) for k in range(n)] for j in range(n)]
    out = Matrix.zero(n, n)
    for i in range(n):
        for j in range(i, n):
            acc = ZERO
            for k in range(n):
                for l, c in ad[j][k].items():
                    c2 = ad[i][l].get(k)
                    if c2:
                        acc = acc + c * c2
            out.entries[i][j] = acc
            out.entries[j][i] = acc
    return out


class TestChevalley:
    def test_sl2_relations(self):
        rs = build_root_system(A1)
        a = chevalley_algebra(rs)
        h, e, f = a.index["h1"], 1, 2
        assert a.bracket_basis(h, e) == {e: sca(2)}
        assert a.bracket_basis(h, f) == {f: sca(-2)}
        assert a.bracket_basis(e, f) == {h: ONE}

    def test_f4_dim(self):
        # 48 roots + rank 4
        assert chevalley_algebra(f4_root_system()).dim == 52

    def test_b4_dim(self):
        assert chevalley_algebra(build_root_system(B4)).dim == 36

    def test_jacobi_b4(self):
        assert chevalley_algebra(build_root_system(B4)).jacobi_failures(1) == []

    def test_killing_sl2(self):
        rs = build_root_system(A1)
        a = chevalley_algebra(rs)
        kf = a.killing_form()
        # oracle: trace of (ad h)^2 over the 3-dim adjoint is 4 + 4 = 8
        assert kf[0][0] == sca(8)
        e = a.index["x[1]"]
        assert e not in kf[e]  # ad-nilpotency

    def test_killing_f4_nondegenerate(self, model):
        assert dense(killing(model)).det() != ZERO


def coroot_element_oracle(rs, beta):
    """The beta-coroot over the simple coroots, on Fraction coordinates."""
    ks = rs.coefficients[beta]
    bb = dot(beta, beta)
    out = {}
    for i, k in enumerate(ks):
        c = k * dot(rs.simple[i], rs.simple[i]) / bb
        if c.denominator != 1:
            raise ValueError("non-integral coroot expansion")
        if c:
            out[i] = sca(c)
    return out


class ChevalleyDataOracle:
    """ChevalleyData on the Fraction coordinates of the root system: the
    oracle for ChevalleyData on the simple-root coefficients."""

    def __init__(self, rs):
        self.rs = rs
        self.roots = rs.roots
        height = {r: sum(rs.coefficients[r]) for r in rs.positives}
        self.pos_order = sorted(rs.positives, key=lambda r: (height[r], r))
        self.pos_rank = {r: n for n, r in enumerate(self.pos_order)}
        self.height = height
        self.extraspecial = {}
        self.N = {}
        self._build()

    def _down_string(self, alpha, beta):
        p = 0
        cur = vsub(beta, alpha)
        while cur in self.roots:
            p += 1
            cur = vsub(cur, alpha)
        return p

    def _build(self):
        posset = set(self.pos_order)
        for gamma in self.pos_order:
            if self.height[gamma] == 1:
                continue
            pairs = []
            for a in self.pos_order:
                if self.pos_rank[a] > self.pos_rank[gamma]:
                    break
                b = vsub(gamma, a)
                if b in posset and self.pos_rank[a] <= self.pos_rank[b]:
                    pairs.append((a, b))
            a1, b1 = min(pairs, key=lambda p: self.pos_rank[p[0]])
            self.extraspecial[gamma] = (a1, b1)
            self.N[(a1, b1)] = Fraction(self._down_string(a1, b1) + 1)
            n11 = self.N[(a1, b1)]
            for (a, b) in pairs:
                if (a, b) == (a1, b1):
                    continue
                t1 = Fraction(0)
                if vsub(a, a1) in self.roots:
                    t1 = self.n_any(vneg(a1), a) * self.n_any(vsub(a, a1), b)
                t3 = Fraction(0)
                if vsub(b, a1) in self.roots:
                    t3 = self.n_any(b, vneg(a1)) * self.n_any(vsub(b, a1), a)
                val = (t1 + t3) * dot(gamma, gamma) / (dot(b1, b1) * n11)
                assert abs(val) == self._down_string(a, b) + 1
                self.N[(a, b)] = val

    def n_any(self, x, y):
        """N(x, y) for arbitrary roots with x + y a nonzero root."""
        xpos = x in self.pos_rank
        ypos = y in self.pos_rank
        if xpos and ypos:
            if (x, y) in self.N:
                return self.N[(x, y)]
            return -self.N[(y, x)]
        if not xpos and not ypos:
            return -self.n_any(vneg(x), vneg(y))
        if not xpos:
            return -self.n_any(y, x)
        nu = vneg(y)
        gamma = vadd(x, y)
        if gamma in self.pos_rank:
            return -dot(gamma, gamma) / dot(x, x) * self.n_any(nu, gamma)
        mu = vneg(gamma)
        return dot(mu, mu) / dot(nu, nu) * self.n_any(mu, x)


def chevalley_algebra_oracle(rs):
    """The Chevalley basis built on Fraction coordinates, every pair of
    roots visited through a set of done pairs."""
    data = ChevalleyDataOracle(rs)
    rank = rs.rank
    labels = ["h%d" % (i + 1) for i in range(rank)]
    allroots = list(data.pos_order) + [vneg(r) for r in data.pos_order]
    for r in allroots:
        labels.append(root_label(r))
    idx = {lab: i for i, lab in enumerate(labels)}
    ridx = {r: idx[root_label(r)] for r in allroots}
    table = {}

    def put(i, j, val):
        if i == j or not val:
            return
        if i < j:
            table[(i, j)] = val
        else:
            table[(j, i)] = {k: -c for k, c in val.items()}

    for i in range(rank):
        for r in allroots:
            pairing = rs.coroot_pairing(r, rs.simple[i])
            if pairing:
                put(i, ridx[r], {ridx[r]: sca(pairing)})
    done = set()
    for r in allroots:
        for s in allroots:
            if (s, r) in done or r == s:
                continue
            done.add((r, s))
            tot = vadd(r, s)
            if all(x == 0 for x in tot):
                put(ridx[r], ridx[s], coroot_element_oracle(rs, r))
            elif tot in rs.roots:
                put(ridx[r], ridx[s], {ridx[tot]: sca(data.n_any(r, s))})
    alg = LieAlgebra(labels, table)
    alg.root_index = dict(ridx)
    alg.chevalley = data
    return alg


class TestChevalleyOracle:
    """The Chevalley basis built on simple-root coefficients against the
    one built on Fraction coordinates."""

    SYSTEMS = {"F4": f4_root_system, "B4": lambda: build_root_system(B4),
               "G2": lambda: build_root_system(G2),
               "A1": lambda: build_root_system(A1)}

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_matches_fraction_oracle(self, name):
        rs = self.SYSTEMS[name]()
        fast, slow = chevalley_algebra(rs), chevalley_algebra_oracle(rs)
        assert fast.labels == slow.labels
        assert fast.table == slow.table
        assert list(fast.table) == list(slow.table)
        assert fast.root_index == slow.root_index
        got, want = fast.chevalley, slow.chevalley
        assert got.pos_order == want.pos_order
        assert got.height == want.height
        assert got.extraspecial == want.extraspecial
        assert got.N == want.N
        assert all(type(v) is int for v in got.N.values())
        for r in rs.roots:
            assert got.coroot(r) == coroot_element_oracle(rs, r)


class TestModelInvariants:
    def test_battery_all_pass(self, model):
        rep = verify_model(model)
        assert rep.ok, rep.details

    def test_dimensions(self, model):
        s = model.subspaces
        assert tuple(len(s[nm]) for nm in ("k", "p", "m", "n", "a")) \
            == (36, 16, 21, 15, 1)
        assert len(s["gtilde"]) == 21

    def test_q_dimensions(self, model):
        s = model.subspaces
        assert len(s["qplus"]) == 15
        assert len(s["q"]) == 18
        assert len(s["qtilde"]) == 21

    def test_normalizations(self, model):
        d = model.distinguished
        br = model.algebra.bracket
        assert br(d["X1"], d["X2"]) == d["E"]
        assert br(d["X1"], d["E"]) == d["X4"]
        assert br(d["Xm1"], d["E"]) == scale(sca(2), d["X2"])
        assert br(d["Xm1"], d["X4"]) == scale(sca(2), d["E"])
        assert br(d["H"], d["E"]) == scale(sca(Fraction(1, 2)), d["E"])
        assert br(d["Xdelta"], d["H"]) == {}

    def test_s_triples(self, model):
        d = model.distinguished
        br = model.algebra.bracket
        assert br(d["X1"], d["Xm1"]) == d["H1"]
        assert br(d["H1"], d["X1"]) == scale(sca(2), d["X1"])
        assert br(d["X2"], d["Xm2"]) == d["H2"]
        # gamma1(H2) = -1, so [H2, X1] = -X1
        assert br(d["H2"], d["X1"]) == scale(sca(-1), d["X1"])

    def test_cayley_identities(self, model):
        d = model.distinguished
        assert model.chi_apply(d["Hmu"]) == add(
            d["Xmu"], model.theta_apply(d["Xmu"]))
        for t in model.subspaces["t"].rows():
            assert model.chi_apply(t) == t

    def test_cayley_wrong_normalization_rejected(self, model):
        d = model.distinguished
        bad = scale(sca(3), d["Xmu"])
        with pytest.raises(ValueError, match="spectrum"):
            cayley_transform(model.algebra, bad, model.theta_apply(bad))
        with pytest.raises(ValueError, match="spectrum"):
            dense_cayley(model.algebra, bad, model.theta_apply(bad))

    def test_theta_eigenspace_matches_root_classification(self, model):
        # derived cross-check of the compact/noncompact displays
        from f4workbench.rootdata import compact_split
        cs = compact_split()
        alg = model.algebra
        ksp = model.subspaces["k"]
        for r in cs.delta_k:
            v = model.chi_apply({alg.root_index[r]: ONE})
            assert ksp.contains(v)
        for r in cs.delta_p:
            v = model.chi_apply({alg.root_index[r]: ONE})
            assert model.subspaces["p"].contains(v)

    def test_c_value(self, model):
        # alpha1(Y), read off [Y, X_alpha1] on the simple root vector
        alg = model.algebra
        i = alg.root_index[F4_SIMPLE[0]]
        assert alg.bracket(model.distinguished["Y"], {i: ONE}) == \
            {i: sca(Fraction(3, 2))}

    def test_kappa_orthogonality_display(self, model):
        d = model.distinguished
        assert model.b(sub(d["X4"], d["Xdelta"]),
                       add(d["Xm4"], d["Xmdelta"])) == ZERO
        assert model.b(sub(d["Xphi1"], d["Xdelta1"]),
                       add(d["Xmphi1"], d["Xmdelta1"])) == ZERO
        assert model.b(sub(d["Xphi2"], d["Xdelta2"]),
                       add(d["Xmphi2"], d["Xmdelta2"])) == ZERO

    def test_pairing_normalizations(self, model):
        d = model.distinguished
        for pos, neg in (("X4", "Xm4"), ("Xdelta", "Xmdelta"),
                         ("Xphi1", "Xmphi1"), ("Xdelta1", "Xmdelta1"),
                         ("Xphi2", "Xmphi2"), ("Xdelta2", "Xmdelta2")):
            assert model.b(d[pos], d[neg]) == ONE

    def test_difference_vectors_proportional_to_split_root_vectors(self, model):
        # the bracket [Xmu, theta X_{e_i + e_1}] recovers the m-plus vector
        d = model.distinguished
        alg = model.algebra
        for pre, dname in ((vec(1, 1, 0, 0), "D2"), (vec(1, 0, 1, 0), "D3"),
                           (vec(1, 0, 0, 1), "D4")):
            x = {alg.root_index[pre]: ONE}
            br = alg.bracket(d["Xmu"], model.theta_apply(x))
            # proportional to the difference vector
            j = next(iter(br))
            c = d[dname].get(j, ZERO) / br[j]
            assert d[dname] == scale(c, br)


class TestDenseModelOracles:
    """The sparse involution, rotation and forms of the model against the
    dense Matrix computations they replaced."""

    def test_rotation_matches_dense_cayley(self, model):
        xmu = model.distinguished["Xmu"]
        want = columns(dense_cayley(model.algebra, xmu,
                                    model.theta_apply(xmu)))
        # same columns, each with the same key order
        assert [list(c.items()) for c in model.chi] == \
            [list(c.items()) for c in want]

    def test_involution_squares_to_identity_densely(self, model):
        assert dense(model.theta) * dense(model.theta) == identity(52)
        assert _is_involution(model.theta)
        assert [list(c.items()) for c in model.theta] == \
            [list(c.items()) for c in columns(dense(model.theta))]

    @pytest.mark.parametrize("row, col", [(0, 0), (17, 30), (51, 40)])
    def test_planted_entry_is_no_involution(self, model, row, col):
        images = [dict(c) for c in model.theta]
        accumulate(images[col], {row: ONE})
        assert not _is_involution(images)
        assert dense(images) * dense(images) != identity(52)

    @pytest.mark.parametrize("rs", [build_root_system(A1),
                                    build_root_system(B4)], ids=["A1", "B4"])
    def test_killing_rows_match_dense(self, rs):
        alg = chevalley_algebra(rs)
        assert alg.killing_form() == columns(dense_killing(alg))

    def test_model_forms_match_dense(self, model):
        kappa = dense_killing(model.algebra)
        assert killing(model) == columns(kappa)
        assert model.bform == columns(kappa.scale(sca(Fraction(1, 18))))


class TestTransversality:
    def test_ranks(self, model):
        assert transversality_rank(model, "T") == (33, 33)
        assert transversality_rank(model, "Ttilde") == (36, 36)

    def test_zero_anchor(self, model):
        assert transversality_rank_zero_map(model) == 27

    def test_image_lands_in_y_perp(self, model):
        zo = model.distinguished["Zo"]
        yp = model.subspaces["y_perp"]
        for x in model.subspaces["q"].rows():
            img = model.algebra.bracket(x, zo)
            assert yp.contains(img)


class TestDenseRankOracle:
    """The echelon ranks of the checks against dense Bareiss on the same
    vectors, densified."""

    @staticmethod
    def _dense_rank(vectors):
        return Matrix.from_columns([[v.get(i, ZERO) for i in range(52)]
                                    for v in vectors]).rank()

    @pytest.mark.parametrize("domain, anchor, rank", [
        ("q", "Zo", 33), ("qtilde", "Zo", 36), ("q", None, 27)])
    def test_transversality_columns(self, model, domain, anchor, rank):
        z = model.distinguished[anchor] if anchor else {}
        cols = _transversality_columns(model, model.subspaces[domain], z)
        assert len(Echelon(cols)) == self._dense_rank(cols) == rank

    def test_killing_rows(self, model):
        kappa = dense(killing(model))
        assert kappa.det() != ZERO
        assert len(Echelon(killing(model))) == kappa.rank() == 52


class TestTorusSolve:
    def test_epsilon_dual_torus_matches_dense_solve(self, model):
        # T_i in h with eps_j(T_i) = delta_ij, solved densely
        rs = model.algebra.rs
        eps = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
        pm = Matrix([[sca(rs.coroot_pairing(eps[j], rs.simple[i]))
                      for i in range(4)] for j in range(4)])
        d = model.distinguished
        for name, i in (("Z", 0), ("Ht2", 1), ("Ht3", 2), ("Ht4", 3)):
            sol = pm.solve([ONE if j == i else ZERO for j in range(4)])
            assert d[name] == {j: c for j, c in enumerate(sol) if c}


class TestOrthocomplement:
    def test_dims(self, model):
        s = model.subspaces
        assert len(s["mplus_perp"]) == 27
        assert len(s["y_perp"]) == 33

    def test_full_space_complement_trivial(self, model):
        k = model.subspaces["k"]
        out = orthocomplement(model, k, k)
        assert len(out) == 0

    def test_degenerate_restriction_rejected(self, model):
        # the form is degenerate on the span of a single nilpotent vector
        nil = Echelon([model.distinguished["E"]])
        with pytest.raises(ValueError):
            orthocomplement(model, nil, nil)

    def test_y_perp_named_members(self, model):
        d = model.distinguished
        yp = model.subspaces["y_perp"]
        for nm in ("Xmdelta", "Xmdelta1", "Xmdelta2", "T32", "T42", "T43"):
            assert yp.contains(d[nm])


class TestKAlgebra:
    def test_k_table_closed_and_jacobi(self, model):
        assert model.k_algebra.dim == 36
        assert model.k_algebra.jacobi_failures(1) == []

    def test_k_brackets_match_parent(self, model):
        # sampled pairs: bracket in the 36-dim table agrees with g
        import random
        rng = random.Random(11)
        ka = model.k_algebra
        for _ in range(25):
            i = rng.randrange(36)
            j = rng.randrange(36)
            got = ka.bracket_basis(i, j)
            lhs = model.k_element_in_g(got)
            rhs = model.algebra.bracket(model.g_basis[i], model.g_basis[j])
            assert lhs == rhs

    def test_mixed_table_reuses_the_k_block(self, model):
        # the k table is the k x k block of the mixed table; rebased from
        # scratch over the 36 k vectors alone, as the oracle, it comes out
        # the same, and so does the mixed table over all 52 vectors
        ga = model.g_algebra
        fresh = _rebase_table(model.algebra, model.g_basis, ga.labels)
        assert fresh.table == ga.table
        k_oracle = _rebase_table(model.algebra, model.g_basis[:36], K_LABELS)
        assert model.k_algebra.labels == k_oracle.labels == K_LABELS
        assert model.k_algebra.table == k_oracle.table == {
            (i, j): v for (i, j), v in ga.table.items() if j < 36}

    def test_coords_in_parent_rejects_non_members(self, model):
        # over the k vectors alone, a vector of g outside k has no
        # coordinates
        ka = _rebase_table(model.algebra, model.g_basis[:36], K_LABELS)
        assert ka.coords_in_parent(model.g_basis[3]) == {3: ONE}
        with pytest.raises(ValueError):
            ka.coords_in_parent(model.distinguished["Z"])

    def test_leading_subalgebra_rejects_a_bracket_that_leaves(self, model):
        # plant Z in [Xm1, Xm2]: the first 36 labels no longer close
        ga = model.g_algebra
        table = {ij: dict(v) for ij, v in ga.table.items()}
        table.setdefault((0, 1), {})[ga.index["Z"]] = ONE
        bad = LieAlgebra(ga.labels, table)
        with pytest.raises(ValueError, match=re.escape(
                "[Xm1, Xm2] leaves the first 36 labels")):
            _leading_subalgebra(bad, K_LABELS)

    def test_g_mixed_basis_rank(self, model):
        assert model.g_algebra.dim == 52
        cols = [[b.get(i, ZERO) for i in range(52)] for b in model.g_basis]
        assert Matrix.from_columns(cols).rank() == 52

    def test_theta_fixes_k_basis(self, model):
        for v in model.g_basis[:36]:
            assert model.theta_apply(v) == v

    def test_k_weights_consistency(self, model):
        # the weights read off the k table are the hand table below, as
        # Fraction tuples
        want, want_t = hand_k_weights()
        k_weights = cartan_weights(model.k_algebra)
        assert k_weights == want
        assert model.k_t_weights == want_t
        assert all(type(x) is Fraction
                   for w in list(k_weights.values())
                   + list(model.k_t_weights.values()) if w for x in w)
        # native labels carry the weight their bracket action shows
        cart = [model.distinguished[nm] for nm in ("Ht1", "Ht2", "Ht3", "Ht4")]
        for idx, w in k_weights.items():
            if w is None:
                continue
            v = model.g_basis[idx]
            for ci, h in enumerate(cart):
                got = model.algebra.bracket(h, v)
                want = scale(sca(w[ci]), v)
                assert got == want


def cartan_weights(k_alg):
    """The eigenvalues of ad Ht1..Ht4 on each k label, read off the k
    table, or None where one of them does not act diagonally on it."""
    hts = [k_alg.index[nm] for nm in ("Ht1", "Ht2", "Ht3", "Ht4")]
    out = {}
    for j in range(k_alg.dim):
        w = []
        for h in hts:
            br = k_alg.bracket_basis(h, j)
            if not br.keys() <= {j}:
                break
            w.append(br.get(j, ZERO).rational_value())
        out[j] = tuple(w) if len(w) == len(hts) else None
    return out


def hand_k_weights():
    """(k_weights, k_t_weights) typed in from the root data: the weight of
    each k label under Ht1..Ht4, None for D2, D3, D4, which Ht1 does not
    act on diagonally, and the torus weights (0, Ht2..Ht4)."""
    from f4workbench.liealg import K_LABELS
    from f4workbench.rootdata import gamma_basis, vneg
    g = gamma_basis()
    w = {
        "Xm1": vneg(g["gamma1"]), "Xm2": vneg(g["gamma2"]),
        "Xm3": vneg(g["gamma3"]), "Xm4": vneg(g["gamma4"]),
        "Xmdelta": vneg(g["delta"]), "Xmphi1": vneg(g["phi1"]),
        "Xmdelta1": vneg(g["delta1"]), "Xmphi2": vneg(g["phi2"]),
        "Xmdelta2": vneg(g["delta2"]), "Xmpsi1": vneg(g["psi1"]),
        "Xmpsi2": vneg(g["psi2"]),
        "T32": vec(0, -1, 1, 0), "T42": vec(0, -1, 0, 1),
        "T43": vec(0, 0, -1, 1), "Sm23": vec(0, -1, -1, 0),
        "Sm24": vec(0, -1, 0, -1),
        "X1": g["gamma1"], "Xpsi1": g["psi1"], "Xpsi2": g["psi2"],
        "Xdelta1": g["delta1"], "Xdelta2": g["delta2"],
        "Ht1": vec(0, 0, 0, 0), "Ht2": vec(0, 0, 0, 0),
        "Ht3": vec(0, 0, 0, 0), "Ht4": vec(0, 0, 0, 0),
        "Xdelta": g["delta"], "E": g["gamma3"],
        "D2": None, "D3": None, "D4": None,
        "T23": vec(0, 1, -1, 0), "T24": vec(0, 1, 0, -1),
        "T34": vec(0, 0, 1, -1),
        "X2": g["gamma2"], "S23": vec(0, 1, 1, 0), "S24": vec(0, 1, 0, 1),
    }
    d_torus = {"D2": vec(0, 1, 0, 0), "D3": vec(0, 0, 1, 0),
               "D4": vec(0, 0, 0, 1)}
    k_weights = {i: w[lab] for i, lab in enumerate(K_LABELS)}
    k_t_weights = {i: (Fraction(0),) + tuple((w[lab] or d_torus[lab])[1:])
                   for i, lab in enumerate(K_LABELS)}
    return k_weights, k_t_weights


class TestSubspaceEchelon:
    def test_model_subspaces_are_the_dense_rref(self, model):
        # every model subspace, rebuilt from random combinations of its
        # basis (with one redundant generator and a zero), is the reduced
        # row echelon form Matrix.rref computes from those generators
        import random
        from f4workbench.exactnum import combine
        rng = random.Random(5)
        n = model.algebra.dim
        for name, sub in sorted(model.subspaces.items()):
            basis = sub.rows()
            gens = [combine({i: sca(rng.randint(-30, 30))
                             for i in range(len(basis))}, basis)
                    for _ in range(len(basis) + 1)] + [{}]
            rows, pivots = Matrix([[g.get(i, ZERO) for i in range(n)]
                                   for g in gens]).rref()
            want = [{i: c for i, c in enumerate(row) if c}
                    for row in rows[:len(pivots)]]
            assert Echelon(gens).rows() == want, name
            assert basis == want, name


def jacobi_failures_oracle(alg, limit=10):
    """The Jacobi check in Scalar arithmetic on the original basis: the
    oracle for LieAlgebra.jacobi_failures, which runs on the integer
    table."""
    bad = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            bij = alg.bracket_basis(i, j)
            for k in range(j + 1, alg.dim):
                acc = alg.bracket(bij, {k: ONE})
                accumulate(acc, alg.bracket(alg.bracket_basis(j, k),
                                            {i: ONE}))
                accumulate(acc, alg.bracket(alg.bracket_basis(k, i),
                                            {j: ONE}))
                if acc:
                    bad.append((i, j, k))
                    if len(bad) >= limit:
                        return bad
    return bad


def is_automorphism_oracle(alg, m):
    """The automorphism check on a dense Matrix, mapping both basis vectors
    of every pair afresh: the oracle for liealg._is_automorphism."""
    for i in range(alg.dim):
        xi = matrix_apply(m, {i: ONE})
        for j in range(i + 1, alg.dim):
            lhs = matrix_apply(m, alg.bracket_basis(i, j))
            rhs = alg.bracket(xi, matrix_apply(m, {j: ONE}))
            if lhs != rhs:
                return "bracket image mismatch at basis pair (%s, %s)" % (
                    alg.labels[i], alg.labels[j])
    return None


def _algebra(model, name):
    if name == "B4":
        return chevalley_algebra(build_root_system(B4))
    return getattr(model, name)


def _planted(alg, key, k, c):
    """A copy of alg whose bracket of the pair key has constant c at k."""
    table = {ij: dict(t) for ij, t in alg.table.items()}
    table.setdefault(key, {})[k] = c
    return LieAlgebra(alg.labels, table)


class TestJacobiOracle:
    """The integer-table Jacobi check against the Scalar loop."""

    @pytest.mark.parametrize("name", ["algebra", "k_algebra", "g_algebra",
                                      "B4"])
    def test_matches_oracle(self, model, name):
        alg = _algebra(model, name)
        assert alg.jacobi_failures() == jacobi_failures_oracle(alg) == []

    @pytest.mark.parametrize("name", ["algebra", "k_algebra", "g_algebra",
                                      "B4"])
    def test_planted_constant_same_first_triple(self, model, name):
        # one constant, midway through the table, times 3/5 (which also
        # changes the scale L of the integer table)
        alg = _algebra(model, name)
        key = sorted(alg.table)[len(alg.table) // 2]
        k, c = next(iter(alg.table[key].items()))
        bad = _planted(alg, key, k, c * sca(Fraction(3, 5)))
        got = bad.jacobi_failures(limit=5)
        assert got and got == jacobi_failures_oracle(bad, limit=5)
        assert _jacobi_witness(bad) == \
            "Jacobi fails at basis triple (%s, %s, %s)" % tuple(
                bad.labels[i] for i in got[0])

    def test_planted_sqrt2_factor_has_no_integer_table(self, model):
        # the parities of a Jacobi-true table are rigid: one constant
        # times sqrt2 leaves no integer form, and the check falls back to
        # the Scalar loop, which fails with the oracle's triples
        alg = model.k_algebra
        key = sorted(alg.table)[7]
        k, c = next(iter(alg.table[key].items()))
        bad = _planted(alg, key, k, c * SQRT2)
        with pytest.raises(ValueError, match="^no rescaling by powers of "
                           "sqrt2 makes the structure constants rational$"):
            bad.integer_table()
        got = bad.jacobi_failures(limit=3)
        assert got and got == jacobi_failures_oracle(bad, limit=3)
        assert _jacobi_witness(bad) == \
            "Jacobi fails at basis triple (%s, %s, %s)" % tuple(
                bad.labels[i] for i in got[0])

    def test_unrescalable_table_fails_with_witness(self, model):
        # 1 + sqrt2 has no integer form: the Scalar loop runs instead, the
        # model check fails with the first failing triple as its witness,
        # and the rest of the battery runs
        from dataclasses import replace
        alg = model.k_algebra
        key = sorted(alg.table)[0]
        k = next(iter(alg.table[key]))
        bad = _planted(alg, key, k, ONE + SQRT2)
        with pytest.raises(ValueError, match=re.escape(
                "structure constant 1/1 + 1/1*sqrt2 of [%s, %s] at %s"
                % (alg.labels[key[0]], alg.labels[key[1]], alg.labels[k]))):
            bad.integer_table()
        got = bad.jacobi_failures(limit=1)
        assert got and got == jacobi_failures_oracle(bad, limit=1)
        rep = verify_model(replace(model, k_algebra=bad))
        failed = [c for c in rep.checks if c["status"] == "fail"]
        assert [c["id"] for c in failed] == [
            "Jacobi identity on the 36-dim table"]
        assert failed[0]["witness"] == \
            "Jacobi fails at basis triple (%s, %s, %s)" % tuple(
                alg.labels[i] for i in got[0])
        assert len(rep.checks) == len(verify_model(model).checks)

    def test_planted_mixed_table_fails_the_model_record(self, model):
        # verify_model runs Jacobi on the table PBWEngine straightens on,
        # inside the record of the Chevalley table, and names the table
        from dataclasses import replace
        alg = model.g_algebra
        key = sorted(alg.table)[len(alg.table) // 2]
        k, c = next(iter(alg.table[key].items()))
        bad = _planted(alg, key, k, c * sca(Fraction(3, 5)))
        rep = verify_model(replace(model, g_algebra=bad))
        failed = [c for c in rep.checks if c["status"] == "fail"]
        assert [c["id"] for c in failed] == [
            "Jacobi identity on all basis triples"]
        assert failed[0]["witness"] == "mixed table: " + _jacobi_witness(bad)
        assert len(rep.checks) == len(verify_model(model).checks)

    def test_doubled_y_fails_the_alpha1_record(self, model):
        from dataclasses import replace
        named = dict(model.distinguished)
        named["Y"] = scale(sca(2), named["Y"])
        rep = verify_model(replace(model, distinguished=named))
        status = {c["id"]: c["status"] for c in rep.checks}
        assert status["alpha1(Y) = 3/2"] == "fail"
        assert verify_model(model).ok

    def test_mixed_constants_fall_back_to_scalars(self):
        # [a, b] = (1 + sqrt2) b has no integer form but satisfies Jacobi
        alg = LieAlgebra(["a", "b", "c"], {(0, 1): {1: Scalar(1, 1)}})
        with pytest.raises(ValueError):
            alg.integer_table()
        assert alg.jacobi_failures() == jacobi_failures_oracle(alg) == []
        assert _jacobi_witness(alg) is None

    def test_table_built_once_and_shared_with_the_engine(self, model):
        from f4workbench.uea import PBWEngine
        alg = LieAlgebra(model.k_algebra.labels, model.k_algebra.table)
        table = alg.integer_table()
        assert alg.integer_table() is table
        assert PBWEngine(alg)._brackets is table.brackets


class TestAutomorphismOracle:
    """_is_automorphism, which maps the basis once, against the loop that
    maps both vectors of every pair afresh."""

    @pytest.mark.parametrize("name", ["theta", "chi"])
    def test_matches_oracle(self, model, name):
        images = getattr(model, name)
        assert _is_automorphism(model.algebra, images) is None
        assert is_automorphism_oracle(model.algebra, dense(images)) is None

    @pytest.mark.parametrize("row, col", [(0, 0), (17, 30), (51, 40)])
    def test_planted_entry_same_pair(self, model, row, col):
        # the entry at row of column col, that is at e_row in the image
        # of e_col
        images = [dict(c) for c in model.theta]
        accumulate(images[col], {row: ONE})
        got = _is_automorphism(model.algebra, images)
        assert got is not None
        assert got == is_automorphism_oracle(model.algebra, dense(images))
