import re
from fractions import Fraction

import pytest

from f4workbench.exactnum import (Echelon, Matrix, ONE, SQRT2, Scalar, ZERO,
                                  add, sca, scale, sub)
from f4workbench.exactnum import accumulate
from f4workbench.liealg import (
    LieAlgebra, _is_automorphism, _jacobi_witness, _matrix_apply,
    _transversality_columns, build_f4_model, cayley_transform,
    chevalley_algebra, orthocomplement, transversality_rank, transversality_rank_zero_map,
    verify_model,
)
from f4workbench.rootdata import build_root_system, f4_root_system, vec

B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]


@pytest.fixture(scope="session")
def model():
    return build_f4_model()


class TestChevalley:
    def test_sl2_relations(self):
        rs = build_root_system([[2]])
        a = chevalley_algebra(rs)
        h, e, f = a.index["h1"], 1, 2
        assert a.bracket_basis(h, e) == {e: sca(2)}
        assert a.bracket_basis(h, f) == {f: sca(-2)}
        assert a.bracket_basis(e, f) == {h: ONE}

    def test_f4_dim(self):
        # 48 roots + rank 4
        assert chevalley_algebra(f4_root_system()).dim == 52

    def test_b4_dim(self):
        b4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
        assert chevalley_algebra(build_root_system(b4)).dim == 36

    def test_jacobi_b4(self):
        b4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
        assert chevalley_algebra(build_root_system(b4)).jacobi_failures(1) == []

    def test_killing_sl2(self):
        rs = build_root_system([[2]])
        a = chevalley_algebra(rs)
        kf = a.killing_form()
        # oracle: trace of (ad h)^2 over the 3-dim adjoint is 4 + 4 = 8
        assert kf.entries[0][0] == sca(8)
        e = a.index["x[1]"]
        assert kf.entries[e][e] == ZERO  # ad-nilpotency

    def test_killing_f4_nondegenerate(self, model):
        assert model.killing.det() != ZERO


class TestModelInvariants:
    def test_battery_all_pass(self, model):
        rep = verify_model(model)
        assert rep.ok, rep.details

    def test_dimensions(self, model):
        s = model.subspaces
        assert (s["k"].dim, s["p"].dim, s["m"].dim, s["n"].dim, s["a"].dim) \
            == (36, 16, 21, 15, 1)
        assert s["gtilde"].dim == 21

    def test_q_dimensions(self, model):
        s = model.subspaces
        assert s["qplus"].dim == 15
        assert s["q"].dim == 18
        assert s["qtilde"].dim == 21
        assert s["hr"].dim == 2

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
        for t in model.subspaces["t"].basis():
            assert model.chi_apply(t) == t

    def test_cayley_wrong_normalization_rejected(self, model):
        d = model.distinguished
        bad = scale(sca(3), d["Xmu"])
        with pytest.raises(ValueError):
            cayley_transform(model.algebra, bad, model.theta_apply(bad))

    def test_theta_eigenspace_matches_root_classification(self, model):
        # derived cross-check of the compact/noncompact displays
        from f4workbench.rootdata import compact_split, DEFAULT_REGULAR
        cs = compact_split(DEFAULT_REGULAR)
        alg = model.algebra
        ksp = model.subspaces["k"]
        for r in cs.delta_k:
            v = model.chi_apply({alg.root_index[r]: ONE})
            assert ksp.contains(v)
        for r in cs.delta_p:
            v = model.chi_apply({alg.root_index[r]: ONE})
            assert model.subspaces["p"].contains(v)

    def test_c_value(self, model):
        assert model.c_value == Fraction(3, 2)

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


class TestTransversality:
    def test_ranks(self, model):
        assert transversality_rank(model, "T") == (33, 33)
        assert transversality_rank(model, "Ttilde") == (36, 36)

    def test_zero_anchor(self, model):
        assert transversality_rank_zero_map(model) == 27

    def test_image_lands_in_y_perp(self, model):
        zo = model.distinguished["Zo"]
        yp = model.subspaces["y_perp"]
        for x in model.subspaces["q"].basis():
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
        killing = model.killing
        rows = [{j: c for j, c in enumerate(row) if c}
                for row in killing.entries]
        assert killing.det() != ZERO
        assert len(Echelon(rows)) == killing.rank() == 52


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
        assert s["mplus_perp"].dim == 27
        assert s["y_perp"].dim == 33

    def test_full_space_complement_trivial(self, model):
        k = model.subspaces["k"]
        out = orthocomplement(model, k, k)
        assert out.dim == 0

    def test_degenerate_restriction_rejected(self, model):
        # the form is degenerate on the span of a single nilpotent vector
        from f4workbench.liealg import Subspace
        nil = Subspace(model.algebra.dim, [model.distinguished["E"]])
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
            rhs = model.algebra.bracket(model.k_basis[i], model.k_basis[j])
            assert lhs == rhs

    def test_coords_in_parent_rejects_non_members(self, model):
        ka = model.k_algebra
        assert ka.coords_in_parent(model.k_basis[3]) == {3: ONE}
        with pytest.raises(ValueError):
            ka.coords_in_parent(model.distinguished["Z"])

    def test_g_mixed_basis_rank(self, model):
        assert model.g_algebra.dim == 52
        cols = [[b.get(i, ZERO) for i in range(52)] for b in model.g_basis]
        assert Matrix.from_columns(cols).rank() == 52

    def test_theta_fixes_k_basis(self, model):
        for v in model.k_basis:
            assert model.theta_apply(v) == v

    def test_k_weights_consistency(self, model):
        # native labels carry the weight their bracket action shows
        ka = model.k_algebra
        d = model.distinguished
        cart = [model.distinguished[nm] for nm in ("Ht1", "Ht2", "Ht3", "Ht4")]
        for idx, w in model.k_weights.items():
            if w is None:
                continue
            v = model.k_basis[idx]
            for ci, h in enumerate(cart):
                got = model.algebra.bracket(h, v)
                want = scale(sca(w[ci]), v)
                assert got == want


class TestSubspaceEchelon:
    def test_model_subspaces_are_the_dense_rref(self, model):
        # every model subspace, rebuilt from random combinations of its
        # basis (with one redundant generator and a zero), is the reduced
        # row echelon form Matrix.rref computes from those generators
        import random
        from f4workbench.exactnum import combine
        from f4workbench.liealg import Subspace
        rng = random.Random(5)
        n = model.algebra.dim
        for name, sub in sorted(model.subspaces.items()):
            basis = sub.basis()
            gens = [combine({i: sca(rng.randint(-30, 30))
                             for i in range(len(basis))}, basis)
                    for _ in range(len(basis) + 1)] + [{}]
            rows, pivots = Matrix([[g.get(i, ZERO) for i in range(n)]
                                   for g in gens]).rref()
            want = [{i: c for i, c in enumerate(row) if c}
                    for row in rows[:len(pivots)]]
            assert Subspace(n, gens).basis() == want, name
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
    """The automorphism check mapping both basis vectors of every pair
    afresh: the oracle for liealg._is_automorphism."""
    for i in range(alg.dim):
        xi = _matrix_apply(m, {i: ONE})
        for j in range(i + 1, alg.dim):
            lhs = _matrix_apply(m, alg.bracket_basis(i, j))
            rhs = alg.bracket(xi, _matrix_apply(m, {j: ONE}))
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
        m = getattr(model, name)
        assert _is_automorphism(model.algebra, m) is None
        assert is_automorphism_oracle(model.algebra, m) is None

    @pytest.mark.parametrize("row, col", [(0, 0), (17, 30), (51, 40)])
    def test_planted_entry_same_pair(self, model, row, col):
        m = Matrix([r[:] for r in model.theta.entries])
        m.entries[row][col] = m.entries[row][col] + ONE
        got = _is_automorphism(model.algebra, m)
        assert got is not None
        assert got == is_automorphism_oracle(model.algebra, m)
