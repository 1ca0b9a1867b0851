import itertools
from fractions import Fraction
from math import prod

import pytest

from f4workbench.rootdata import (
    DEFAULT_REGULAR, F4_SIMPLE, build_root_system, cartan_type,
    compact_split, dot, f4_root_system, f4_satake_data, gamma_basis,
    simple_system, vadd, vec, vneg, vscale, vsub,
)
from test_exactnum import permutation_sign


def restricted_negative_set(regular):
    """Roots restricting to the simple restricted root but negative on
    the regular vector."""
    _, split = f4_satake_data()
    lam0 = Fraction(1, 2)  # first coordinate of the simple root in P+
    return tuple(a for a in split.p_plus
                 if a[0] == lam0 and dot(a, regular) < 0)


def is_compatible(regular):
    """Every root in the negative set, other than the simple one itself,
    stays a root after subtracting the simple root of P+."""
    rs, _ = f4_satake_data()
    a1 = F4_SIMPLE[0]
    return all(vsub(a, a1) in rs.roots
               for a in restricted_negative_set(regular) if a != a1)


def regular_violations(regular):
    """Why regular cannot pick the positive compact roots: it must vanish
    in the first coordinate, be positive on the centralizer's positive
    roots and lie on no compact root's kernel."""
    _, split = f4_satake_data()
    out = []
    if regular[0] != 0:
        out.append("first coordinate")
    if any(dot(a, regular) <= 0 for a in split.p_minus):
        out.append("not dominant")
    if any(dot(a, regular) == 0 for a in compact_split().delta_k):
        out.append("not regular")
    return out


def positives_at(regular):
    """The compact roots positive on regular."""
    return {a for a in compact_split().delta_k if dot(a, regular) > 0}


# simple roots in coordinates, measured with the dot product
A1 = (vec(1),)
A3 = (vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1))
B3 = (vec(1, -1, 0), vec(0, 1, -1), vec(0, 0, 1))
C3 = (vec(1, -1, 0), vec(0, 1, -1), vec(0, 0, 2))
B4 = (vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1))
G2 = (vec(1, -1, 0), vec(-2, 1, 1))


def _leibniz_det(m):
    return sum(permutation_sign(p) * prod(m[i][p[i]] for i in range(len(m)))
               for p in itertools.permutations(range(len(m))))


def _is_simple_system(vs):
    """The oracle: the Gram determinant is positive (so the vectors are
    independent) and every off-diagonal Cartan number is an integer <= 0."""
    if _leibniz_det([[dot(a, b) for b in vs] for a in vs]) <= 0:
        return False
    for a, b in itertools.permutations(vs, 2):
        c = 2 * dot(a, b) / dot(b, b)
        if c.denominator != 1 or c > 0:
            return False
    return True


class TestBuildRootSystem:
    def test_a1(self):
        rs = build_root_system(A1)
        assert len(rs.roots) == 2 and len(rs.positives) == 1

    def test_f4_counts(self):
        # oracle: closure count cross-checked against the family count
        # 4 integral + 12 mixed + 8 half-integral positive roots
        rs = f4_root_system()
        assert len(rs.positives) == 24
        assert len(rs.roots) == 48
        units = [r for r in rs.positives if sorted(map(abs, r)) == [0, 0, 0, 1]]
        mixed = [r for r in rs.positives
                 if sorted(map(abs, r)) == [0, 0, 1, 1]]
        halves = [r for r in rs.positives if all(abs(x) == Fraction(1, 2) for x in r)]
        assert (len(units), len(mixed), len(halves)) == (4, 12, 8)

    def test_b4(self):
        rs = build_root_system(B4)
        assert len(rs.roots) == 32

    def test_infinite_type_rejected(self):
        # (a, -a) realizes the affine A1 matrix [[2, -2], [-2, 2]]
        with pytest.raises(ValueError, match="dependent"):
            build_root_system((vec(1, -1), vec(-1, 1)))

    @pytest.mark.parametrize("simple", [
        (vec(1, -1, 0), vec(0, 1, -1), vec(-1, 0, 1)),
    ], ids=["affine-A2"])
    def test_rank_three_infinite_types_rejected(self, simple):
        # (a1, a2, -a1 - a2) realizes the affine A2 matrix
        with pytest.raises(ValueError, match="dependent"):
            build_root_system(simple)

    @pytest.mark.parametrize("simple, roots", [
        (A3, 12), (B3, 18), (C3, 18), (F4_SIMPLE, 48), (G2, 12),
    ], ids=["A3", "B3", "C3", "F4", "G2"])
    def test_finite_types_build(self, simple, roots):
        assert len(build_root_system(simple).roots) == roots

    @pytest.mark.parametrize("n, types", [
        (2, {"A1xA1", "A2", "B2", "G2"}),
        (3, {"A3", "B3", "C3", "A1xG2"}),
    ], ids=["2", "3"])
    def test_verdict_matches_gram_oracle(self, n, types):
        # the tuples hold the zero vector and dependent, acute and
        # non-integral pairs, and the accepted ones span the given types
        vectors = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 0, 1), vec(0, 0, 2),
                   vec(1, -1, 0), vec(0, 1, -1), vec(-1, 0, 1),
                   vec(1, 1, 0), vec(-2, 1, 1), vec(1, 1, 1),
                   vec(2, 0, 0)]
        built, reasons = set(), set()
        for vs in itertools.product(vectors, repeat=n):
            try:
                rs = build_root_system(vs)
            except ValueError as exc:
                rs = None
                reasons.add(str(exc))
            assert (rs is not None) == _is_simple_system(vs), vs
            if rs is not None:
                built.add(cartan_type(rs.simple))
        assert types <= built and len(reasons) == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no simple roots"):
            build_root_system([])

    @pytest.mark.parametrize("simple", [
        (vec(1, 0), vec(0, 1, 5)),
        (vec(1, -1, 0), vec(0, 1)),
    ], ids=["2-3", "3-2"])
    def test_unequal_coordinate_counts_rejected(self, simple):
        # dot and vadd zip the tuples, so these would build a system of
        # roots of mixed sizes
        with pytest.raises(ValueError, match="numbers of coordinates"):
            build_root_system(simple)

    def test_invalid_matrix_rejected(self):
        # an acute pair: Cartan matrix [[2, 1], [1, 2]]
        with pytest.raises(ValueError, match="<= 0"):
            build_root_system((vec(1, -1, 0), vec(1, 0, -1)))

    def test_string_property_and_reflections(self):
        rs = f4_root_system()
        roots = rs.roots
        for a in list(rs.positives)[:8]:
            for b in list(roots)[:24]:
                if a == b or a == vneg(b):
                    continue
                # unbroken alpha-string through beta
                p = 0
                cur = vsub(b, a)
                while cur in roots:
                    p += 1
                    cur = vsub(cur, a)
                q = 0
                cur = vadd(b, a)
                while cur in roots:
                    q += 1
                    cur = vadd(cur, a)
                assert q - p == -rs.coroot_pairing(b, a)
                # reflections permute the root set
                assert vsub(b, vscale(rs.coroot_pairing(b, a), a)) in roots


def _solve_rational(m, rhs):
    """Gauss-Jordan on a nonsingular rational system."""
    n = len(m)
    a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [inv * x for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[c][j] for j in range(n + 1)]
    return [a[i][n] for i in range(n)]


class TestSimpleCoefficients:
    """The coefficients kept from the height induction against a Gram
    solve, on every root."""

    @pytest.mark.parametrize("rs", [
        lambda: f4_root_system(),
        lambda: build_root_system(B4),
        lambda: build_root_system(B3),
        lambda: build_root_system(compact_split().simple_k),
        lambda: build_root_system(simple_system(f4_satake_data()[1].p_minus)),
    ], ids=["F4", "B4", "B3", "B4-in-F4", "B3-in-F4"])
    def test_match_the_gram_solve(self, rs):
        rs = rs()
        gram = [[dot(a, b) for b in rs.simple] for a in rs.simple]
        assert set(rs.coefficients) == rs.roots
        for beta in rs.roots:
            want = _solve_rational(gram, [dot(beta, a) for a in rs.simple])
            assert rs.coefficients[beta] == tuple(want)

    def test_left_out_of_equality(self):
        rs = f4_root_system()
        again = build_root_system(rs.simple)
        assert again == rs and hash(again) == hash(rs)
        assert again.coefficients is not rs.coefficients


class TestSatake:
    def test_p_plus_minus_counts(self):
        _, split = f4_satake_data()
        assert len(split.p_plus) == 15
        assert len(split.p_minus) == 9

    def test_p_minus_type_b3(self):
        _, split = f4_satake_data()
        assert cartan_type(simple_system(split.p_minus)) == "B3"

    def test_theta_fixes_p_minus(self):
        _, split = f4_satake_data()
        for a in split.p_minus:
            assert a[0] == 0


class TestCompactSplit:
    def test_counts(self):
        cs = compact_split()
        assert len(cs.delta_k) == 32
        assert len(cs.delta_p) == 16
        assert len(cs.positives_k) == 16

    def test_simple_type_b4(self):
        cs = compact_split()
        assert cartan_type(cs.simple_k) == "B4"

    def test_simple_matches_fixed_list(self):
        cs = compact_split()
        expected = {
            vec(1, 0, 0, 1),
            vec(0, 0, 1, -1),
            vec(-1, 0, 0, 1),
            vec(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)),
        }
        assert set(cs.simple_k) == expected

    def test_default_regular_is_regular(self):
        assert regular_violations(DEFAULT_REGULAR) == []
        assert regular_violations(vec(0, -4, -2, -1)) == ["not dominant"]

    def test_nonregular_rejected(self):
        # t2 = t3 + t4 kills a compact root
        assert "not regular" in regular_violations(vec(0, 2, 1, 1))

    def test_first_coordinate_zero_required(self):
        assert "first coordinate" in regular_violations(vec(1, 4, 2, 1))

    def test_two_chambers_both_compatible(self):
        cs = compact_split()
        assert set(cs.positives_k) == positives_at(vec(0, 4, 2, 1))
        # t2 > t3 + t4 above, t2 < t3 + t4 below
        assert regular_violations(vec(0, 4, 3, 2)) == []
        assert set(cs.positives_k) != positives_at(vec(0, 4, 3, 2))
        assert is_compatible(vec(0, 4, 2, 1))
        assert is_compatible(vec(0, 4, 3, 2))

    def test_compatibility_by_enumeration(self):
        rs, _ = f4_satake_data()
        a1 = F4_SIMPLE[0]
        negs = restricted_negative_set(DEFAULT_REGULAR)
        assert a1 in negs and len(negs) == 4
        for a in negs:
            if a != a1:
                assert vsub(a, a1) in rs.roots


class TestGammaBasis:
    def test_stated_relations(self):
        g = gamma_basis()
        assert g["gamma3"] == vadd(g["gamma1"], g["gamma2"])
        assert g["gamma4"] == vadd(vadd(g["gamma1"], g["gamma1"]), g["gamma2"])

    def test_gamma4_plus_delta(self):
        g = gamma_basis()
        assert vadd(g["gamma4"], g["delta"]) == vec(0, 2, 0, 0)

    def test_gamma3_coords(self):
        g = gamma_basis()
        assert g["gamma3"] == vec(Fraction(1, 2), Fraction(1, 2),
                                  Fraction(1, 2), Fraction(1, 2))

    def test_weights_are_compact_roots_where_expected(self):
        cs = compact_split()
        g = gamma_basis()
        for name in ("gamma1", "gamma2", "gamma3", "gamma4", "delta",
                     "phi1", "delta1", "phi2", "delta2", "psi1", "psi2"):
            assert g[name] in cs.delta_k
        for name in ("gamma1", "gamma2", "gamma3", "gamma4", "delta",
                     "phi1", "delta1", "phi2", "delta2", "psi1", "psi2"):
            assert dot(g[name], DEFAULT_REGULAR) > 0  # all positive


def _unit(n, i):
    return vec(*(1 if j == i else 0 for j in range(n)))


def _chain(n, rank):
    """e_i - e_(i+1) for i < rank, in n coordinates."""
    return [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(rank)]


def _classical(kind, r):
    """The standard simple roots of A_r, B_r, C_r or D_r."""
    if kind == "A":
        return _chain(r + 1, r)
    last = {"B": _unit(r, r - 1), "C": vscale(2, _unit(r, r - 1)),
            "D": vadd(_unit(r, r - 2), _unit(r, r - 1))}[kind]
    return _chain(r, r - 1) + [last]


def _e8():
    """Bourbaki's simple roots of E8; E7 and E6 are its first 7 and 6."""
    half = Fraction(1, 2)
    e = [_unit(8, i) for i in range(8)]
    first = vec(half, *([-half] * 6), half)
    return ([first, vadd(e[0], e[1]), vsub(e[1], e[0])]
            + [vsub(e[i + 1], e[i]) for i in range(1, 6)])


def _padded(*systems):
    """The product of the given systems, each on its own coordinates of
    one space, their simple roots interleaved."""
    n = sum(len(s[0]) for s in systems)
    out, offset = [], 0
    for s in systems:
        width = len(s[0])
        out.append([vec(*([0] * offset), *a, *([0] * (n - offset - width)))
                    for a in s])
        offset += width
    return [a for group in itertools.zip_longest(*out) for a in group
            if a is not None]


TYPE_TABLE = (
    [pytest.param(name, simple, id=name) for name, simple in
     [("A%d" % r, _classical("A", r)) for r in range(1, 9)]
     + [("B%d" % r, _classical("B", r)) for r in range(2, 9)]
     + [("C%d" % r, _classical("C", r)) for r in range(3, 9)]
     + [("D%d" % r, _classical("D", r)) for r in range(4, 9)]
     + [("E%d" % r, _e8()[:r]) for r in (6, 7, 8)]
     + [("F4", F4_SIMPLE), ("G2", (vec(1, -1, 0), vec(-2, 1, 1)))]]
    # the conventions for the coincident small ranks, and a product
    + [pytest.param("B2", _classical("C", 2), id="C2-reads-B2"),
       pytest.param("A3", _classical("D", 3), id="D3-reads-A3"),
       pytest.param("A2xB2xB3", _padded(_classical("B", 3),
                                        _classical("A", 2),
                                        _classical("B", 2)),
                    id="padded-A2xB2xB3")]
)


class TestCartanType:
    @pytest.mark.parametrize("name, simple", TYPE_TABLE)
    def test_every_irreducible_type_to_rank_8(self, name, simple):
        assert cartan_type(simple) == name

    def test_c3_vs_b3(self):
        # C3: e1-e2, e2-e3, 2e3; B3: e1-e2, e2-e3, e3
        c3 = (vec(1, -1, 0), vec(0, 1, -1), vec(0, 0, 2))
        b3 = (vec(1, -1, 0), vec(0, 1, -1), vec(0, 0, 1))
        assert cartan_type(c3) == "C3"
        assert cartan_type(b3) == "B3"

    def test_f4(self):
        assert cartan_type(F4_SIMPLE) == "F4"

    def test_products(self):
        assert cartan_type((vec(1, -1, 0, 0), vec(0, 0, 1, -1))) == "A1xA1"

    def test_d4(self):
        d4 = (vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1),
              vec(0, 0, 1, 1))
        assert cartan_type(d4) == "D4"
