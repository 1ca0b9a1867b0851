import ast
import itertools
import pathlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import f4workbench
from f4workbench.exactnum import (
    HALF, ONE, SQRT2, TWO, ZERO, Echelon, Matrix, PolyScalar, Scalar, add,
    combine, coordinates, dual_basis, kernel, poly_det, rational_roots, sca,
    scale, sqrt_in_field, sub,
)


def S(a, b=0):
    return Scalar.from_pair(Fraction(a), Fraction(b))


def variable() -> PolyScalar:
    """The polynomial x."""
    return PolyScalar([ZERO, ONE])


def identity(n: int) -> Matrix:
    return Matrix([[ONE if i == j else ZERO for j in range(n)]
                   for i in range(n)])


def poly_det_cofactor(entries) -> PolyScalar:
    """Independent oracle for poly_det: the determinant by recursive
    cofactor expansion along the first row."""
    n = len(entries)
    if n == 0:
        return PolyScalar.constant(1)
    if n == 1:
        return entries[0][0]
    acc = PolyScalar([])
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [[entries[i][k] for k in range(n) if k != j]
                 for i in range(1, n)]
        term = entries[0][j] * poly_det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def permutation_sign(p) -> int:
    """The sign of the permutation p, by counting inversions."""
    return (-1) ** sum(p[i] > p[j] for i in range(len(p))
                       for j in range(i + 1, len(p)))


def poly_det_leibniz(entries) -> PolyScalar:
    """Independent oracle for poly_det: the signed sum over permutations."""
    n = len(entries)
    acc = PolyScalar([])
    for p in itertools.permutations(range(n)):
        term = PolyScalar.constant(1)
        for i in range(n):
            term = term * entries[i][p[i]]
        acc = acc + term if permutation_sign(p) == 1 else acc - term
    return acc


def det_cofactor(entries) -> Scalar:
    """The determinant of a square Scalar array by recursive cofactor
    expansion along the first row."""
    if not entries:
        return ONE
    acc = ZERO
    for j, c in enumerate(entries[0]):
        term = c * det_cofactor([row[:j] + row[j + 1:] for row in entries[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


scalars = st.builds(
    S,
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


class TestScalar:
    def test_norm_form(self):
        assert (ONE + SQRT2) * (ONE - SQRT2) == S(-1)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == TWO

    def test_division_by_conjugate(self):
        # 1/(1+sqrt2) = -1+sqrt2; oracle: multiply back
        inv = ONE / (ONE + SQRT2)
        assert inv == S(-1, 1)
        assert inv * (ONE + SQRT2) == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_components_reduced(self):
        x = Scalar(2, 4, 6)
        assert (x.p, x.q, x.r) == (1, 2, 3)
        assert x.a == Fraction(1, 3) and x.b == Fraction(2, 3)

    def test_serialization_roundtrip(self):
        for x in [ZERO, ONE, HALF, S(-3, 2), S(Fraction(5, 6), Fraction(-7, 4))]:
            assert Scalar.parse(x.to_string()) == x

    @pytest.mark.parametrize("text", ["1/0 + 0/1*sqrt2", "0/1 + 3/0*sqrt2",
                                      "2/0 + 5/00*sqrt2"])
    def test_parse_rejects_zero_denominator(self, text):
        # a ValueError, which the CLI reports as bad input, not the
        # ZeroDivisionError of Fraction
        with pytest.raises(ValueError, match="zero denominator"):
            Scalar.parse(text)

    def test_pow(self):
        assert (ONE + SQRT2) ** 3 == S(7, 5)
        assert (ONE + SQRT2) ** -1 == S(-1, 1)

    def test_sqrt_in_field(self):
        assert sqrt_in_field(S(Fraction(9, 4))) == S(Fraction(3, 2))
        assert sqrt_in_field(TWO) == SQRT2
        assert sqrt_in_field(S(8)) == S(0, 2)
        with pytest.raises(ValueError):
            sqrt_in_field(S(3))

    @given(scalars, scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_field_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if y:
            assert (x / y) * y == x

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_inverse_law(self, x):
        if x:
            assert x * x.inverse() == ONE


def normalized_oracle(p, q, r):
    """The reduced triple of (p + q*sqrt2)/r as Scalar.__init__ computed
    it before its r == 1 shortcut: the oracle for the constructor."""
    if r == 0:
        raise ZeroDivisionError("scalar with zero denominator")
    if r < 0:
        p, q, r = -p, -q, -r
    if p == 0 and q == 0:
        return 0, 0, 1
    g = gcd(gcd(abs(p), abs(q)), abs(r))
    return p // g, q // g, r // g


small_ints = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-2 ** 80, 2 ** 80))
denominators = st.one_of(st.just(1), st.just(-1),
                         st.integers(-10 ** 4, 10 ** 4).filter(bool),
                         st.integers(1, 2 ** 70))


class TestScalarConstructor:
    @given(small_ints, small_ints, denominators)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_old_normalization(self, p, q, r):
        x = Scalar(p, q, r)
        assert (x.p, x.q, x.r) == normalized_oracle(p, q, r)

    @pytest.mark.parametrize("p, q, r, want", [
        (0, 0, 1, (0, 0, 1)), (0, 0, -7, (0, 0, 1)), (6, -4, 1, (6, -4, 1)),
        (6, -4, -2, (-3, 2, 1)), (-5, 0, -10, (1, 0, 2))])
    def test_edge_cases(self, p, q, r, want):
        x = Scalar(p, q, r)
        assert (x.p, x.q, x.r) == want == normalized_oracle(p, q, r)

    @given(small_ints, small_ints)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_zero_denominator_raises(self, p, q):
        with pytest.raises(ZeroDivisionError):
            Scalar(p, q, 0)

    @pytest.mark.parametrize("x", [0, 1, -1, 2 ** 70, True, Fraction(3, 4)],
                             ids=repr)
    def test_sca_matches_from_rational(self, x):
        # plain ints skip Fraction; bools keep that path and come out ints
        got, want = sca(x), Scalar.from_rational(x)
        assert got == want
        assert all(type(v) is int for v in (got.p, got.q, got.r))

    def test_sca_keeps_a_scalar(self):
        x = Scalar(3, -1, 4)
        assert sca(x) is x

    @pytest.mark.parametrize("name", ["p", "q", "r", "other"])
    def test_immutable(self, name):
        x = Scalar(3, 4, 1)
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert (x.p, x.q, x.r) == (3, 4, 1)


class TestMatrix:
    def test_identity_rank(self):
        assert identity(3).rank() == 3

    def test_zero_rank(self):
        assert Matrix.zero(2, 5).rank() == 0

    def test_proportional_rows(self):
        m = Matrix([[ONE, SQRT2], [TWO, TWO * SQRT2]])
        assert m.rank() == 1

    def test_rank_nullity(self):
        rows = [
            [S(1), S(2), S(0, 1), S(1)],
            [S(0), S(1), S(1), S(0, -1)],
            [S(1), S(3), S(1, 1), S(1, -1)],  # row0 + row1
        ]
        m = Matrix(rows)
        ker = m.nullspace()
        assert m.rank() + len(ker) == m.cols
        for v in ker:
            assert all(not e for e in m.apply(v))

    def test_det_vs_cofactor_small(self):
        import random
        rng = random.Random(7)
        for n in range(1, 5):
            ent = [[S(rng.randint(-4, 4), rng.randint(-1, 1)) for _ in range(n)]
                   for _ in range(n)]
            assert Matrix(ent).det() == det_cofactor(ent)

    def test_solve(self):
        m = Matrix([[ONE, SQRT2], [SQRT2, ONE]])
        rhs = [S(1), S(0)]
        x = m.solve(rhs)
        assert m.apply(x) == rhs


class TestPolyScalar:
    def test_det_diag(self):
        s = variable()
        z = PolyScalar([])
        assert poly_det([[s, z], [z, s]]) == s * s

    def test_det_1x1(self):
        assert poly_det([[PolyScalar.constant(1)]]) == PolyScalar.constant(1)

    def test_det_matches_cofactor(self):
        import random
        rng = random.Random(3)
        for n in range(1, 5):
            ent = [[PolyScalar([S(rng.randint(-3, 3)) for _ in range(3)])
                    for _ in range(n)] for _ in range(n)]
            assert poly_det(ent) == poly_det_cofactor(ent)

    def test_row_exchange_matches_leibniz(self):
        # a zero pivot makes Bareiss exchange rows and flip the sign: at
        # the first step in the first two, at the second in the third
        s, z, one = variable(), PolyScalar([]), PolyScalar.constant(1)
        cases = [[[z, s], [one, z]],
                 [[z, one, s], [s, z, one], [one, s, z]],
                 [[s, one, z], [s, one, s], [one, z, s]]]
        for ent in cases:
            assert poly_det(ent) == poly_det_leibniz(ent)
        assert poly_det(cases[0]) == -s
        assert poly_det([[z, s], [z, one]]) == z

    def test_arithmetic_matches_scalar_coefficients(self):
        # the integer form against coefficientwise Scalar arithmetic
        import random
        rng = random.Random(11)

        def draw():
            return [Scalar(rng.randint(-3, 3), 0, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 4))]

        def trimmed(cs):
            while cs and not cs[-1]:
                cs = cs[:-1]
            return cs

        for _ in range(60):
            a, b = draw(), draw()
            pa, pb = PolyScalar(a), PolyScalar(b)
            n = max(len(a), len(b))
            a0, b0 = a + [ZERO] * (n - len(a)), b + [ZERO] * (n - len(b))
            assert (pa + pb).coeffs == trimmed([x + y for x, y in zip(a0, b0)])
            assert (pa - pb).coeffs == trimmed([x - y for x, y in zip(a0, b0)])
            product = [ZERO] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    product[i + j] = product[i + j] + x * y
            assert (pa * pb).coeffs == trimmed(product)
            if not pb.is_zero():
                assert (pa * pb).exact_div(pb) == pa

    def test_stored_form_is_reduced(self):
        # one polynomial, one stored form, whatever the construction
        p = PolyScalar([HALF, S(Fraction(1, 3)), ZERO]) * S(6)
        assert p == PolyScalar([S(3), S(2)])
        assert (p.p, p.den) == ([3, 2], 1)
        assert p.coeffs == [S(3), S(2)]
        r = p - PolyScalar([S(0), S(2)])
        assert (r.p, r.den) == ([3], 1)
        q = PolyScalar([S(Fraction(2, 3)), S(Fraction(4, 9))])
        assert (q.p, q.den) == ([6, 4], 9)
        assert (q - q).p == [] and (q - q).den == 1

    def test_sqrt2_coefficient_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            PolyScalar([ONE, S(1, 1)])
        with pytest.raises(ValueError, match="rational"):
            variable() * SQRT2

    def test_exact_div(self):
        s = variable()
        p = (s + PolyScalar.constant(2)) * (s - PolyScalar.constant(3))
        assert p.exact_div(s + PolyScalar.constant(2)) == s - PolyScalar.constant(3)
        with pytest.raises(ValueError):
            (s * s + PolyScalar.constant(1)).exact_div(s + PolyScalar.constant(1))

    def test_rational_roots(self):
        s = variable()
        p = (s - PolyScalar.constant(Fraction(1, 2))) * (s + PolyScalar.constant(4)) * s
        roots, rem = rational_roots(p)
        assert sorted(roots) == [Fraction(-4), Fraction(0), Fraction(1, 2)]
        assert rem.degree() == 0

    def test_rational_roots_nonsplit(self):
        s = variable()
        p = s * s + PolyScalar.constant(1)
        roots, rem = rational_roots(p)
        assert roots == [] and rem.degree() == 2

    def test_evaluate(self):
        p = PolyScalar([S(1), S(0), S(2)])  # 1 + 2 s^2
        assert p.evaluate(SQRT2) == S(5)


# Random sparse matrices over Q(sqrt2): a product of an r x k and a k x c
# factor with about half the entries zero, so most have rank below min(r, c).
sparse_scalars = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)))


@st.composite
def sparse_matrices(draw):
    r, c, k = (draw(st.integers(1, 6)), draw(st.integers(1, 6)),
               draw(st.integers(0, 6)))
    a = [[draw(sparse_scalars) for _ in range(k)] for _ in range(r)]
    b = [[draw(sparse_scalars) for _ in range(c)] for _ in range(k)]
    return Matrix([[sum((a[i][t] * b[t][j] for t in range(k)), ZERO)
                    for j in range(c)] for i in range(r)])


def _sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


class TestEchelon:
    @given(sparse_matrices())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rows_are_the_rref(self, m):
        rows, pivots = m.rref()
        echelon = Echelon(_sparse(row) for row in m.entries)
        assert echelon.rows() == [_sparse(row) for row in rows[:len(pivots)]]
        assert len(echelon) == m.rank()

    @given(sparse_matrices(), st.lists(sparse_scalars, min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_reduce_and_add_match_solve(self, m, rhs):
        # columns of m are the added vectors; rhs is reduced against them
        columns = [_sparse(col) for col in m.transpose().entries]
        echelon = Echelon()
        independent = []
        for j, col in enumerate(columns):
            dependency = echelon.add(col)
            earlier = Matrix.from_columns(
                [m.transpose().entries[i] for i in independent]) \
                if independent else None
            if dependency is None:
                independent.append(j)
                continue
            want = earlier.solve(m.transpose().entries[j]) if earlier else []
            assert want is not None
            assert dependency == _sparse(want)
        target = rhs[:m.rows]
        rem, coords = echelon.reduce(_sparse(target))
        basis = Matrix.from_columns(
            [m.transpose().entries[i] for i in independent]) \
            if independent else None
        sol = basis.solve(target) if basis else (
            [] if not any(target) else None)
        assert (not rem) == (sol is not None)
        if sol is not None:
            assert coords == _sparse(sol)
        back = combine(coords, [columns[i] for i in independent])
        for k, c in rem.items():
            back[k] = back.get(k, ZERO) + c
        assert {k: c for k, c in back.items() if c} == _sparse(target)

    @given(sparse_matrices())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_kernel_is_the_nullspace(self, m):
        images = [_sparse(col) for col in m.transpose().entries]
        assert kernel(images) == [_sparse(v) for v in m.nullspace()]

    @given(sparse_matrices())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_dual_basis_matches_solve(self, m):
        # the Gram matrix g = m^T m of the columns; degenerate when rank < c
        n = m.cols
        gram = m.transpose() * m
        basis = [{j: ONE} for j in range(n)]

        def form(x, y):
            return sum((c * d * gram.entries[i][j] for i, c in x.items()
                        for j, d in y.items()), ZERO)

        if gram.rank() < n:
            with pytest.raises(ValueError):
                dual_basis(basis, form, basis)
            return
        duals = dual_basis(basis, form, basis)
        for i in range(n):
            rhs = [ONE if t == i else ZERO for t in range(n)]
            assert duals[i] == _sparse(gram.solve(rhs))

    def test_dependency_of_a_sum(self):
        echelon = Echelon()
        x, y = {0: ONE, 2: SQRT2}, {1: TWO, 2: ONE}
        assert echelon.add(x) is None and echelon.add(y) is None
        assert echelon.add({0: TWO, 1: TWO, 2: TWO * SQRT2 + ONE}) \
            == {0: TWO, 1: ONE}
        assert echelon.add({}) == {}

    @given(sparse_matrices(), st.lists(sparse_scalars, min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_coordinates_match_solve(self, m, rhs):
        columns = [_sparse(col) for col in m.transpose().entries]
        target = rhs[:m.rows]
        if m.rank() < m.cols:
            with pytest.raises(ValueError):
                coordinates(columns, _sparse(target))
            return
        sol = m.solve(target)
        got = coordinates(columns, _sparse(target))
        assert got == (None if sol is None else _sparse(sol))


# Pairs of dense vectors of one length whose entries often cancel.
@st.composite
def dense_pairs(draw):
    n = draw(st.integers(0, 8))
    return ([draw(sparse_scalars) for _ in range(n)],
            [draw(sparse_scalars) for _ in range(n)])


class TestSparseArithmetic:
    """add, sub and scale against entrywise arithmetic on dense lists."""

    @given(dense_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_add_and_sub(self, pair):
        x, y = pair
        u, v = _sparse(x), _sparse(y)
        total, diff = add(u, v), sub(u, v)
        assert total == _sparse([a + b for a, b in zip(x, y)])
        assert diff == _sparse([a - b for a, b in zip(x, y)])
        assert all(total.values()) and all(diff.values())
        assert sub(u, u) == {}
        assert (u, v) == (_sparse(x), _sparse(y))      # inputs untouched

    @given(sparse_scalars, dense_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scale(self, c, pair):
        x, _ = pair
        u = _sparse(x)
        out = scale(c, u)
        assert out == _sparse([c * a for a in x])
        assert all(out.values())
        assert scale(ZERO, u) == {}
        assert u == _sparse(x)


class TestDenseEliminationIsTheOracle:
    """Outside exactnum, the program eliminates only through Echelon and
    holds linear maps and forms as sparse vectors; the dense Matrix is left
    to the tests as the oracle."""

    DENSE = {"rref", "solve", "nullspace", "bareiss"}

    @staticmethod
    def _program_trees():
        package = pathlib.Path(f4workbench.__file__).parent
        sources = sorted(p for p in package.glob("*.py")
                         if p.name != "exactnum.py")
        assert sources
        return [(path.name, ast.parse(path.read_text(), str(path)))
                for path in sources]

    def test_no_dense_elimination_in_the_program(self):
        calls = []
        for name, tree in self._program_trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self.DENSE):
                    calls.append("%s:%d %s" % (name, node.lineno,
                                               node.func.attr))
        assert calls == []

    def test_no_dense_matrix_in_the_program(self):
        # no import, name or attribute Matrix outside exactnum
        uses = []
        for name, tree in self._program_trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.Name) and node.id == "Matrix"
                        or isinstance(node, ast.Attribute)
                        and node.attr == "Matrix"
                        or isinstance(node, ast.alias)
                        and node.name == "Matrix"):
                    uses.append("%s:%d" % (name, getattr(node, "lineno", 0)))
        assert uses == []
