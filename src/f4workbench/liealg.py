"""Structure-constant Lie algebras and the exact F4 model.

The generic half of the module constructs a Chevalley basis for any
root system of rootdata: integer structure constants with signs fixed
by a deterministic extraspecial-pair convention, plus the Killing form
and Jacobi validation.  Elements are sparse dicts {basis index: Scalar}.
The roots of rootdata are tuples of Fractions; ChevalleyData works on
each root's integer coefficients over the simple roots, which
RootSystem.coefficients already holds, fixes the signs on those, and
maps its results back.  Labels, root_index and the public fields of
ChevalleyData are on the Fraction coordinates.

The F4 half instantiates the split 52-dimensional algebra in epsilon
coordinates, builds the involution fixing the centralizer of the split
torus pointwise, normalizes the distinguished vectors, applies the
rotation exp(pi/4 ad(W)) moving the split Cartan into the compact one
(computed exactly by Lagrange interpolation over Q(sqrt2)), and exposes
the named subspaces and transversality maps used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactnum import (Echelon, ONE, Scalar, ZERO, accumulate, add, combine,
                       coordinates, kernel, scale, sca, sqrt_in_field, sub)
from .reporting import Report
from .rootdata import (
    Coord, F4_SIMPLE, RootSystem, cartan_type, dot, f4_root_system,
    f4_satake_data, gamma_basis, simple_system, theta_coord, vadd, vneg,
    vsub, vec,
)

# A Lie algebra element: sparse mapping basis index -> nonzero Scalar.
LieElement = Dict[int, Scalar]

# Brackets on a rescaled basis: (i, j) -> ((k, integer constant), ...).
IntBrackets = Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]]


class IntegerTable(NamedTuple):
    """The bracket table on the rescaled basis e'_i = L sqrt2^{s_i} e_i.

    parity holds the s_i and scale the L; brackets[(i, j)] = [e'_i, e'_j]
    for every ordered pair with a nonzero bracket, with integer constants.
    """

    parity: List[int]
    scale: int
    brackets: IntBrackets


class LieAlgebra:
    """Finite-dimensional Lie algebra with an exact bracket table.

    The table is fixed once the algebra is built: integer_table() caches
    its rescaled integer form on the instance.
    """

    def __init__(self, labels: Sequence[str], table: Dict[Tuple[int, int], LieElement]):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        # store only i < j; antisymmetry supplies the rest
        self.table = {k: dict(v) for k, v in table.items() if v}
        self._integer_table: Optional[IntegerTable] = None

    def bracket_basis(self, i: int, j: int) -> LieElement:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        out: LieElement = {}
        for i, ci in x.items():
            for j, cj in y.items():
                t = self.bracket_basis(i, j)
                if t:
                    accumulate(out, t, ci * cj)
        return out

    def integer_table(self) -> IntegerTable:
        """The table on the rescaled basis where every constant is an
        integer (see _rescaling), built on first use; raises ValueError
        when no such rescaling exists."""
        if self._integer_table is None:
            self._integer_table = _rescaling(self)
        return self._integer_table

    def jacobi_failures(self, limit: int = 10) -> List[Tuple[int, int, int]]:
        """Basis triples i < j < k violating the Jacobi identity, in
        lexicographic order (up to limit).

        Runs on the integer table: Jacobi is trilinear, so on e'_i, e'_j,
        e'_k it is L^3 sqrt2^{s_i+s_j+s_k} times its value on e_i, e_j, e_k
        and fails on exactly the same triples.  A table with no integer
        form (say [a, b] = (1 + sqrt2) b) runs the same loop on its Scalar
        constants.
        """
        try:
            get, zero = self.integer_table().brackets.get, 0
        except ValueError:
            def get(pair, default):
                return self.bracket_basis(*pair).items()
            zero = ZERO
        bad = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = get((i, j), ())
                for k in range(j + 1, self.dim):
                    acc: dict = {}
                    for terms, x in ((bij, k), (get((j, k), ()), i),
                                     (get((k, i), ()), j)):
                        for a, c in terms:
                            for m, d in get((a, x), ()):
                                acc[m] = acc.get(m, zero) + c * d
                    if any(acc.values()):
                        bad.append((i, j, k))
                        if len(bad) >= limit:
                            return bad
        return bad

    def killing_form(self) -> List[LieElement]:
        """kappa(x, y) = trace(ad x ad y), exactly, as symmetric sparse
        rows: row i holds kappa(e_i, e_j) at each j where it is nonzero."""
        n = self.dim
        # rows of ad: ad_j[k] = bracket_basis(j, k)
        ad = [[self.bracket_basis(j, k) for k in range(n)] for j in range(n)]
        out: List[LieElement] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc = ZERO
                for k in range(n):
                    t = ad[j][k]
                    if not t:
                        continue
                    for l, c in t.items():
                        c2 = ad[i][l].get(k)
                        if c2:
                            acc = acc + c * c2
                if acc:
                    out[i][j] = acc
                    out[j][i] = acc
        return out


def _rescaling(algebra: LieAlgebra) -> IntegerTable:
    """Parities s_i, scale L and the brackets on e'_i = L sqrt2^{s_i} e_i.

    The rescaling turns a constant c of [e_i, e_j] at e_k into
    L sqrt2^{s_i + s_j - s_k} c.  With c rational or a rational multiple
    of sqrt2 (t = 1 for the latter), the power of sqrt2 is rational
    exactly when s_i + s_j + s_k = t mod 2.  That GF(2) system is solved
    with the free parities set to 0, and L is the lcm of the denominators
    left.  Raises ValueError on a constant that mixes Q and Q sqrt2, or
    when the system has no solution.
    """
    unsolvable = ("no rescaling by powers of sqrt2 makes the structure "
                  "constants rational")
    equations = {}          # bit mask of {i, j, k} -> t
    for (i, j), t in algebra.table.items():
        for k, c in t.items():
            if c.p and c.q:
                raise ValueError(
                    "structure constant %s of [%s, %s] at %s mixes Q and "
                    "Q*sqrt2" % (c.to_string(), algebra.labels[i],
                                 algebra.labels[j], algebra.labels[k]))
            mask = (1 << i) ^ (1 << j) ^ (1 << k)
            parity = 1 if c.q else 0
            if equations.setdefault(mask, parity) != parity:
                raise ValueError(unsolvable)
    pivots = {}             # lowest bit -> (mask, parity), fully reduced
    for mask, parity in equations.items():
        for low, (pm, pp) in pivots.items():
            if mask >> low & 1:
                mask, parity = mask ^ pm, parity ^ pp
        if not mask:
            if parity:
                raise ValueError(unsolvable)
            continue
        low = (mask & -mask).bit_length() - 1
        for other, (om, op) in pivots.items():
            if om >> low & 1:
                pivots[other] = (om ^ mask, op ^ parity)
        pivots[low] = (mask, parity)
    # with the free parities 0, each pivot parity is its equation's t
    s = [0] * algebra.dim
    for low, (_, parity) in pivots.items():
        s[low] = parity
    rational = {}           # (i, j) -> [(k, num, den)], sqrt2^{s_i+s_j-s_k} c
    scale_l = 1
    for (i, j), t in algebra.table.items():
        row = rational[(i, j)] = []
        for k, c in t.items():
            num = c.q if c.q else c.p
            # sqrt2^{s_i + s_j - s_k + t} is 1 or 2
            if s[i] + s[j] - s[k] + (1 if c.q else 0) == 2:
                num *= 2
            g = gcd(num, c.r)
            row.append((k, num // g, c.r // g))
            scale_l = lcm(scale_l, c.r // g)
    brackets: IntBrackets = {}
    for (i, j), row in rational.items():
        items = tuple((k, num * scale_l // den) for k, num, den in row)
        brackets[(i, j)] = items
        brackets[(j, i)] = tuple((k, -c) for k, c in items)
    return IntegerTable(s, scale_l, brackets)


# ---------------------------------------------------------------------------
# Chevalley basis from a root system
# ---------------------------------------------------------------------------

# A root by its integer coefficients over the simple roots.
_IntRoot = Tuple[int, ...]


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError("%d/%d is not an integer" % (num, den))
    return q


class ChevalleyData:
    """Positive-pair structure constants with extraspecial-pair signs.

    N(a, b) = p + 1 on each extraspecial pair (Carter, Simple Groups of
    Lie Type, 4.2); every other N follows from the relations among them.
    The work runs on integers: each root is keyed by its coefficients
    over the simple roots (rs.coefficients), and the squared lengths are
    scaled by the lcm of their denominators.  The positive roots keep the
    order of rs.positives, by (height, coordinates), and a linear map
    keeps every root string and length ratio, so the labels, extraspecial
    pairs and signs are those of the coordinates of rs.  pos_order,
    height, extraspecial and N are mapped back to those coordinates once,
    at the end; N holds integers.
    """

    def __init__(self, rs: RootSystem):
        coeff = self._coefficients = rs.coefficients
        lengths = {r: dot(r, r) for r in rs.roots}
        scale_len = lcm(*(v.denominator for v in lengths.values()))
        self._rational: Dict[_IntRoot, Coord] = {
            ks: r for r, ks in coeff.items()}
        self._len: Dict[_IntRoot, int] = {
            ks: int(lengths[r] * scale_len) for r, ks in coeff.items()}
        self._simple_len = [self._len[coeff[a]] for a in rs.simple]
        self._order = [coeff[r] for r in rs.positives]
        self._rank = {r: n for n, r in enumerate(self._order)}
        self._extraspecial: Dict[_IntRoot, Tuple[_IntRoot, _IntRoot]] = {}
        self._N: Dict[Tuple[_IntRoot, _IntRoot], int] = {}
        self._build()
        back = self._rational
        self.pos_order = list(rs.positives)
        self.height = {r: sum(coeff[r]) for r in rs.positives}
        self.extraspecial: Dict[Coord, Tuple[Coord, Coord]] = {
            back[g]: (back[a], back[b])
            for g, (a, b) in self._extraspecial.items()}
        self.N: Dict[Tuple[Coord, Coord], int] = {
            (back[a], back[b]): v for (a, b), v in self._N.items()}

    def _down_string(self, alpha: _IntRoot, beta: _IntRoot) -> int:
        p = 0
        cur = vsub(beta, alpha)
        while cur in self._len:
            p += 1
            cur = vsub(cur, alpha)
        return p

    def _build(self):
        # every root, and only a root, has a length
        roots = length = self._len
        rank, n_any = self._rank, self._n_any
        for gamma in self._order:
            # a simple root has height 1
            if sum(gamma) == 1:
                continue
            # pairs a + b = gamma of positive roots, a first, by rank of a
            pairs = []
            for a in self._order[:rank[gamma]]:
                b = vsub(gamma, a)
                if b in rank and rank[a] <= rank[b]:
                    pairs.append((a, b))
            a1, b1 = pairs[0]
            self._extraspecial[gamma] = (a1, b1)
            n11 = self._N[(a1, b1)] = self._down_string(a1, b1) + 1
            for (a, b) in pairs[1:]:
                t1 = t3 = 0
                if vsub(a, a1) in roots:
                    t1 = n_any(vneg(a1), a) * n_any(vsub(a, a1), b)
                if vsub(b, a1) in roots:
                    t3 = n_any(b, vneg(a1)) * n_any(vsub(b, a1), a)
                val = _exact_quotient((t1 + t3) * length[gamma],
                                      length[b1] * n11)
                expected = self._down_string(a, b) + 1
                if abs(val) != expected:
                    raise AssertionError(
                        "structure constant magnitude %s != string bound %s"
                        % (val, expected))
                self._N[(a, b)] = val

    def _n_any(self, x: _IntRoot, y: _IntRoot) -> int:
        """N(x, y) for arbitrary roots with x + y a nonzero root."""
        rank = self._rank
        xpos = x in rank
        ypos = y in rank
        if xpos and ypos:
            if (x, y) in self._N:
                return self._N[(x, y)]
            return -self._N[(y, x)]
        if not xpos and not ypos:
            return -self._n_any(vneg(x), vneg(y))
        if not xpos:
            return -self._n_any(y, x)
        # x positive, y = -nu negative
        length = self._len
        nu = vneg(y)
        gamma = vadd(x, y)
        if gamma in rank:
            return _exact_quotient(-length[gamma] * self._n_any(nu, gamma),
                                   length[x])
        mu = vneg(gamma)
        return _exact_quotient(length[mu] * self._n_any(mu, x), length[nu])

    def _coroot(self, beta: _IntRoot) -> LieElement:
        bb = self._len[beta]
        return {i: sca(_exact_quotient(k * aa, bb))
                for i, (k, aa) in enumerate(zip(beta, self._simple_len)) if k}

    def coroot(self, beta: Coord) -> LieElement:
        """The beta-coroot over the simple coroots, the first rs.rank
        labels of a Chevalley basis (integer coefficients); raises
        ValueError on a non-integral expansion."""
        return self._coroot(self._coefficients[beta])


def root_label(r: Coord) -> str:
    return "x[%s]" % ",".join(str(c) for c in r)


def chevalley_algebra(rs: RootSystem) -> LieAlgebra:
    """Chevalley basis {h_i} + {x_r}: integer constants, Jacobi-true.

    Runs on the simple-root coefficients of ChevalleyData; the labels and
    root_index are on the coordinates of rs.
    """
    data = ChevalleyData(rs)
    rank = rs.rank
    allroots = data._order + [vneg(r) for r in data._order]
    labels = ["h%d" % (i + 1) for i in range(rank)]
    labels += [root_label(data._rational[r]) for r in allroots]
    ridx = {r: rank + n for n, r in enumerate(allroots)}

    # every key (i, j) below has i < j: the h_i come first and the roots
    # are visited in label order
    table: Dict[Tuple[int, int], LieElement] = {}
    for i in range(rank):
        column = [row[i] for row in rs.cartan]
        for r in allroots:
            # <r, alpha_i^vee> = sum_j c_j <alpha_j, alpha_i^vee>
            pairing = sum(c * a for c, a in zip(r, column))
            if pairing:
                table[(i, ridx[r])] = {ridx[r]: sca(pairing)}
    for n, r in enumerate(allroots):
        for s in allroots[n + 1:]:
            tot = vadd(r, s)
            if tot in ridx:
                table[(ridx[r], ridx[s])] = {ridx[tot]:
                                             sca(data._n_any(r, s))}
            elif not any(tot):
                table[(ridx[r], ridx[s])] = data._coroot(r)
    alg = LieAlgebra(labels, table)
    alg.root_index = {data._rational[r]: i for r, i in ridx.items()}
    alg.rank = rank
    alg.rs = rs
    alg.chevalley = data
    return alg


# ---------------------------------------------------------------------------
# The F4 model
# ---------------------------------------------------------------------------


# Lagrange interpolation of exp(pi/4 * t) on the spectrum {0, +-i, +-2i};
# the resulting degree-4 polynomial has coefficients in Q(sqrt2).
_CAYLEY_COEFFS = (
    Scalar.from_pair(1, 0),
    Scalar.from_pair(Fraction(-1, 6), Fraction(2, 3)),
    Scalar.from_pair(Fraction(15, 12), Fraction(-2, 3)),
    Scalar.from_pair(Fraction(-1, 6), Fraction(1, 6)),
    Scalar.from_pair(Fraction(1, 4), Fraction(-1, 6)),
)


def cayley_transform(algebra: LieAlgebra, xmu: LieElement,
                     theta_xmu: LieElement) -> List[LieElement]:
    """exp(pi/4 ad(W)), W = theta_xmu - xmu, exactly: entry j is the
    image of e_j, with ascending keys.

    The generator acts semisimply with spectrum in {0, +-i, +-2i}; the
    exponential is the interpolation polynomial in A = ad(W), applied to
    one basis vector at a time.  Raises if the spectrum condition (the
    minimal-polynomial identity A(A^2+1)(A^2+4) = 0) fails on some basis
    vector, which signals a wrong normalization.
    """
    w = sub(theta_xmu, xmu)
    coeffs = dict(enumerate(_CAYLEY_COEFFS))
    columns = []
    for j in range(algebra.dim):
        powers = [{j: ONE}]            # v, Av, ..., A^5 v
        for _ in range(5):
            powers.append(algebra.bracket(w, powers[-1]))
        if combine({1: sca(4), 3: sca(5), 5: ONE}, powers):
            raise ValueError("generator spectrum is not {0,+-i,+-2i}; "
                             "check the s-triple normalization")
        column = combine(coeffs, powers)
        columns.append({i: column[i] for i in sorted(column)})
    return columns


K_LABELS = (
    "Xm1", "Xm2", "Xm3", "Xm4", "Xmdelta", "Xmphi1", "Xmdelta1", "Xmphi2",
    "Xmdelta2", "Xmpsi1", "Xmpsi2", "T32", "T42", "T43", "Sm23", "Sm24",
    "X1", "Xpsi1", "Xpsi2", "Xdelta1", "Xdelta2",
    "Ht1", "Ht2", "Ht3", "Ht4",
    "Xdelta", "E",
    "D2", "D3", "D4", "T23", "T24", "T34",
    "X2", "S23", "S24",
)

MPLUS_LABELS = ("D2", "D3", "D4", "T23", "T24", "T34", "X2", "S23", "S24")
Y_LABELS = ("X2", "S23", "S24")


@dataclass
class F4Model:
    """The exact split F4 model with its named vectors and subspaces.

    g_algebra is the one rebased table, over the mixed basis g_basis (the
    k vectors in the order K_LABELS, Z, the root vectors of n); k_algebra
    is its restriction to K_LABELS, so k coordinates are mixed
    coordinates.  bform is the one invariant form; the Killing form is
    18 bform.
    """

    # theta and chi hold the image of e_j at j; bform holds symmetric
    # sparse rows, row i holding the pairings of e_i with the e_j
    algebra: LieAlgebra                    # Chevalley basis of g
    theta: List[LieElement]                # Cartan-type involution
    bform: List[LieElement]                # Killing / 18: epsilon-orthonormal
    chi: List[LieElement]                  # the rotation into the compact Cartan
    distinguished: Dict[str, LieElement]   # named vectors, Chevalley coords
    subspaces: Dict[str, Echelon]
    k_algebra: LieAlgebra                  # g_algebra on the labels K_LABELS
    g_basis: List[LieElement]              # k basis + Z + 15 n-vectors
    g_algebra: LieAlgebra                  # bracket table over the mixed basis
    k_t_weights: Dict[int, Coord]          # torus weight per k label

    def b(self, x: LieElement, y: LieElement) -> Scalar:
        """The invariant form normalized so the epsilon basis is orthonormal."""
        return _form_value(self.bform, x, y)

    def theta_apply(self, x: LieElement) -> LieElement:
        return combine(x, self.theta)

    def chi_apply(self, x: LieElement) -> LieElement:
        return combine(x, self.chi)

    def in_chevalley(self, x: LieElement) -> LieElement:
        """Convert a mixed-basis element to Chevalley coordinates.

        The mixed basis lists the k basis first, so k coordinates are
        mixed coordinates and convert the same way.
        """
        return combine(x, self.g_basis)

    k_element_in_g = in_chevalley


def _build_theta(alg: LieAlgebra, rs: RootSystem,
                 c1: Scalar) -> List[LieElement]:
    """The images of the basis vectors under the involution extending the
    coordinate flip, with c1 on the flipped simple raisings."""
    data: ChevalleyData = alg.chevalley
    rank = rs.rank
    images: Dict[int, LieElement] = {}
    # Cartan part: h_alpha -> h_(theta alpha)
    for i in range(rank):
        images[i] = data.coroot(theta_coord(rs.simple[i]))
    ridx = alg.root_index
    for i, alpha in enumerate(rs.simple):
        ta = theta_coord(alpha)
        if ta == alpha:
            images[ridx[alpha]] = {ridx[alpha]: ONE}
            images[ridx[vneg(alpha)]] = {ridx[vneg(alpha)]: ONE}
        else:
            images[ridx[alpha]] = {ridx[ta]: c1}
            images[ridx[vneg(alpha)]] = {ridx[vneg(ta)]: c1.inverse()}
    for gamma in data.pos_order:
        if data.height[gamma] == 1:
            continue
        a1, b1 = data.extraspecial[gamma]
        n = sca(data.N[(a1, b1)])
        ninv = n.inverse()
        img = alg.bracket(images[ridx[a1]], images[ridx[b1]])
        images[ridx[gamma]] = scale(ninv, img)
        imgn = alg.bracket(images[ridx[vneg(a1)]], images[ridx[vneg(b1)]])
        images[ridx[vneg(gamma)]] = scale(-ninv, imgn)
    return [{i: images[j][i] for i in sorted(images[j])}
            for j in range(alg.dim)]


def _is_automorphism(alg: LieAlgebra,
                     images: List[LieElement]) -> Optional[str]:
    """None when the linear map sending e_j to images[j] preserves every
    basis bracket, else the first basis pair i < j where the image of
    [e_i, e_j] is not [images[i], images[j]]."""
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if combine(alg.bracket_basis(i, j), images) \
                    != alg.bracket(images[i], images[j]):
                return "bracket image mismatch at basis pair (%s, %s)" % (
                    alg.labels[i], alg.labels[j])
    return None


def _ratio(x: LieElement, y: LieElement) -> Scalar:
    """The scalar c with x = c*y; raises if not proportional."""
    if not y:
        raise ValueError("ratio against zero")
    j = next(iter(y))
    c = x.get(j, ZERO) / y[j]
    if x != scale(c, y):
        raise ValueError("elements are not proportional")
    return c


def _rebase_table(parent: LieAlgebra, basis: List[LieElement],
                  labels: Sequence[str]) -> LieAlgebra:
    """Bracket table of a list of closed vectors, over those vectors.

    The result carries coords_in_parent, the coordinates over the vectors
    of a parent element in their span; it raises on any other element.
    """
    n = len(basis)
    span = Echelon()
    if any(span.add(b) is not None for b in basis):
        raise ValueError("basis vectors are dependent")

    def coords(x: LieElement) -> LieElement:
        rem, out = span.reduce(x)
        if rem:
            raise ValueError("element does not lie in the span")
        return out

    table: Dict[Tuple[int, int], LieElement] = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = parent.bracket(basis[i], basis[j])
            if br:
                table[(i, j)] = coords(br)
    out = LieAlgebra(labels, table)
    out.coords_in_parent = coords
    return out


def _leading_subalgebra(alg: LieAlgebra, labels: Sequence[str]) -> LieAlgebra:
    """The table of alg on its first len(labels) basis vectors, renamed to
    labels; raises ValueError naming a bracket that leaves them."""
    n = len(labels)
    table = {ij: v for ij, v in alg.table.items() if ij[1] < n}
    for (i, j), v in table.items():
        if max(v) >= n:
            raise ValueError("[%s, %s] leaves the first %d labels"
                             % (alg.labels[i], alg.labels[j], n))
    return LieAlgebra(labels, table)


def _closure(parent: LieAlgebra, generators: List[LieElement]) -> Echelon:
    span = Echelon(generators)
    frontier = span.rows()
    while frontier:
        new = []
        basis_now = span.rows()
        for x in frontier:
            for y in basis_now:
                br = parent.bracket(x, y)
                if br and span.add(br) is None:
                    new.append(br)
        frontier = new
    return span


@lru_cache(maxsize=1)
def build_f4_model() -> F4Model:
    """Construct and normalize the whole model; raises on any failed identity."""
    rs = f4_root_system()
    alg = chevalley_algebra(rs)
    ridx = alg.root_index
    n = alg.dim

    kappa = alg.killing_form()

    # epsilon-dual torus elements: T_i in h with eps_j(T_i) = delta_ij
    # h coordinates: eps_j(h_alpha_i) = coroot pairing of eps_j with alpha_i
    pair = [[rs.coroot_pairing(_eps(j), rs.simple[i]) for i in range(4)]
            for j in range(4)]
    columns = [{j: sca(pair[j][i]) for j in range(4) if pair[j][i]}
               for i in range(4)]
    t_elements = [coordinates(columns, {i: ONE}) for i in range(4)]

    # the invariant form with orthonormal epsilon basis
    k_t1 = _form_value(kappa, t_elements[0], t_elements[0])
    if not k_t1.is_rational() or k_t1.rational_value() <= 0:
        raise ValueError("unexpected Killing normalization")
    bform = [scale(k_t1.inverse(), row) for row in kappa]
    for i in range(4):
        for j in range(4):
            expect = ONE if i == j else ZERO
            if _form_value(bform, t_elements[i], t_elements[j]) != expect:
                raise ValueError("epsilon basis is not orthonormal under the form")

    def b_val(x, y):
        return _form_value(bform, x, y)

    # involution: try both generator signs
    theta = None
    for c1 in (ONE, -ONE):
        cand = _build_theta(alg, rs, c1)
        if _is_involution(cand):
            theta = cand
            break
    if theta is None:
        raise ValueError("no involutive extension of the coordinate flip")
    err = _is_automorphism(alg, theta)
    if err:
        raise ValueError("involution is not an automorphism: " + err)

    def th(x: LieElement) -> LieElement:
        return combine(x, theta)

    # fixed and anti-fixed subspaces: spanned by x + theta x and x - theta x
    k_span = Echelon([add(theta[j], {j: ONE}) for j in range(n)])
    p_span = Echelon([sub({j: ONE}, theta[j]) for j in range(n)])
    if (len(k_span), len(p_span)) != (36, 16):
        raise ValueError("fixed-space dimensions (%d, %d) are wrong"
                         % (len(k_span), len(p_span)))

    # X_mu normalization: <X_mu, theta X_mu> = 2 under bform
    eps1 = _eps(1 - 1)
    x_e1 = {ridx[eps1]: ONE}
    beta = b_val(x_e1, th(x_e1))
    lam = sqrt_in_field(sca(2) / beta)
    xmu = scale(lam, x_e1)
    alpha1 = F4_SIMPLE[0]
    x_a1 = {ridx[alpha1]: ONE}
    x_ma1 = {ridx[vneg(alpha1)]: ONE}
    t_val = _ratio(alg.bracket(xmu, th(x_a1)), x_a1)
    if t_val * t_val != ONE:
        raise ValueError("normalization scalar t with t^2 = 1 not found")
    if t_val == ONE:
        xmu = scale(-ONE, xmu)
    if alg.bracket(xmu, x_ma1) != th(x_ma1):
        raise ValueError("second normalization identity failed")
    h_mu = alg.bracket(xmu, th(xmu))
    if h_mu != scale(sca(2), t_elements[0]):
        raise ValueError("s-triple bracket is not the coroot of the split root")

    chi = cayley_transform(alg, xmu, th(xmu))

    def ch(x: LieElement) -> LieElement:
        return combine(x, chi)

    # named vectors, normalized by their defining relations
    e_elt = add(x_ma1, th(x_ma1))
    g = gamma_basis()
    a_g1 = g["gamma1"]           # pre-image root of gamma1 has equal coords
    x1 = ch({ridx[a_g1]: ONE})
    xm1 = ch({ridx[vneg(a_g1)]: ONE})
    h1 = alg.bracket(x1, xm1)
    g2 = g["gamma2"]
    x2_raw = {ridx[g2]: ONE}     # chi-fixed
    sigma = _ratio(alg.bracket(x1, x2_raw), e_elt)
    x2 = scale(sigma.inverse(), x2_raw)
    xm2 = scale(sigma, {ridx[vneg(g2)]: ONE})
    h2 = alg.bracket(x2, xm2)
    x4 = alg.bracket(x1, e_elt)
    g4pre = g["gamma4"]
    rho = _ratio(x4, ch({ridx[g4pre]: ONE}))
    xdelta = scale(rho, ch(th({ridx[g4pre]: ONE})))
    phi_pairs = {}
    for nm in ("phi1", "phi2"):
        plus = ch({ridx[g[nm]]: ONE})
        minus = ch(th({ridx[g[nm]]: ONE}))
        phi_pairs[nm] = (plus, minus)
    xphi1, xdelta1 = phi_pairs["phi1"]
    xphi2, xdelta2 = phi_pairs["phi2"]

    def dual_normalized(x_pos: LieElement, neg_root_pre: Coord) -> LieElement:
        v = ch({ridx[neg_root_pre]: ONE})
        c = b_val(x_pos, v)
        return scale(c.inverse(), v)

    xm4 = dual_normalized(x4, vneg(g4pre))
    xmdelta = dual_normalized(xdelta, vneg(g["delta"]))
    xmphi1 = dual_normalized(xphi1, vneg(g["phi1"]))
    xmdelta1 = dual_normalized(xdelta1, vneg(g["delta1"]))
    xmphi2 = dual_normalized(xphi2, vneg(g["phi2"]))
    xmdelta2 = dual_normalized(xdelta2, vneg(g["delta2"]))

    xm3 = ch({ridx[vneg(g["gamma3"])]: ONE})
    xpsi1 = ch({ridx[g["psi1"]]: ONE})
    xpsi2 = ch({ridx[g["psi2"]]: ONE})
    xmpsi1 = ch({ridx[vneg(g["psi1"])]: ONE})
    xmpsi2 = ch({ridx[vneg(g["psi2"])]: ONE})

    def chev_root(*coords) -> LieElement:
        return {ridx[vec(*coords)]: ONE}

    t23 = chev_root(0, 1, -1, 0)
    t24 = chev_root(0, 1, 0, -1)
    t34 = chev_root(0, 0, 1, -1)
    t32 = chev_root(0, -1, 1, 0)
    t42 = chev_root(0, -1, 0, 1)
    t43 = chev_root(0, 0, -1, 1)
    s23 = chev_root(0, 1, 1, 0)
    s24 = chev_root(0, 1, 0, 1)
    sm23 = chev_root(0, -1, -1, 0)
    sm24 = chev_root(0, -1, 0, -1)

    d2 = sub(x4, xdelta)
    d3 = sub(xphi1, xdelta1)
    d4 = sub(xphi2, xdelta2)

    ht1 = ch(t_elements[0])
    named = {
        "Xm1": xm1, "Xm2": xm2, "Xm3": xm3, "Xm4": xm4, "Xmdelta": xmdelta,
        "Xmphi1": xmphi1, "Xmdelta1": xmdelta1, "Xmphi2": xmphi2,
        "Xmdelta2": xmdelta2, "Xmpsi1": xmpsi1, "Xmpsi2": xmpsi2,
        "T32": t32, "T42": t42, "T43": t43, "Sm23": sm23, "Sm24": sm24,
        "X1": x1, "Xpsi1": xpsi1, "Xpsi2": xpsi2,
        "Xdelta1": xdelta1, "Xdelta2": xdelta2,
        "Ht1": ht1, "Ht2": t_elements[1], "Ht3": t_elements[2],
        "Ht4": t_elements[3],
        "Xdelta": xdelta, "E": e_elt,
        "D2": d2, "D3": d3, "D4": d4, "T23": t23, "T24": t24, "T34": t34,
        "X2": x2, "S23": s23, "S24": s24,
    }
    for lab, v in named.items():
        if th(v) != v:
            raise ValueError("basis vector %s is not fixed by the involution" % lab)

    # Iwasawa complement: Z spans a, n spans the positive restricted part
    _, split = f4_satake_data()
    z_elt = t_elements[0]
    n_basis = [ {ridx[a]: ONE} for a in split.p_plus ]
    g_labels = list(K_LABELS) + ["Z"] + ["n%d" % i for i in range(len(n_basis))]
    g_basis = [named[lab] for lab in K_LABELS] + [z_elt] + n_basis
    g_alg = _rebase_table(alg, g_basis, g_labels)
    k_alg = _leading_subalgebra(g_alg, K_LABELS)
    k_t_weights = _k_torus_weights(k_alg)

    # named non-basis vectors
    h_a1 = alg.chevalley.coroot(alpha1)
    y_elt = sub(h_a1, z_elt)   # torus part of the alpha1 coroot
    h_elt = scale(sca(Fraction(1, 2)), h2)
    ytilde = add(y_elt, h_elt)
    got_c = _ratio(alg.bracket(e_elt, y_elt), e_elt)
    if got_c != sca(Fraction(3, 2)):
        raise ValueError("the scalar alpha1(Y) is %r, expected 3/2" % got_c)

    hr1 = alg.chevalley.coroot(vec(0, 0, 1, -1))
    hr2 = ch(alg.chevalley.coroot(vec(-1, 0, 0, 1)))
    h43 = ch(alg.chevalley.coroot(vec(0, 0, -1, 1)))
    zo = add(add(add(xm4, xmdelta), add(xmphi2, xmdelta2)),
             add(xm3, h43))

    distinguished = dict(named)
    distinguished.update({
        "X4": x4, "Xphi1": xphi1, "Xphi2": xphi2,
        "Xmu": xmu, "Hmu": h_mu, "H1": h1, "H2": h2,
        "Y": y_elt, "Z": z_elt, "H": h_elt, "Ytilde": ytilde, "Zo": zo,
    })

    # subspaces
    msp = Echelon([ {ridx[a]: ONE} for a in split.p_minus ])
    mplus_named = Echelon([named[l] for l in MPLUS_LABELS])
    if len(msp) != 9 or len(mplus_named) != 9 or not all(
            msp.contains(v) for v in mplus_named.rows()):
        raise ValueError("nilpotent part of the centralizer mismatch")
    m_all = Echelon([ {ridx[a]: ONE} for a in split.p_minus ] +
                    [ {ridx[vneg(a)]: ONE} for a in split.p_minus ] +
                    t_elements[1:])
    y_sub = Echelon([named[l] for l in Y_LABELS])
    kplus_names = ("X1", "X2", "E", "Xdelta", "Xdelta1", "Xdelta2", "Xpsi1",
                   "Xpsi2", "S23", "S24", "T23", "T24", "T34")
    kplus = Echelon([named[nm] for nm in kplus_names] + [x4, xphi1, xphi2])
    qplus = Echelon([named[nm] for nm in kplus_names if nm != "X1"]
                    + [x4, xphi1, xphi2])
    q = Echelon(qplus.rows() + [hr1, hr2, t43])
    qtilde = Echelon(kplus.rows() + [hr1, hr2, t43, xmdelta2, xmdelta1])
    a_sub = Echelon([z_elt])
    n_sub = Echelon(n_basis)
    gt = _closure(alg, [chev_root(0, 1, 0, 0), chev_root(0, -1, 0, 0),
                        {ridx[alpha1]: ONE}, {ridx[vneg(alpha1)]: ONE},
                        chev_root(0, 0, 1, 1), chev_root(0, 0, -1, -1)])

    subspaces = {
        "k": k_span, "p": p_span, "m": m_all, "mplus": mplus_named,
        "a": a_sub, "n": n_sub, "y": y_sub, "q": q, "qplus": qplus,
        "qtilde": qtilde, "gtilde": gt,
        "t": Echelon(t_elements[1:]),
    }

    model = F4Model(
        algebra=alg, theta=theta, bform=bform, chi=chi,
        distinguished=distinguished, subspaces=subspaces,
        k_algebra=k_alg, g_basis=g_basis, g_algebra=g_alg,
        k_t_weights=k_t_weights,
    )
    model.subspaces["mplus_perp"] = orthocomplement(model, subspaces["mplus"],
                                                    subspaces["k"])
    model.subspaces["y_perp"] = orthocomplement(model, subspaces["y"],
                                                subspaces["k"])
    return model


def _eps(i: int) -> Coord:
    return tuple(Fraction(1 if j == i else 0) for j in range(4))


def _form_value(form: List[LieElement], x: LieElement,
                y: LieElement) -> Scalar:
    acc = ZERO
    for i, ci in x.items():
        row = form[i]
        for j, cj in y.items():
            f = row.get(j)
            if f:
                acc = acc + ci * cj * f
    return acc


def _is_involution(images: List[LieElement]) -> bool:
    """Whether the map sending e_j to images[j] squares to the identity."""
    return all(combine(x, images) == {j: ONE} for j, x in enumerate(images))


def _k_torus_weights(k_alg: LieAlgebra) -> Dict[int, Coord]:
    """k_t_weights read off the brackets [Ht_i, e_j] of the k table.

    Ht2..Ht4 act diagonally on every label, and k_t_weights[j] is (0, their
    eigenvalues on label j); raises ValueError otherwise.
    """
    hts = [k_alg.index[nm] for nm in ("Ht2", "Ht3", "Ht4")]
    k_t_weights: Dict[int, Coord] = {}
    for j in range(k_alg.dim):
        w = [Fraction(0)]
        for h in hts:
            br = k_alg.bracket_basis(h, j)
            if not br.keys() <= {j}:
                raise ValueError("the small torus does not act diagonally "
                                 "on %s" % k_alg.labels[j])
            w.append(br.get(j, ZERO).rational_value())
        k_t_weights[j] = tuple(w)
    return k_t_weights


def orthocomplement(model: F4Model, sub: Echelon, within: Echelon) -> Echelon:
    """Exact orthocomplement of sub inside within, for the invariant form."""
    wb = within.rows()
    if kernel([{i: model.b(x, w) for i, x in enumerate(wb)} for w in wb]):
        raise ValueError("form degenerates on the ambient subspace")
    sb = sub.rows()
    pairings = [{i: model.b(s, w) for i, s in enumerate(sb)} for w in wb]
    result = Echelon([combine(c, wb) for c in kernel(pairings)])
    if len(sub) + len(result) != len(within):
        raise ValueError("orthocomplement dimension mismatch")
    return result


def transversality_rank(model: F4Model, which: str) -> Tuple[int, int]:
    """Exact rank and target dimension of the transversality map.

    which = "T": domain q x (mplus)perp, target the orthocomplement of
    the abelian ideal; which = "Ttilde": domain qtilde x (mplus)perp,
    target all of the fixed subalgebra.
    """
    zo = model.distinguished["Zo"]
    if which == "T":
        dom = model.subspaces["q"]
        target = model.subspaces["y_perp"]
    elif which == "Ttilde":
        dom = model.subspaces["qtilde"]
        target = model.subspaces["k"]
    else:
        raise ValueError("unknown transversality map %r" % which)
    return _transversality_rank_at(model, dom, zo), len(target)


def _transversality_columns(model: F4Model, dom: Echelon,
                            z: LieElement) -> List[LieElement]:
    """The images [x, z] of the basis of dom, then the basis of (mplus)perp."""
    return ([model.algebra.bracket(x, z) for x in dom.rows()]
            + model.subspaces["mplus_perp"].rows())


def _transversality_rank_at(model: F4Model, dom: Echelon,
                            z: LieElement) -> int:
    return len(Echelon(_transversality_columns(model, dom, z)))


def transversality_rank_zero_map(model: F4Model) -> int:
    """Replacing the anchor by zero degenerates to the inclusion."""
    return _transversality_rank_at(model, model.subspaces["q"], {})


# ---------------------------------------------------------------------------
# model verification battery
# ---------------------------------------------------------------------------


def verify_model(model: F4Model = None, rep: Report = None) -> Report:
    """Check every structural invariant of the model, exactly, into rep."""
    if model is None:
        model = build_f4_model()
    if rep is None:
        rep = Report("model")
    alg = model.algebra
    d = model.distinguished
    sub = model.subspaces

    rep.equal("dim g = 52", alg.dim, 52)
    rep.equal("dim k = 36", len(sub["k"]), 36)
    rep.equal("dim p = 16", len(sub["p"]), 16)
    rep.equal("dim m = 21", len(sub["m"]), 21)
    rep.equal("dim n = 15", len(sub["n"]), 15)
    rep.equal("dim a = 1", len(sub["a"]), 1)
    rep.equal("dim gtilde = 21", len(sub["gtilde"]), 21)

    rep.check("involution squares to identity", _is_involution(model.theta))
    err = _is_automorphism(alg, model.theta)
    rep.check("involution is an automorphism", err is None, err)
    err = _is_automorphism(alg, model.chi)
    rep.check("rotation is an automorphism", err is None, err)
    # the Chevalley table, then the mixed table PBWEngine straightens on
    err = next(("%s table: %s" % (name, w) for name, w in (
        ("Chevalley", _jacobi_witness(alg)),
        ("mixed", _jacobi_witness(model.g_algebra))) if w), None)
    rep.check("Jacobi identity on all basis triples", err is None, err)
    err = _jacobi_witness(model.k_algebra)
    rep.check("Jacobi identity on the 36-dim table", err is None, err)

    br = alg.bracket
    rep.check("[X1, X2] = E", br(d["X1"], d["X2"]) == d["E"])
    rep.check("[X1, E] = X4", br(d["X1"], d["E"]) == d["X4"])
    rep.check("[Xm1, E] = 2 X2",
              br(d["Xm1"], d["E"]) == scale(sca(2), d["X2"]))
    rep.check("[Xm1, X4] = 2 E",
              br(d["Xm1"], d["X4"]) == scale(sca(2), d["E"]))
    rep.check("[H, E] = E/2",
              br(d["H"], d["E"]) == scale(sca(Fraction(1, 2)), d["E"]))
    rep.check("[Xdelta, H] = 0", br(d["Xdelta"], d["H"]) == {})
    rep.check("[E, Ytilde] = E", br(d["E"], d["Ytilde"]) == d["E"])
    rep.check("[Xdelta, Ytilde] = Xdelta",
              br(d["Xdelta"], d["Ytilde"]) == d["Xdelta"])
    rep.check("[E, Y] = (3/2) E",
              br(d["E"], d["Y"]) == scale(sca(Fraction(3, 2)), d["E"]))
    xa1 = {alg.root_index[F4_SIMPLE[0]]: ONE}
    rep.check("alpha1(Y) = 3/2",
              br(d["Y"], xa1) == scale(sca(Fraction(3, 2)), xa1))

    rep.check("rotation fixes the small torus",
              all(model.chi_apply(t) == t
                  for t in sub["t"].rows()))
    rep.check("rotation moves the split coroot onto the compact one",
              model.chi_apply(d["Hmu"])
              == add(d["Xmu"], model.theta_apply(d["Xmu"])))
    half_sqrt2 = Scalar.from_pair(0, Fraction(1, 2))
    xma1 = {alg.root_index[vneg(F4_SIMPLE[0])]: ONE}
    rep.check("rotation scales the lowering vector onto E by sqrt2/2",
              model.chi_apply(model.theta_apply(xma1))
              == scale(half_sqrt2, d["E"]))

    rep.check("E is dominant for the centralizer nilradical",
              all(br(x, d["E"]) == {} for x in sub["mplus"].rows()))

    # difference vectors land in the nilradical of the centralizer
    rep.check("X4 - Xdelta in mplus", sub["mplus"].contains(d["D2"]))
    rep.check("Xphi1 - Xdelta1 in mplus", sub["mplus"].contains(d["D3"]))
    rep.check("Xphi2 - Xdelta2 in mplus", sub["mplus"].contains(d["D4"]))
    rep.check("pairing of X4 - Xdelta with Xm4 + Xmdelta vanishes",
              model.b(d["D2"], add(d["Xm4"], d["Xmdelta"])) == ZERO)
    rep.check("Xm4 + Xmdelta orthogonal to mplus",
              all(model.b(add(d["Xm4"], d["Xmdelta"]), v) == ZERO
                  for v in sub["mplus"].rows()))

    rep.equal("dim mplus_perp = 27", len(sub["mplus_perp"]), 27)
    rep.equal("dim y_perp = 33", len(sub["y_perp"]), 33)
    rep.check("anchor vector lies in mplus_perp",
              sub["mplus_perp"].contains(d["Zo"]))
    for nm in ("Xmdelta", "Xmdelta1", "Xmdelta2", "T32", "T42", "T43"):
        rep.check("y_perp contains %s" % nm, sub["y_perp"].contains(d[nm]))
    rep.check("y_perp contains mplus_perp",
              all(sub["y_perp"].contains(v) for v in sub["mplus_perp"].rows()))

    rep.check("[q, y] inside y",
              all(sub["y"].contains(br(x, y)) or not br(x, y)
                  for x in sub["q"].rows() for y in sub["y"].rows()))
    rep.check("y is abelian",
              all(not br(x, y) for x in sub["y"].rows()
                  for y in sub["y"].rows()))
    rep.check("gtilde stable under the involution",
              all(sub["gtilde"].contains(model.theta_apply(v))
                  for v in sub["gtilde"].rows()))

    # Cartan types
    _, split = f4_satake_data()
    rep.equal("centralizer root type is B3",
              cartan_type(simple_system(split.p_minus)), "B3")
    from .rootdata import compact_split
    rep.equal("fixed-subalgebra root type is B4",
              cartan_type(compact_split().simple_k), "B4")
    rep.equal("gtilde root type is C3", _gtilde_type(model), "C3")

    r1, t1 = transversality_rank(model, "T")
    rep.equal("transversality rank onto y_perp", (r1, t1), (33, 33))
    r2, t2 = transversality_rank(model, "Ttilde")
    rep.equal("extended transversality rank onto k", (r2, t2), (36, 36))
    rep.equal("zero anchor degenerates to the inclusion",
              transversality_rank_zero_map(model), 27)

    # invariance of the form (sampled) and automorphism property of chi
    basis_elts = [{i: ONE} for i in range(0, alg.dim, 7)]
    ok = True
    for x in basis_elts:
        for y in basis_elts:
            for z in basis_elts:
                lhs = model.b(br(x, y), z) + model.b(y, br(x, z))
                if lhs != ZERO:
                    ok = False
    rep.check("invariant form: associativity on sampled triples", ok)
    # a square matrix has nonzero determinant exactly when its rows are
    # independent; the Killing form is 18 bform
    rep.check("F4 Killing determinant nonzero",
              len(Echelon(model.bform)) == alg.dim)
    return rep


def _jacobi_witness(alg: LieAlgebra) -> Optional[str]:
    """None when Jacobi holds on every basis triple, else the first
    failing triple."""
    bad = alg.jacobi_failures(limit=1)
    if bad:
        return "Jacobi fails at basis triple (%s, %s, %s)" % tuple(
            alg.labels[i] for i in bad[0])
    return None


def _gtilde_type(model: F4Model) -> str:
    alg = model.algebra
    gt = model.subspaces["gtilde"]
    rs = alg.rs
    pos = [r for r in rs.positives if gt.contains({alg.root_index[r]: ONE})]
    return cartan_type(simple_system(pos))
