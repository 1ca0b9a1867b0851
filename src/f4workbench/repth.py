"""Finite-dimensional modules of the fixed subalgebra, centralizer
invariants, and the grading degree of invariant elements.

Irreducible modules are built from the top weight down: the candidate
vectors at each weight are lowerings of the basis one level up, their
contravariant pairings are computed recursively from raising data, and
the radical of the pairing is quotiented away on the spot by pivot
selection.  Everything is exact, and every constructed module is
checked against the Weyl dimension formula.  The raising pass and the
Gram rows run on integers, each vector over one denominator; the module
is converted to Scalars once, when it is returned.  An element of k acts
through the operators of a bracket-word basis, and each word's operator
is built the first time an action reads it.

The degree machinery classifies the isotypic components of invariant
elements of U(k) by their two-parameter labels (k, l): highest weight
k/2 (gamma4 + delta) + l gamma3, degree k + 2l.  Components are
extracted with exact Casimir projectors on a Krylov subspace, and each
component's label is read off the vanishing corner of the raising
operators, so no floating point and no lookup table enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from .exactnum import (Echelon, ONE, PolyScalar, Scalar, ZERO,
                       accumulate, combine, coordinates, kernel,
                       rational_roots, sca, scale, sub)
from .liealg import LieElement
from .reporting import Report
from .rootdata import (Coord, RootSystem, dot, f4_satake_data, gamma_basis,
                       k_root_system, simple_system, vneg)
from .uea import Core, ModelEngine, UEA, _casimir_of, _casimir_step

Weight = Coord


def xi_weight(k: int, l: int) -> Weight:
    """Highest weight of the spherical class labeled (k, l)."""
    half = Fraction(l, 2)
    return (half, k + half, half, half)


def weyl_dimension(xi: Weight, rs: Optional[RootSystem] = None) -> int:
    """Product formula over the positive roots of rs (those of k by
    default), exactly, on integers.

    For a positive root a = sum_i c_i a_i the coroot a~ is proportional to
    sum_i c_i d_i a_i~ with d_i = (a_i, a_i), and <rho, a_i~> = 1, so
    <xi + rho, a~> / <rho, a~> = sum_i c_i d_i (m_i + 1) / sum_i c_i d_i
    with the labels m_i = <xi, a_i~>.  Raises unless every m_i is a
    nonnegative integer.
    """
    if rs is None:
        rs = k_root_system()
    marks = []
    for a in rs.simple:
        m = rs.coroot_pairing(xi, a)
        if m < 0 or m.denominator != 1:
            raise ValueError("weight %r is not dominant integral" % (xi,))
        marks.append(int(m))
    lengths = [dot(a, a) for a in rs.simple]
    scale_d = lcm(*(x.denominator for x in lengths))
    d = [int(x * scale_d) for x in lengths]
    num = den = 1
    for a in rs.positives:
        c = rs.coefficients[a]
        num *= sum(ci * di * (m + 1) for ci, di, m in zip(c, d, marks))
        den *= sum(ci * di for ci, di in zip(c, d))
    return num // den


# ---------------------------------------------------------------------------
# operators on a module: lists of sparse columns
# ---------------------------------------------------------------------------

# column j is the image of the basis vector e_j; apply with combine
Operator = List[Dict[int, Scalar]]


def commutator(a: Operator, b: Operator) -> Operator:
    """The columns of ab - ba."""
    return [sub(combine(bj, a), combine(aj, b)) for aj, bj in zip(a, b)]


# ---------------------------------------------------------------------------
# the irreducible module builder
# ---------------------------------------------------------------------------


@dataclass
class Irrep:
    data: RootSystem
    highest: Weight
    dims: Dict[Weight, int]
    offsets: Dict[Weight, int]
    dim: int
    grams: Dict[Weight, List[Dict[int, Scalar]]]   # symmetric sparse rows
    e_ops: List[Operator]               # one per simple root
    f_ops: List[Operator]
    weights_of_index: List[Weight]


def build_irrep(rs: RootSystem, xi: Weight, cap: int = 512) -> Irrep:
    """Construct the irreducible of the root system rs with highest weight
    xi, exactly.

    Raises when the Weyl-formula prediction exceeds the cap, naming the
    prediction, and when the constructed dimension disagrees with it.

    Inside, a weight mu = xi - sum_j n_j a_j is keyed by its integer depth
    vector n, so <mu, a_i~> = <xi, a_i~> - sum_j n_j A_ji is integer
    arithmetic on the Cartan matrix A of rs.  Levels are sorted in the
    order of the weights, on integers, and the rational weights of the
    returned Irrep are made from the same integer keys.

    One raising pass per weight serves the pairing and the raising tables:
    e_i f_j w_s is computed once for each candidate f_j w_s at mu and each
    i with V_{mu+a_i} built.  Since <f_i w_t, f_j w_s> = <w_t, e_i f_j w_s>,
    those vectors give the Gram rows, and at the pivots the table of e_i.

    The pass runs on integers.  Every basis vector is a monomial in the
    f_j applied to the highest weight vector, so every Gram entry is an
    integer, and each raising or lowering vector is an integer vector over
    one denominator (a _RatVec).  Only the quotient of each Gram matrix
    goes through Echelon on Scalars, and the returned Irrep is converted
    to Scalars once.
    """
    rank = rs.rank
    # weyl_dimension rejects a weight that is not dominant integral
    predicted = weyl_dimension(xi, rs)
    if predicted > cap:
        raise ValueError("predicted dimension %d exceeds the cap %d"
                         % (predicted, cap))
    top = [int(rs.coroot_pairing(xi, a)) for a in rs.simple]
    # L mu = L xi - sum_j n_j (L a_j) with every L a_j integral, so the
    # integer tuples -sum_j n_j (L a_j) order the weights as mu does
    scale_l = lcm(*(x.denominator for a in rs.simple for x in a))
    scaled = [[int(x * scale_l) for x in a] for a in rs.simple]

    def pairing(n, i) -> int:
        return top[i] - sum(nj * row[i] for nj, row in zip(n, rs.cartan))

    def up(n, i):
        return n[:i] + (n[i] - 1,) + n[i + 1:]

    n0 = (0,) * rank
    # weight_order[n] = -sum_j n_j (L a_j), kept for every depth vector met
    weight_order: Dict[tuple, tuple] = {n0: (0,) * len(xi)}
    dims: Dict[tuple, int] = {n0: 1}
    grams: Dict[tuple, List[Dict[int, int]]] = {n0: [{0: 1}]}
    # E[i][n]: list over basis of V_n of vectors over basis of V_{up(n, i)}
    e_data: List[Dict[tuple, List[_RatVec]]] = [dict() for _ in range(rank)]
    # F[i][n]: list over basis of V_n of vectors over basis of the weight
    # a_i below it
    f_data: List[Dict[tuple, List[_RatVec]]] = [dict() for _ in range(rank)]
    for i in range(rank):
        e_data[i][n0] = [_EMPTY]

    level = [n0]
    total = 1
    while level:
        nxt = set()
        for n in level:
            for i in range(rank):
                below = n[:i] + (n[i] + 1,) + n[i + 1:]
                nxt.add(below)
                weight_order[below] = tuple(
                    x - y for x, y in zip(weight_order[n], scaled[i]))
        new_level = []
        for mu in sorted(nxt, key=weight_order.__getitem__):
            ups = [up(mu, i) for i in range(rank)]
            cands = [(i, t) for i in range(rank)
                     for t in range(dims.get(ups[i], 0))]
            if not cands:
                continue
            # raised[i][b] = e_i f_j w_s = f_j e_i w_s + d_ij <mu+a_i, a_i~> w_s
            # for candidate b = (j, s), over the basis of V_{mu+a_i}
            raised: Dict[int, List[_RatVec]] = {}
            for i in range(rank):
                if ups[i] not in dims:
                    continue
                hval = pairing(ups[i], i)
                e_i = e_data[i]
                # f_j from V_{mu+a_i+a_j}, None when that space is zero
                f_up = [f_data[j].get(up(ups[j], i)) for j in range(rank)]
                raised[i] = [_raise_lower(e_i[ups[j]][s], f_up[j],
                                          s if i == j else None, hval)
                             for j, s in cands]
            gram_rows: List[Dict[int, int]] = []
            for i, t in cands:
                g = grams[ups[i]][t]
                row = {}
                for b_idx, (v, den) in enumerate(raised[i]):
                    acc = sum(g[r] * c for r, c in v.items() if r in g)
                    if acc:
                        entry, rem = divmod(acc, den)
                        if rem:
                            raise AssertionError("Gram entry is not an integer")
                        row[b_idx] = entry
                gram_rows.append(row)
            pivots, coords = _quotient_basis(
                [{b: Scalar(x) for b, x in row.items()} for row in gram_rows])
            dim_mu = len(pivots)
            if dim_mu == 0:
                continue
            total += dim_mu
            if total > cap:
                raise ValueError(
                    "dimension exceeds cap %d while building (prediction %s)"
                    % (cap, predicted))
            dims[mu] = dim_mu
            grams[mu] = [{k: gram_rows[a][b] for k, b in enumerate(pivots)
                          if b in gram_rows[a]} for a in pivots]
            for i in range(rank):
                # raising data e_i on the new basis: pivot a = (j, s) means
                # f_j w_s
                vectors = raised.get(i)
                e_data[i][mu] = [vectors[a] if vectors else _EMPTY
                                 for a in pivots]
                # lowering data f_i: V_{mu+a_i} -> V_mu
                if vectors:
                    table = [_EMPTY] * dims[ups[i]]
                    for a_idx, (ii, t) in enumerate(cands):
                        if ii == i:
                            table[t] = _over_one_denominator(coords[a_idx])
                    f_data[i][ups[i]] = table
            new_level.append(mu)
        level = new_level

    if total != predicted:
        raise AssertionError("constructed dimension %d != predicted %d"
                             % (total, predicted))
    # flatten, and make the rational weights: mu = xi + weight_order(n) / L
    order = sorted(dims, key=weight_order.__getitem__)
    real = {n: tuple(Fraction(x.numerator * scale_l + c * x.denominator,
                              x.denominator * scale_l)
                     for x, c in zip(xi, weight_order[n])) for n in order}
    real[n0] = xi
    offsets: Dict[tuple, int] = {}
    off = 0
    weights_of_index: List[Weight] = []
    for n in order:
        offsets[n] = off
        off += dims[n]
        weights_of_index.extend([real[n]] * dims[n])
    e_ops: List[Operator] = [[{} for _ in range(total)] for _ in range(rank)]
    f_ops: List[Operator] = [[{} for _ in range(total)] for _ in range(rank)]
    for n in order:
        for i in range(rank):
            up_i = up(n, i)
            if up_i not in offsets:
                continue
            if n in e_data[i]:
                for t, (v, den) in enumerate(e_data[i][n]):
                    col = e_ops[i][offsets[n] + t]
                    for r, c in v.items():
                        col[offsets[up_i] + r] = Scalar(c, 0, den)
            if up_i in f_data[i]:
                for t, (v, den) in enumerate(f_data[i][up_i]):
                    col = f_ops[i][offsets[up_i] + t]
                    for r, c in v.items():
                        col[offsets[n] + r] = Scalar(c, 0, den)
    return Irrep(data=rs, highest=xi,
                 dims={real[n]: d for n, d in dims.items()},
                 offsets={real[n]: o for n, o in offsets.items()}, dim=total,
                 grams={real[n]: [{k: Scalar(x) for k, x in row.items()}
                                  for row in g] for n, g in grams.items()},
                 e_ops=e_ops, f_ops=f_ops, weights_of_index=weights_of_index)


# a rational vector as integer numerators over one positive denominator
_RatVec = Tuple[Dict[int, int], int]
_EMPTY: _RatVec = ({}, 1)


def _raise_lower(e_vec: _RatVec, f_table: Optional[List[_RatVec]],
                 s: Optional[int], hval: int) -> _RatVec:
    """f_j e_i w_s + hval w_s (the second term only when s is given) from
    the raising vector e_vec of w_s and the table f_table of f_j, reduced.

    Terms are summed over the common denominator one by one, as
    exactnum.accumulate sums them, so the keys come out in the order, and
    the same entries cancel, as in combine(e_vec, f_table) + {s: hval} on
    Scalars.
    """
    num, den = e_vec
    out: Dict[int, int] = {}
    if num:
        d = lcm(*(f_table[r][1] for r in num))
        for r, c in num.items():
            f_num, f_den = f_table[r]
            c *= d // f_den
            for k, x in f_num.items():
                x *= c
                prev = out.get(k)
                if prev is not None:
                    x += prev
                if x:
                    out[k] = x
                else:
                    del out[k]
        den *= d
    if s is not None and hval:
        x = out.get(s, 0) + hval * den
        if x:
            out[s] = x
        else:
            del out[s]
    g = gcd(den, *out.values())
    if g > 1:
        out = {k: x // g for k, x in out.items()}
        den //= g
    return out, den


def _over_one_denominator(v: Dict[int, Scalar]) -> _RatVec:
    """A rational Scalar vector as integer numerators over their lcm."""
    den = lcm(*(c.r for c in v.values()))
    return {k: c.p * (den // c.r) for k, c in v.items()}, den


def _quotient_basis(gram_rows: List[Dict[int, Scalar]]):
    """(pivots, coords) for the Gram matrix of the candidates at a weight.

    The Gram matrix is symmetric, so the rows the echelon accepts are the
    pivot columns of its rref: the candidates that form a basis of the
    quotient by the radical.  coords[a] gives candidate a over that
    basis; for a rejected row it is the dependency add() returns.
    """
    echelon = Echelon()
    pivots: List[int] = []
    coords: List[Dict[int, Scalar]] = []
    for a_idx, row in enumerate(gram_rows):
        dependency = echelon.add(row)
        if dependency is None:
            coords.append({len(pivots): ONE})
            pivots.append(a_idx)
        else:
            coords.append(dependency)
    return pivots, coords


# ---------------------------------------------------------------------------
# actions of arbitrary fixed-subalgebra elements
# ---------------------------------------------------------------------------

class KActionBasis:
    """A bracket-word basis of k matched between model and modules.

    Words are built from the simple raising/lowering vectors: e_i is the
    root vector chi(x_beta) of the simple root beta of k_root_system(),
    rotated into k, and f_i that of -beta, in mixed coordinates.  The same
    construction evaluated on a module's raising/lowering operators
    yields the action of any element via one exact linear solve.

    The Chevalley basis already pairs them as a module does: h_i =
    [e_i, f_i] acts on e_i by 2, as the simple coroot does, and the
    constructor raises if it does not.
    """

    def __init__(self, me: ModelEngine):
        model = me.model
        ka = model.k_algebra
        root_index = model.algebra.root_index
        simple = k_root_system().simple

        def root_vector(root):
            return me.lie_in_mixed(model.chi_apply({root_index[root]: ONE}))

        e_vecs = [root_vector(s) for s in simple]
        f_vecs = [root_vector(vneg(s)) for s in simple]
        for i, (e, f) in enumerate(zip(e_vecs, f_vecs)):
            if ka.bracket(ka.bracket(e, f), e) != scale(sca(2), e):
                raise ValueError("[[e_%d, f_%d], e_%d] is not 2 e_%d"
                                 % (i, i, i, i))
        self.e_vecs, self.f_vecs = e_vecs, f_vecs
        # closure: words as ('gen', kind, i) or ('br', a, b)
        self.words: List[tuple] = []
        self.vectors: List[LieElement] = []
        self._span = Echelon()

        def try_add(word, v):
            if self._span.add(v) is not None:
                return False
            self.words.append(word)
            self.vectors.append(v)
            return True

        for i in range(4):
            try_add(("e", i), e_vecs[i])
            try_add(("f", i), f_vecs[i])
        frontier = list(range(len(self.words)))
        while len(self.words) < ka.dim and frontier:
            new = []
            for gi in range(8):
                kind, idx = ("e", gi) if gi < 4 else ("f", gi - 4)
                gen_vec = e_vecs[idx] if kind == "e" else f_vecs[idx]
                for wt in list(frontier):
                    v = ka.bracket(gen_vec, self.vectors[wt])
                    if v and try_add(("br", (kind, idx), wt), v):
                        new.append(len(self.words) - 1)
            frontier = new
        if len(self.words) != ka.dim:
            raise AssertionError("bracket words span only %d of %d"
                                 % (len(self.words), ka.dim))

    def coords(self, x: LieElement) -> Dict[int, Scalar]:
        """Coordinates of x over the words, keyed by word index."""
        rem, coords = self._span.reduce(x)
        if rem:
            raise ValueError("element is not in the fixed subalgebra span")
        return coords


@dataclass
class ModuleContext:
    """An irreducible module and the operators of k on it.

    The operator of each bracket word is built the first time an action
    reads it, from those of its generator and its target word, and kept,
    so a check that reads a few elements of k forms only the commutators
    their coordinates reach.  Each named action is kept too, and shared by
    every check on the module; callers must not mutate an operator they
    are given.
    """

    rep: Irrep
    basis: KActionBasis
    # the centralizer invariants, solved on first use by m_invariants
    invariants: Optional[List[Dict[int, Scalar]]] = None
    _word_ops: Dict[int, Operator] = field(default_factory=dict, repr=False)
    _named: Dict[str, Operator] = field(default_factory=dict, repr=False)

    def word_op(self, i: int) -> Operator:
        """The operator of bracket word i."""
        op = self._word_ops.get(i)
        if op is None:
            word = self.basis.words[i]
            if word[0] == "br":
                op = commutator(self._generator(*word[1]),
                                self.word_op(word[2]))
            else:
                op = self._generator(*word)
            self._word_ops[i] = op
        return op

    def _generator(self, kind: str, idx: int) -> Operator:
        return (self.rep.e_ops if kind == "e" else self.rep.f_ops)[idx]

    def action(self, x: LieElement) -> Operator:
        out: Operator = [{} for _ in range(self.rep.dim)]
        for i, c in self.basis.coords(x).items():
            for col, word_col in zip(out, self.word_op(i)):
                accumulate(col, word_col, c)
        return out

    def action_named(self, me: ModelEngine, name: str) -> Operator:
        """The action of me.named[name], formed once."""
        op = self._named.get(name)
        if op is None:
            op = self.action(me.named[name])
            self._named[name] = op
        return op


def build_module(me: ModelEngine, k: int, l: int, cap: int = 512
                 ) -> ModuleContext:
    rep = build_irrep(k_root_system(), xi_weight(k, l), cap=cap)
    return ModuleContext(rep, action_basis(me))


def action_basis(me: ModelEngine) -> KActionBasis:
    if me.action_basis is None:
        me.action_basis = KActionBasis(me)
    return me.action_basis


# ---------------------------------------------------------------------------
# invariants of the centralizer inside a module
# ---------------------------------------------------------------------------

def m_generators(me: ModelEngine) -> List[LieElement]:
    """The root vectors x_a, x_-a of the simple roots a of the centralizer
    m, which generate m, in mixed (so also k) coordinates; a runs along
    the B3 chain from its long end: e2 - e3, e3 - e4, e4."""
    root_index = me.model.algebra.root_index
    _, split = f4_satake_data()
    return [me.lie_in_mixed({root_index[r]: ONE})
            for a in sorted(simple_system(split.p_minus), reverse=True)
            for r in (a, vneg(a))]


def is_m_invariant(me: ModelEngine, v: Tuple[Core, Core]) -> bool:
    """Whether the centralizer kills the core pair v of an element of U(g).

    ad is a Lie algebra action, so m kills v exactly when the
    m_generators do: the simple root vectors generate m.  Their core
    forms are built once per engine.
    """
    if me.m_generator_cores is None:
        me.m_generator_cores = [
            me.g.lie_core(gvec)[:2] for gvec in m_generators(me)]
    ad_pair = me.g.ad_pair
    return not any(any(ad_pair(x, v)) for x in me.m_generator_cores)


def m_invariants(ctx: ModuleContext, me: ModelEngine) -> List[Dict[int, Scalar]]:
    """Exact joint kernel of the centralizer action.

    Solved once per module and kept on ctx, so every caller shares the
    same list.
    """
    if ctx.invariants is None:
        space = [{i: ONE} for i in range(ctx.rep.dim)]
        for gvec in m_generators(me):
            op = ctx.action(gvec)
            space = [combine(c, space)
                     for c in kernel([combine(v, op) for v in space])]
            if not space:
                break
        ctx.invariants = space
    return ctx.invariants


# ---------------------------------------------------------------------------
# structural verifications on modules
# ---------------------------------------------------------------------------


def raising_grid(ctx: ModuleContext, me: ModelEngine, v: Dict[int, Scalar],
                 pmax: int, qmax: int) -> List[List[Dict[int, Scalar]]]:
    """grid[q][p] = Xdelta^p E^q v for 0 <= p <= pmax and 0 <= q <= qmax.

    Each row starts from the one above by one E and runs along by
    Xdelta, so every vector costs one application.
    """
    xd = ctx.action_named(me, "Xdelta")
    e = ctx.action_named(me, "E")
    grid = []
    w = v
    for q in range(qmax + 1):
        if q:
            w = combine(w, e)
        row = [w]
        for _ in range(pmax):
            row.append(combine(row[-1], xd))
        grid.append(row)
    return grid


def verify_hw3iv(ctx: ModuleContext, me: ModelEngine, k: int, l: int) -> Report:
    """Vanishing boundary of the two raisings on an invariant vector.

    Checks that k raisings by the delta vector and l by E send the
    invariant onto a dominant vector, and that p raisings by delta and
    q by E kill it exactly when p > k or p + q > k + l.
    """
    rep = Report("raising vanishing boundary")
    inv = m_invariants(ctx, me)
    if not rep.check("invariant vector exists", inv, "none"):
        return rep
    for v in inv:
        grid = raising_grid(ctx, me, v, k + 1, k + l + 1)
        for q, row in enumerate(grid):
            for p, w in enumerate(row):
                expect_zero = (p > k) or (p + q > k + l)
                rep.check("vanishing at (p=%d,q=%d)" % (p, q),
                          (not w) == expect_zero,
                          "expected %s" % ("zero" if expect_zero else
                                           "nonzero"))
        # the extreme vector is dominant
        w = grid[l][k]
        if rep.check("extreme vector is nonzero", w, "it vanished"):
            for i in range(4):
                rep.check("extreme vector is dominant (i=%d)" % i,
                          not combine(w, ctx.rep.e_ops[i]), "raised nonzero")
    return rep


def verify_techo(ctx: ModuleContext, me: ModelEngine, k: int, l: int) -> Report:
    """The lowering-chain identities and the basis property.

    From the extreme vector u = Xdelta^k E^l v the chain
    Xdelta^{k-j} E^{l+j} v (0 <= j <= k), read off raising_grid, is a
    basis of a (k+1)-dim module for the gamma1 triple, with the three
    displayed identities holding with their exact binomial scalars.
    """
    rep = Report("lowering-chain identities")
    inv = m_invariants(ctx, me)
    if not rep.check("invariant vector exists", inv, "none"):
        return rep
    x1 = ctx.action_named(me, "X1")
    xm1 = ctx.action_named(me, "Xm1")
    g = gamma_basis()
    xi = xi_weight(k, l)
    for v in inv:
        grid = raising_grid(ctx, me, v, k, k + l)
        chain = [grid[l + j][k - j] for j in range(k + 1)]
        rank = len(Echelon(chain))
        rep.check("chain is independent", rank == k + 1,
                  "rank %d of %d" % (rank, k + 1))
        # weights: xi - j gamma1
        for j, w in enumerate(chain):
            want = tuple(x - j * c for x, c in zip(xi, g["gamma1"]))
            rep.check("weight at j=%d" % j,
                      all(ctx.rep.weights_of_index[i] == want for i in w))
        # identity: X1 (chain_j) = (j+l)/2 chain_{j-1}
        for j in range(0, k + 1):
            lhs = combine(chain[j], x1)
            want = scale(sca(Fraction(j + l, 2)), chain[j - 1]) if j else {}
            rep.check("raising identity at j=%d" % j, lhs == want)
        # identity: Xm1 (chain_j) = 2(j+1)(k-j)/(l+j+1) chain_{j+1}
        for j in range(0, k + 1):
            lhs = combine(chain[j], xm1)
            if j < k:
                c = Fraction(2 * (j + 1) * (k - j), l + j + 1)
                want = scale(sca(c), chain[j + 1])
            else:
                want = {}
            rep.check("lowering identity at j=%d" % j, lhs == want)
        # iterated lowering from the extreme vector with binomial scalars
        u = chain[0]
        acc = u
        for j in range(0, k + 1):
            c = Fraction(2 ** j * factorial(j) * comb(k, j), comb(l + j, l))
            want = scale(sca(c), chain[j])
            rep.check("iterated lowering at j=%d" % j, acc == want)
            acc = combine(acc, xm1)
    return rep


# ---------------------------------------------------------------------------
# Kostant degree of invariants in U(k)
# ---------------------------------------------------------------------------


class DegreeMachine:
    """Casimir-projector decomposition of centralizer invariants.

    The quadratic Casimir of k acts semisimply on any finite-dimensional
    submodule of U(k); its minimal polynomial on the cyclic span of u is
    computed by an exact Krylov iteration, the isotypic components of u
    are cut out by Lagrange projectors, and each component's label is
    read from the vanishing corner of the two raisings.

    The Casimir acts through its symmetric tensor in triangular form
    (uea._casimir_tensor): since [ad x, ad y] = ad [x, y], the two orders
    of each pair fold into one, sum_h ad(Y_h) ad(e'_h) - ad(r).  One
    tensor, that of C_k over dual bases of k, serves both casimir_apply
    and components().

    components() drops every pass of C_k that begins with ad(e'_h), h a
    label in m: the inner terms ad(Y_h) ad(e'_h) and the entries of r on
    those labels.  ad(e'_h) kills every M-invariant when e'_h lies in m,
    input that is not M-invariant is rejected, and C_k commutes with
    ad(m), so every Krylov vector is M-invariant and the dropped passes
    read zero on it.  On F4 the first application then makes 19 label
    passes of ad per core vector (8 inner labels, 11 terms of the Y_h,
    no label of r) where C_k makes 46 (20, 23, 3) and the plain pair sum
    78.

    The same argument holds for every label of k, input by input: C_k is
    the action of a central element of U(k), so it commutes with ad(k),
    and ad(e'_h) u = 0 gives ad(e'_h) C^t u = C^t ad(e'_h) u = 0.  The
    first application forms ad(e'_h) u for each remaining label anyway;
    the labels where it reads zero (on both parts of the core) are
    dropped from every later application, and their zero raisings give
    k = 0 or l = 0 for every component with no chain.  r needs no such
    rule: all of it lies on Cartan labels of m, so the chain's tensor has
    none left.  A generic input of U(k)^M_{<=2} keeps all 8 inner
    labels; the degree-8 product uv of the degree_products benchmark is
    killed by Xdelta1, Xdelta2, Ht1 and Xdelta, so its later applications
    make 8 label passes per core vector where the static tensor makes 12
    on a nonzero vector (4 of them reading zero) and 7 on an empty one.  The Krylov chain, its
    minimal polynomial and the projectors stay in core form; only the
    components are converted to Scalars.

    casimir_apply is the whole C_k, exact on every element of U(k),
    invariant or not.

    The projectors split eigenvalues of C_k, not labels: labels with the
    same (xi, xi + 2 rho) share one component, and _type_of_pure reads
    it as the one with the larger k.  Every root of k has coordinate sum
    -2, 0 or 2, so a label (k, l) of an element of U(k) has k even, and
    k + 2l <= 2d at PBW degree d.  Among such labels the shared
    eigenvalues with k + 2l <= 14 are 30 for (2,1) and (0,3), 60 for (4,1) and (0,5), 90 for (4,3) and
    (2,5), 98 for (6,1) and (0,7), and 128 for (8,0) and (4,5).  So from
    degree 3 on, a component read as (2,1) may hold a (0,3) part, and
    degree() then misses its 6.  The tests certify the (2,1) component
    of the constant coefficient of omega^2 as pure; no check does so at
    run time.
    """

    def __init__(self, me: ModelEngine):
        self.me = me
        model = me.model
        m = model.subspaces["m"]
        self._casimir = _casimir_of(me, [{i: ONE} for i in range(me.n_k)])
        inner, shift, den = self._casimir

        def in_m(h):
            return m.contains(model.in_chevalley({h: ONE}))

        # ad(e'_h) kills every M-invariant for h in m
        self._casimir_on_invariants = (
            [(h, y) for h, y in inner if not in_m(h)],
            {h: c for h, c in shift.items() if not in_m(h)}, den)
        # the raisings in core form, for ad_pair
        self._xdelta = me.g.lie_core(me.named["Xdelta"])[:2]
        self._e = me.g.lie_core(me.named["E"])[:2]

    def casimir_apply(self, u: UEA) -> UEA:
        """sum_i ad(x_i) ad(x^i) u over dual bases of k, converted to and
        from the core once."""
        engine = self.me.g
        return engine.from_core(*_casimir_step(engine, self._casimir,
                                               engine.to_core(u)))

    def casimir_eigenvalue(self, xi: Weight) -> Fraction:
        """(xi, xi + 2 rho), the eigenvalue of C_k on the irreducible
        module of highest weight xi."""
        return dot(xi, xi) + 2 * dot(xi, k_root_system().rho)

    def components(self, u: UEA) -> Dict[Tuple[int, int], UEA]:
        """Isotypic components of an invariant element, exactly."""
        if not u:
            return {}
        if not self.me.k_only(u):
            raise ValueError("element must lie in U(k)")
        engine = self.me.g
        cur = engine.to_core(u)
        if not is_m_invariant(self.me, cur[:2]):
            raise ValueError("element is not an invariant of the centralizer")
        # krylov[t] is the core (P_t, Q_t, D_t) of C^t u, until C^d u
        # falls into the span of the earlier ones.  C is rational on the
        # rescaled basis with rational eigenvalues, so over Q the integer
        # vectors w_t = P_t (+) Q_t have the same minimal polynomial, and
        # w_d depends on the earlier w_j exactly when its column of inner
        # products <w_i, w_d> depends on theirs, with the same
        # coefficients (the form is positive definite): a t x t solve.
        krylov: List[Tuple[Core, Core, int]] = []
        gram: List[List[int]] = []
        tensor = self._casimir_on_invariants
        killed: AbstractSet[int] = frozenset()
        while True:
            inner = [_dot(w, cur) for w in krylov] + [_dot(cur, cur)]
            relation = coordinates(
                [_int_vector(gram[j] + [inner[j]]) for j in range(len(gram))],
                _int_vector(inner))
            if relation is not None:
                break
            for row, x in zip(gram, inner):
                row.append(x)
            gram.append(inner)
            krylov.append(cur)
            # the first application forms ad(e'_h) u for every label h of
            # the tensor; those that read zero kill every C^t u, since C_k
            # commutes with ad(k), so their passes are dropped from here on
            live = set() if len(krylov) == 1 else None
            cur = _casimir_step(engine, tensor, cur, live)
            if live is not None:
                inner_labels, shift, den = tensor
                killed = {h for h, _ in inner_labels} - live
                tensor = ([(h, y) for h, y in inner_labels if h in live],
                          shift, den)
        # w_d = sum_j b_j w_j and C^t u = w_t / D_t give the minimal
        # polynomial x^d - sum_j b_j D_j / D_d x^j
        poly = PolyScalar([-relation.get(j, ZERO) * sca(Fraction(w[2], cur[2]))
                           for j, w in enumerate(krylov)] + [ONE])
        roots, rem = rational_roots(poly)
        if rem.degree() > 0:
            raise AssertionError("Casimir minimal polynomial does not split")
        out: Dict[Tuple[int, int], UEA] = {}
        for root in sorted(set(roots)):
            # projector = minpoly/(x - root) normalized; a combination of
            # the Krylov vectors already at hand
            quot = poly.exact_div(PolyScalar([-sca(root), ONE]))
            norm = quot.evaluate(sca(root)).inverse()
            comp = _core_combination(
                [(norm * c).rational_value() for c in quot.coeffs], krylov)
            if not (comp[0] or comp[1]):
                continue
            label = self._type_of_pure(comp[:2], killed)
            expect = self.casimir_eigenvalue(xi_weight(*label))
            if sca(expect) != sca(root):
                raise AssertionError(
                    "component label %r disagrees with eigenvalue %s"
                    % (label, root))
            out[label] = engine.from_core(*comp)
        return out

    def _type_of_pure(self, start: Tuple[Core, Core],
                      killed: AbstractSet[int] = frozenset()
                      ) -> Tuple[int, int]:
        """Label (k, l) of a pure-type invariant, given by the core pair of
        its numerators, from its raising corner.

        killed holds labels h with ad(e'_h) = 0 on the input the component
        was cut from, and so on the component (see components): a raising
        on those labels alone gives k = 0 or l = 0 with no chain.  Only
        vanishing is asked, so the chains never track a denominator.
        """
        ad = self.me.g.ad_pair

        def kills(x):
            return set(x[0]) | set(x[1]) <= killed

        k = 0
        w = start
        while not kills(self._xdelta):
            nxt = ad(self._xdelta, w)
            if not any(nxt):
                break
            w = nxt
            k += 1
            if k > 60:
                raise AssertionError("raising chain did not terminate")
        l = 0
        w = start
        while not kills(self._e):
            cand = ad(self._e, w)
            # apply Xdelta^k to E^(l+1)-raised vector to test the corner
            t = cand
            for _ in range(k):
                t = ad(self._xdelta, t)
            if not any(t):
                break
            w = cand
            l += 1
            if l > 60:
                raise AssertionError("raising chain did not terminate")
        return (k, l)

    def degree(self, u: UEA) -> int:
        """max(k + 2l) over the components with nonzero projection."""
        return label_degree(self.components(u))


def label_degree(labels: Iterable[Tuple[int, int]]) -> int:
    """max(k + 2l) over the labels (k, l), 0 when there are none."""
    return max((k + 2 * l for k, l in labels), default=0)


def _dot(v: Tuple[Core, Core, int], w: Tuple[Core, Core, int]) -> int:
    """<P_v (+) Q_v, P_w (+) Q_w> of two core triples."""
    return (sum(c * w[0].get(m, 0) for m, c in v[0].items())
            + sum(c * w[1].get(m, 0) for m, c in v[1].items()))


def _int_vector(xs: List[int]) -> Dict[int, Scalar]:
    return {i: sca(x) for i, x in enumerate(xs) if x}


def _core_combination(coeffs: List[Fraction],
                      vectors: List[Tuple[Core, Core, int]]
                      ) -> Tuple[Core, Core, int]:
    """sum_t coeffs[t] vectors[t] of core triples, over one denominator."""
    scaled = [c / v[2] for c, v in zip(coeffs, vectors)]
    den = lcm(*(f.denominator for f in scaled))
    out_p: Core = {}
    out_q: Core = {}
    for f, (core_p, core_q, _) in zip(scaled, vectors):
        n = f.numerator * (den // f.denominator)
        if not n:
            continue
        for out, core in ((out_p, core_p), (out_q, core_q)):
            for m, c in core.items():
                out[m] = out.get(m, 0) + n * c
    return ({m: c for m, c in out_p.items() if c},
            {m: c for m, c in out_q.items() if c}, den)


def degree_machine(me: ModelEngine) -> DegreeMachine:
    if me.degree_machine is None:
        me.degree_machine = DegreeMachine(me)
    return me.degree_machine
