"""Finite-dimensional modules of the fixed subalgebra, centralizer
invariants, and the grading degree of invariant elements.

Irreducible modules are built from the top weight down: the candidate
vectors at each weight are lowerings of the basis one level up, their
contravariant pairings are computed recursively from raising data, and
the radical of the pairing is quotiented away on the spot by pivot
selection.  Everything is exact, and every constructed module is
checked against the Weyl dimension formula.

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
from math import comb, factorial, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (Echelon, Matrix, ONE, PolyScalar, Scalar, ZERO, combine,
                       dual_basis, kernel, rational_roots, sca)
from .liealg import F4Model, LieElement, el_scale
from .rootdata import Coord, compact_split, DEFAULT_REGULAR, dot, gamma_basis, vec
from .uea import Core, ModelEngine, UEA

Weight = Coord


def xi_weight(k: int, l: int) -> Weight:
    """Highest weight of the spherical class labeled (k, l)."""
    half = Fraction(l, 2)
    return (half, k + half, half, half)


def label_of_weight(w: Weight) -> Optional[Tuple[int, int]]:
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


@dataclass(frozen=True)
class TriangularData:
    """Simple-root data driving the weight-by-weight construction."""

    simple: Tuple[Coord, ...]

    def pairing(self, w: Weight, i: int) -> Fraction:
        a = self.simple[i]
        return 2 * dot(w, a) / dot(a, a)

    @property
    def rank(self) -> int:
        return len(self.simple)


def k_triangular_data() -> TriangularData:
    cs = compact_split(DEFAULT_REGULAR)
    return TriangularData(simple=tuple(cs.simple_k))


def sl2_triangular_data() -> TriangularData:
    return TriangularData(simple=((Fraction(2),),))


def positive_roots_k() -> Tuple[Coord, ...]:
    return compact_split(DEFAULT_REGULAR).positives_k


def weyl_dimension(xi: Weight, positives: Optional[Sequence[Coord]] = None
                   ) -> int:
    """Product formula over the positive roots, exactly."""
    if positives is None:
        positives = positive_roots_k()
    rho = tuple(sum(a[i] for a in positives) / 2
                for i in range(len(positives[0])))
    num = Fraction(1)
    den = Fraction(1)
    for a in positives:
        num *= dot(tuple(x + r for x, r in zip(xi, rho)), a)
        den *= dot(rho, a)
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise ValueError("weight %r is not dominant integral" % (xi,))
    return int(val)


# ---------------------------------------------------------------------------
# sparse operators on a weight-graded space
# ---------------------------------------------------------------------------


class SparseOp:
    """Column-sparse square operator on the flattened module."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: Optional[List[Dict[int, Scalar]]] = None):
        self.n = n
        self.cols = cols if cols is not None else [dict() for _ in range(n)]

    def apply(self, vec_: Dict[int, Scalar]) -> Dict[int, Scalar]:
        out: Dict[int, Scalar] = {}
        for j, c in vec_.items():
            for i, e in self.cols[j].items():
                s = out.get(i, ZERO) + e * c
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def mul(self, other: "SparseOp") -> "SparseOp":
        out = SparseOp(self.n)
        for j in range(self.n):
            col = other.cols[j]
            if col:
                out.cols[j] = self.apply(col)
        return out

    def add_scaled(self, other: "SparseOp", c: Scalar) -> "SparseOp":
        out = SparseOp(self.n, [dict(col) for col in self.cols])
        for j in range(self.n):
            for i, e in other.cols[j].items():
                s = out.cols[j].get(i, ZERO) + c * e
                if s:
                    out.cols[j][i] = s
                else:
                    out.cols[j].pop(i, None)
        return out

    def commutator(self, other: "SparseOp") -> "SparseOp":
        return self.mul(other).add_scaled(other.mul(self), -ONE)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)


# ---------------------------------------------------------------------------
# the irreducible module builder
# ---------------------------------------------------------------------------


@dataclass
class Irrep:
    data: TriangularData
    highest: Weight
    dims: Dict[Weight, int]
    offsets: Dict[Weight, int]
    dim: int
    grams: Dict[Weight, Matrix]
    e_ops: List[SparseOp]               # one per simple root
    f_ops: List[SparseOp]
    weights_of_index: List[Weight]

    def weight_diag(self, coords_eval) -> SparseOp:
        """Diagonal operator mu -> coords_eval(mu) on each weight space."""
        op = SparseOp(self.dim)
        for w, off in self.offsets.items():
            v = coords_eval(w)
            if v:
                for t in range(self.dims[w]):
                    op.cols[off + t][off + t] = v
        return op

    def vector(self, weight: Weight, idx: int) -> Dict[int, Scalar]:
        return {self.offsets[weight] + idx: ONE}


def build_irrep(data: TriangularData, xi: Weight, cap: int = 512,
                reverse_candidates: bool = False,
                positives: Optional[Sequence[Coord]] = None) -> Irrep:
    """Construct the irreducible with highest weight xi, exactly.

    Raises when the Weyl-formula prediction exceeds the cap, naming the
    prediction, and when the constructed dimension disagrees with it.
    """
    rank = data.rank
    for i in range(rank):
        p = data.pairing(xi, i)
        if p < 0 or p.denominator != 1:
            raise ValueError("weight %r is not dominant integral" % (xi,))
    if positives is None and len(xi) == 4:
        predicted = weyl_dimension(xi)
    elif positives is not None:
        predicted = weyl_dimension(xi, positives)
    else:
        predicted = None
    if predicted is not None and predicted > cap:
        raise ValueError("predicted dimension %d exceeds the cap %d"
                         % (predicted, cap))

    dims: Dict[Weight, int] = {xi: 1}
    grams: Dict[Weight, Matrix] = {xi: Matrix([[ONE]])}
    # E[i][mu]: list over basis of V_mu of vectors over basis of V_{mu+a_i}
    e_data: List[Dict[Weight, List[Dict[int, Scalar]]]] = [dict() for _ in range(rank)]
    # F[i][nu]: list over basis of V_nu of vectors over basis of V_{nu-a_i}
    f_data: List[Dict[Weight, List[Dict[int, Scalar]]]] = [dict() for _ in range(rank)]
    for i in range(rank):
        e_data[i][xi] = [dict()]

    level = [xi]
    total = 1
    while level:
        nxt = set()
        for w in level:
            for i in range(rank):
                lower = tuple(x - a for x, a in zip(w, data.simple[i]))
                nxt.add(lower)
        new_level = []
        for mu in sorted(nxt):
            cands = []
            for i in range(rank):
                up = tuple(x + a for x, a in zip(mu, data.simple[i]))
                for t in range(dims.get(up, 0)):
                    cands.append((i, t))
            if reverse_candidates:
                cands = cands[::-1]
            if not cands:
                continue
            # pairings <f_i u, f_j w> = <u, f_j e_i w> + d_ij <mu+a_i, a_i~> <u, w>
            def raise_then_lower(i, j, t):
                # e_i applied to basis vector t of V_{mu + a_j}, then f_j down
                up_j = tuple(x + a for x, a in zip(mu, data.simple[j]))
                ei_w = e_data[i][up_j][t]
                out: Dict[int, Scalar] = {}
                up_ij = tuple(x + a for x, a in zip(up_j, data.simple[i]))
                fj = f_data[j].get(up_ij)
                if fj is None:
                    return out
                for s, c in ei_w.items():
                    for r, c2 in fj[s].items():
                        acc = out.get(r, ZERO) + c * c2
                        if acc:
                            out[r] = acc
                        else:
                            out.pop(r, None)
                return out

            nc = len(cands)
            gram_c = Matrix.zero(nc, nc)
            for a_idx, (i, t) in enumerate(cands):
                for b_idx, (j, s) in enumerate(cands):
                    up_i = tuple(x + a for x, a in zip(mu, data.simple[i]))
                    vecv = raise_then_lower(i, j, s)
                    if i == j:
                        hval = data.pairing(up_i, i)
                        base = {s: sca(hval)} if hval else {}
                        merged = dict(vecv)
                        for r, c in base.items():
                            x2 = merged.get(r, ZERO) + c
                            if x2:
                                merged[r] = x2
                            else:
                                merged.pop(r, None)
                        vecv = merged
                    # pair with gram at up_i against basis vector t
                    g = grams[up_i]
                    acc = ZERO
                    for r, c in vecv.items():
                        acc = acc + g.entries[t][r] * c
                    gram_c.entries[a_idx][b_idx] = acc
            _, pivots = gram_c.rref()
            dim_mu = len(pivots)
            if dim_mu == 0:
                continue
            total += dim_mu
            if total > cap:
                raise ValueError(
                    "dimension exceeds cap %d while building (prediction %s)"
                    % (cap, predicted))
            dims[mu] = dim_mu
            gm = Matrix([[gram_c.entries[a][b] for b in pivots] for a in pivots])
            grams[mu] = gm
            # coordinates of every candidate over the pivot basis
            coords: List[Dict[int, Scalar]] = []
            for a_idx in range(nc):
                rhs = [gram_c.entries[a_idx][b] for b in pivots]
                sol = gm.solve(rhs)
                coords.append({r: c for r, c in enumerate(sol) if c})
            # record lowering data f_i: V_{mu+a_i} -> V_mu
            for i in range(rank):
                up = tuple(x + a for x, a in zip(mu, data.simple[i]))
                if up in dims:
                    table = [dict() for _ in range(dims[up])]
                    for a_idx, (ii, t) in enumerate(cands):
                        if ii == i:
                            table[t] = coords[a_idx]
                    f_data[i][up] = table
            # raising data e_i on the new basis: pivot a = (j, s) means f_j w_s
            for i in range(rank):
                up_i = tuple(x + a for x, a in zip(mu, data.simple[i]))
                table = []
                for a_idx in pivots:
                    j, s = cands[a_idx]
                    vecv = raise_then_lower(i, j, s)
                    if i == j:
                        up_j = tuple(x + a for x, a in zip(mu, data.simple[j]))
                        hval = data.pairing(up_j, i)
                        if hval:
                            vecv = dict(vecv)
                            acc = vecv.get(s, ZERO) + sca(hval)
                            if acc:
                                vecv[s] = acc
                            else:
                                vecv.pop(s, None)
                    table.append(vecv if up_i in dims else dict())
                e_data[i][mu] = table
            new_level.append(mu)
        level = new_level

    if predicted is not None and total != predicted:
        raise AssertionError("constructed dimension %d != predicted %d"
                             % (total, predicted))
    # flatten
    order = sorted(dims)
    offsets = {}
    off = 0
    weights_of_index: List[Weight] = []
    for w in order:
        offsets[w] = off
        off += dims[w]
        weights_of_index.extend([w] * dims[w])
    e_ops = [SparseOp(total) for _ in range(rank)]
    f_ops = [SparseOp(total) for _ in range(rank)]
    for w in order:
        for i in range(rank):
            up = tuple(x + a for x, a in zip(w, data.simple[i]))
            if w in e_data[i] and up in offsets:
                for t, v in enumerate(e_data[i][w]):
                    for r, c in v.items():
                        e_ops[i].cols[offsets[w] + t][offsets[up] + r] = c
            if up in offsets and up in f_data[i]:
                for t, v in enumerate(f_data[i][up]):
                    for r, c in v.items():
                        f_ops[i].cols[offsets[up] + t][offsets[w] + r] = c
    return Irrep(data=data, highest=xi, dims=dims, offsets=offsets, dim=total,
                 grams=grams, e_ops=e_ops, f_ops=f_ops,
                 weights_of_index=weights_of_index)


# ---------------------------------------------------------------------------
# actions of arbitrary fixed-subalgebra elements
# ---------------------------------------------------------------------------

# named raising/lowering vectors per simple-root coordinate vector
_SIMPLE_VECTOR_NAMES = {
    vec(1, 0, 0, 1): ("Xphi2", "Xmphi2"),
    vec(0, 0, 1, -1): ("T34", "T43"),
    vec(-1, 0, 0, 1): ("Xdelta2", "Xmdelta2"),
    vec(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)):
        ("X1", "Xm1"),
}


class KActionBasis:
    """A bracket-word basis of k matched between model and modules.

    Words are built from the simple raising/lowering vectors; the same
    construction evaluated on a module's raising/lowering operators
    yields the action of any element via one exact linear solve.
    """

    def __init__(self, model: F4Model):
        self.model = model
        ka = model.k_algebra
        cs = compact_split(DEFAULT_REGULAR)
        self.simple = tuple(cs.simple_k)
        e_vecs = [self._k_named(_SIMPLE_VECTOR_NAMES[s][0]) for s in self.simple]
        f_vecs = []
        for i, s in enumerate(self.simple):
            cand = self._k_named(_SIMPLE_VECTOR_NAMES[s][1])
            h = ka.bracket(e_vecs[i], cand)
            val = self._eval_weight(self.simple[i], h)
            if not val:
                raise ValueError("degenerate simple pair %d" % i)
            f_vecs.append(el_scale(sca(Fraction(2) / val.rational_value()), cand))
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
        while len(self.words) < 36 and frontier:
            new = []
            for gi in range(8):
                kind, idx = ("e", gi) if gi < 4 else ("f", gi - 4)
                gen_vec = e_vecs[idx] if kind == "e" else f_vecs[idx]
                for wt in list(frontier):
                    v = ka.bracket(gen_vec, self.vectors[wt])
                    if v and try_add(("br", (kind, idx), wt), v):
                        new.append(len(self.words) - 1)
            frontier = new
        if len(self.words) != 36:
            raise AssertionError("bracket words span only %d of 36"
                                 % len(self.words))

    def _k_named(self, name: str) -> LieElement:
        model = self.model
        labels = {lab: i for i, lab in enumerate(model.k_algebra.labels)}
        if name in labels:
            return {labels[name]: ONE}
        if name == "Xphi2":
            return {labels["D4"]: ONE, labels["Xdelta2"]: ONE}
        if name == "Xphi1":
            return {labels["D3"]: ONE, labels["Xdelta1"]: ONE}
        if name == "X4":
            return {labels["D2"]: ONE, labels["Xdelta"]: ONE}
        raise KeyError(name)

    def _eval_weight(self, w: Weight, h: LieElement) -> Scalar:
        # h must be toral: supported on the four Cartan labels (21..24)
        acc = ZERO
        for i, c in h.items():
            lab = self.model.k_algebra.labels[i]
            if not lab.startswith("Ht"):
                raise ValueError("bracket is not toral")
            acc = acc + c * sca(w[int(lab[2]) - 1])
        return acc

    def coords(self, x: LieElement) -> Dict[int, Scalar]:
        """Coordinates of x over the words, keyed by word index."""
        rem, coords = self._span.reduce(x)
        if rem:
            raise ValueError("element is not in the fixed subalgebra span")
        return coords

    def word_ops(self, rep: Irrep) -> List[SparseOp]:
        ops: List[Optional[SparseOp]] = []
        for word in self.words:
            if word[0] == "e":
                ops.append(rep.e_ops[word[1]])
            elif word[0] == "f":
                ops.append(rep.f_ops[word[1]])
            else:
                _, (kind, idx), target = word
                gen = rep.e_ops[idx] if kind == "e" else rep.f_ops[idx]
                ops.append(gen.commutator(ops[target]))
        return ops


@dataclass
class ModuleContext:
    """An irreducible module together with model-element actions."""

    rep: Irrep
    basis: KActionBasis
    word_ops: List[SparseOp]

    def action(self, x: LieElement) -> SparseOp:
        out = SparseOp(self.rep.dim)
        for i, c in self.basis.coords(x).items():
            out = out.add_scaled(self.word_ops[i], c)
        return out

    def action_named(self, me: ModelEngine, name: str) -> SparseOp:
        x = me.model.distinguished[name]
        return self.action(me.model.k_algebra.coords_in_parent(x))


def build_module(me: ModelEngine, k: int, l: int, cap: int = 512
                 ) -> ModuleContext:
    data = k_triangular_data()
    rep = build_irrep(data, xi_weight(k, l), cap=cap)
    basis = _action_basis(me)
    return ModuleContext(rep=rep, basis=basis, word_ops=basis.word_ops(rep))


def build_module_for_weight(me: ModelEngine, xi: Weight, cap: int = 512
                            ) -> ModuleContext:
    rep = build_irrep(k_triangular_data(), xi, cap=cap)
    basis = _action_basis(me)
    return ModuleContext(rep=rep, basis=basis, word_ops=basis.word_ops(rep))


def _action_basis(me: ModelEngine) -> KActionBasis:
    if me.action_basis is None:
        me.action_basis = KActionBasis(me.model)
    return me.action_basis


# ---------------------------------------------------------------------------
# invariants of the centralizer inside a module
# ---------------------------------------------------------------------------

M_SIMPLE_POS_LABELS = ("T23", "T34", "D4")
M_SIMPLE_NEG_LABELS = ("T32", "T43",)   # the lowering partner of D4 is solved


def m_generators(me: ModelEngine) -> List[LieElement]:
    """Simple raising/lowering vectors of the centralizer, in k coords."""
    model = me.model
    ka = model.k_algebra
    idx = {lab: i for i, lab in enumerate(ka.labels)}
    gens = [{idx["T23"]: ONE}, {idx["T32"]: ONE},
            {idx["T34"]: ONE}, {idx["T43"]: ONE},
            {idx["D4"]: ONE}]
    # lowering vector for the short torus root: in k coordinates
    alg = model.algebra
    lower = ka.coords_in_parent({alg.root_index[vec(0, 0, 0, -1)]: ONE})
    gens.append(lower)
    return gens


def m_invariants(ctx: ModuleContext, me: ModelEngine) -> List[Dict[int, Scalar]]:
    """Exact joint kernel of the centralizer action."""
    space = [{i: ONE} for i in range(ctx.rep.dim)]
    for gvec in m_generators(me):
        op = ctx.action(gvec)
        space = [combine(c, space)
                 for c in kernel([op.apply(v) for v in space])]
        if not space:
            break
    return space


# ---------------------------------------------------------------------------
# structural verifications on modules
# ---------------------------------------------------------------------------


@dataclass
class Report:
    ok: bool
    details: List[str] = field(default_factory=list)


def verify_hw3iv(ctx: ModuleContext, me: ModelEngine, k: int, l: int) -> Report:
    """Vanishing boundary of the two raisings on an invariant vector.

    Checks that k raisings by the delta vector and l by E send the
    invariant onto a dominant vector, and that p raisings by delta and
    q by E kill it exactly when p > k or p + q > k + l.
    """
    inv = m_invariants(ctx, me)
    if not inv:
        return Report(False, ["no invariant vector"])
    details = []
    ok = True
    xd = ctx.action_named(me, "Xdelta")
    e = ctx.action_named(me, "E")
    for v in inv:
        for q in range(0, k + l + 2):
            w = v
            for _ in range(q):
                w = e.apply(w)
            for p in range(0, k + 2):
                expect_zero = (p > k) or (p + q > k + l)
                got_zero = not w
                if got_zero != expect_zero:
                    ok = False
                    details.append("vanishing mismatch at (p=%d,q=%d)" % (p, q))
                if p <= k:
                    w = xd.apply(w)
        # the extreme vector is dominant
        w = v
        for _ in range(l):
            w = e.apply(w)
        for _ in range(k):
            w = xd.apply(w)
        if not w:
            ok = False
            details.append("extreme vector vanished")
        else:
            for i in range(4):
                if ctx.rep.e_ops[i].apply(w):
                    ok = False
                    details.append("extreme vector is not dominant (i=%d)" % i)
    return Report(ok, details)


def verify_techo(ctx: ModuleContext, me: ModelEngine, k: int, l: int) -> Report:
    """The lowering-chain identities and the basis property.

    From the extreme vector u = Xdelta^k E^l v the chain
    Xdelta^{k-j} E^{l+j} v (0 <= j <= k) is a basis of a (k+1)-dim
    module for the gamma1 triple, with the three displayed identities
    holding with their exact binomial scalars.
    """
    inv = m_invariants(ctx, me)
    if not inv:
        return Report(False, ["no invariant vector"])
    ok = True
    details = []
    xd = ctx.action_named(me, "Xdelta")
    e = ctx.action_named(me, "E")
    x1 = ctx.action_named(me, "X1")
    xm1 = ctx.action_named(me, "Xm1")
    g = gamma_basis()
    xi = xi_weight(k, l)
    for v in inv:
        chain = []
        for j in range(0, k + 1):
            w = v
            for _ in range(l + j):
                w = e.apply(w)
            for _ in range(k - j):
                w = xd.apply(w)
            chain.append(w)
        # linear independence
        idxs = sorted({i for w in chain for i in w})
        mat = Matrix([[w.get(i, ZERO) for w in chain] for i in idxs])
        if mat.rank() != k + 1:
            ok = False
            details.append("chain is not independent")
        # weights: xi - j gamma1
        for j, w in enumerate(chain):
            want = tuple(x - j * c for x, c in zip(xi, g["gamma1"]))
            for i in w:
                if ctx.rep.weights_of_index[i] != want:
                    ok = False
                    details.append("weight mismatch at j=%d" % j)
                    break
        # identity: X1 (chain_j) = (j+l)/2 chain_{j-1}
        for j in range(0, k + 1):
            lhs = x1.apply(chain[j])
            want = _scale_vec(sca(Fraction(j + l, 2)), chain[j - 1]) if j else {}
            if lhs != want:
                ok = False
                details.append("raising identity fails at j=%d" % j)
        # identity: Xm1 (chain_j) = 2(j+1)(k-j)/(l+j+1) chain_{j+1}
        for j in range(0, k + 1):
            lhs = xm1.apply(chain[j])
            if j < k:
                c = Fraction(2 * (j + 1) * (k - j), l + j + 1)
                want = _scale_vec(sca(c), chain[j + 1])
            else:
                want = {}
            if lhs != want:
                ok = False
                details.append("lowering identity fails at j=%d" % j)
        # iterated lowering from the extreme vector with binomial scalars
        u = chain[0]
        acc = u
        for j in range(0, k + 1):
            c = Fraction(2 ** j * factorial(j) * comb(k, j), comb(l + j, l))
            want = _scale_vec(sca(c), chain[j])
            if acc != want:
                ok = False
                details.append("iterated lowering fails at j=%d" % j)
            acc = xm1.apply(acc)
    return Report(ok, details)


def _scale_vec(c: Scalar, v: Dict[int, Scalar]) -> Dict[int, Scalar]:
    if not c:
        return {}
    return {i: c * e for i, e in v.items()}


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
    """

    def __init__(self, me: ModelEngine):
        self.me = me
        model = me.model
        kb = [me.lie_in_mixed(model.k_element_in_g({i: ONE}))
              for i in range(36)]

        def fv(x, y):
            return model.b(model.in_chevalley(x), model.in_chevalley(y))

        self._casimir, self._casimir_den = _casimir_tensor(
            me.g, zip(kb, dual_basis(kb, fv)))
        self._xdelta = me.lie_in_mixed(model.distinguished["Xdelta"])
        self._e = me.lie_in_mixed(model.distinguished["E"])
        self._m_gens = [me.lie_in_mixed(model.k_element_in_g(gvec))
                        for gvec in m_generators(me)]
        pos = positive_roots_k()
        self._rho = tuple(sum(a[i] for a in pos) / 2 for i in range(4))

    def casimir_apply(self, u: UEA) -> UEA:
        """sum_i ad(x_i) ad(x^i) u, converted to and from the core once."""
        engine = self.me.g
        core_p, core_q, den = engine.to_core(u)
        return engine.from_core(self._casimir_core(core_p),
                                self._casimir_core(core_q),
                                den * self._casimir_den)

    def _casimir_core(self, v: Core) -> Core:
        out: Core = {}
        if not v:
            return out
        ad_core = self.me.g.ad_core
        for h, y in self._casimir:
            for m, c in ad_core(y, ad_core({h: 1}, v)).items():
                out[m] = out.get(m, 0) + c
        return out

    def casimir_eigenvalue(self, xi: Weight) -> Fraction:
        return dot(xi, xi) + 2 * dot(xi, self._rho)

    def is_m_invariant(self, u: UEA) -> bool:
        for x in self._m_gens:
            if self.me.g.ad(x, u):
                return False
        return True

    def components(self, u: UEA) -> Dict[Tuple[int, int], UEA]:
        """Isotypic components of an invariant element, exactly."""
        if not u:
            return {}
        if not self.me.k_only(u):
            raise ValueError("element must lie in U(k)")
        if not self.is_m_invariant(u):
            raise ValueError("element is not an invariant of the centralizer")
        # krylov[t] = C^t u until C^d u falls into their span; the
        # dependency add() returns is C^d u = sum_t a_t C^t u, so the
        # minimal polynomial on the cyclic span is x^d - sum_t a_t x^t
        span = Echelon()
        krylov: List[UEA] = []
        cur = u
        while True:
            relation = span.add(cur)
            if relation is not None:
                break
            krylov.append(cur)
            cur = self.casimir_apply(cur)
        poly = PolyScalar([-relation.get(t, ZERO) for t in range(len(krylov))]
                          + [ONE])
        roots, rem = rational_roots(poly)
        if rem.degree() > 0:
            raise AssertionError("Casimir minimal polynomial does not split")
        out: Dict[Tuple[int, int], UEA] = {}
        for root in sorted(set(roots)):
            # projector = minpoly/(x - root) normalized; a combination of
            # the Krylov vectors already at hand
            quot = poly.exact_div(PolyScalar([-sca(root), ONE]))
            scale = quot.evaluate(sca(root)).inverse()
            comp = combine({t: scale * c for t, c in enumerate(quot.coeffs)},
                           krylov)
            if not comp:
                continue
            label = self._type_of_pure(comp)
            expect = self.casimir_eigenvalue(xi_weight(*label))
            if sca(expect) != sca(root):
                raise AssertionError(
                    "component label %r disagrees with eigenvalue %s"
                    % (label, root))
            out[label] = comp
        return out

    def _type_of_pure(self, comp: UEA) -> Tuple[int, int]:
        """Label (k, l) of a pure-type invariant from its raising corner."""
        k = 0
        w = comp
        while True:
            nxt = self.me.g.ad(self._xdelta, w)
            if not nxt:
                break
            w = nxt
            k += 1
            if k > 60:
                raise AssertionError("raising chain did not terminate")
        l = 0
        w = comp
        while True:
            cand = self.me.g.ad(self._e, w)
            # apply Xdelta^k to E^(l+1)-raised vector to test the corner
            t = cand
            for _ in range(k):
                t = self.me.g.ad(self._xdelta, t)
            if not t:
                break
            w = cand
            l += 1
            if l > 60:
                raise AssertionError("raising chain did not terminate")
        return (k, l)

    def degree(self, u: UEA) -> int:
        """max(k + 2l) over the components with nonzero projection."""
        comps = self.components(u)
        if not comps:
            return 0
        return max(k + 2 * l for (k, l) in comps)


def _casimir_tensor(engine, pairs):
    """sum_i x_i (x) x^i on the rescaled basis of the engine, by inner label.

    Returns ([(h, y_h)], den) with integer y_h = {g: int}, so that
    sum_i ad(x_i) ad(x^i) = sum_h ad(y_h) ad(e'_h) / den.  Raises
    ValueError when a coefficient is not rational (on F4 the tensor has 42
    rational terms over 256).
    """
    def rescaled(x):
        core_p, core_q, den = engine.lie_core(x)
        return {g: Scalar(core_p.get(g, 0), core_q.get(g, 0), den)
                for g in set(core_p) | set(core_q)}

    tensor: Dict[Tuple[int, int], Scalar] = {}
    for x, xd in pairs:
        b = rescaled(xd)
        for g, ca in rescaled(x).items():
            for h, cb in b.items():
                tensor[(g, h)] = tensor.get((g, h), ZERO) + ca * cb
    den = 1
    for c in tensor.values():
        if not c.is_rational():
            raise ValueError("Casimir tensor is not rational on the "
                             "rescaled basis")
        den = lcm(den, c.r)
    by_inner: Dict[int, Dict[int, int]] = {}
    for (g, h), c in sorted(tensor.items()):
        if c:
            by_inner.setdefault(h, {})[g] = c.p * (den // c.r)
    return sorted(by_inner.items()), den


def degree_machine(me: ModelEngine) -> DegreeMachine:
    if me.degree_machine is None:
        me.degree_machine = DegreeMachine(me)
    return me.degree_machine


@dataclass
class AdditivityReport:
    d_u: int
    d_v: int
    d_uv: int

    @property
    def ok(self) -> bool:
        return self.d_uv == self.d_u + self.d_v


def degree_additivity(me: ModelEngine, u: UEA, v: UEA) -> AdditivityReport:
    dm = degree_machine(me)
    return AdditivityReport(d_u=dm.degree(u), d_v=dm.degree(v),
                            d_uv=dm.degree(me.g.mul(u, v)))


def spherical_fundamentals() -> List[Tuple[Weight, bool]]:
    """The fundamental weights with their spherical-lattice membership."""
    data = k_triangular_data()
    mat = Matrix([[sca(data.pairing(_unit(j), i)) for j in range(4)]
                  for i in range(4)])
    out = []
    for i in range(4):
        rhs = [ONE if t == i else ZERO for t in range(4)]
        sol = mat.solve(rhs)
        w = tuple(c.rational_value() for c in sol)
        out.append((w, label_of_weight(w) is not None))
    return out


def _unit(j: int) -> Weight:
    return tuple(Fraction(1 if t == j else 0) for t in range(4))
