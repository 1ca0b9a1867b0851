"""Root systems from their simple roots and the F4 restricted-root
bookkeeping.

Roots and weights are plain tuples of Fractions, and
RootSystem.coefficients holds each root's integer coefficients over the
simple roots (liealg.ChevalleyData keys its work by them).  Every system
is given by its simple roots in coordinates and measured with the
standard dot product, and cartan_type names a Dynkin type by counting
its roots.  The F4 system lives in the orthonormal epsilon basis with
simple roots

    a1 = (e1 - e2 - e3 - e4)/2,  a2 = e4,  a3 = e3 - e4,  a4 = e2 - e3.

The involution acts on coordinates by e1 -> -e1; the restricted-root
split P+ / P- is read off the first coordinate.  The compact roots are
split into positives and negatives by one fixed regular vector,
DEFAULT_REGULAR, so compact_split takes no argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

Coord = Tuple[Fraction, ...]


def vec(*xs) -> Coord:
    return tuple(Fraction(x) for x in xs)


def vadd(a: Coord, b: Coord) -> Coord:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Coord, b: Coord) -> Coord:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Coord) -> Coord:
    return tuple(-x for x in a)


def vscale(c, a: Coord) -> Coord:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Coord, b: Coord) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class RootSystem:
    """A finite root system realized in a rational coordinate space."""

    simple: Tuple[Coord, ...]
    roots: frozenset
    positives: Tuple[Coord, ...]
    cartan: Tuple[Tuple[int, ...], ...]
    # every root's coefficients over the simple roots, as build_root_system
    # finds them; derived from the fields above, so left out of == and hash
    coefficients: Dict[Coord, Tuple[int, ...]] = field(
        compare=False, hash=False)

    @property
    def rank(self) -> int:
        return len(self.simple)

    def coroot_pairing(self, phi: Coord, alpha: Coord) -> Fraction:
        """2<phi, alpha>/<alpha, alpha>."""
        return 2 * dot(phi, alpha) / dot(alpha, alpha)

    @cached_property
    def rho(self) -> Coord:
        """Half the sum of the positive roots."""
        return tuple(sum(a[i] for a in self.positives) / 2
                     for i in range(len(self.simple[0])))


def build_root_system(simple: Sequence[Coord]) -> RootSystem:
    """Generate the full root system on the given simple roots.

    Positive roots are built by height induction on root strings; only
    the Cartan integers are used.  Input that is not a simple system
    raises ValueError: no vectors, vectors with different numbers of
    coordinates, dependent vectors, a positive off-diagonal Cartan
    integer or a non-integral one.  Independent vectors have a positive
    definite Gram matrix, which symmetrizes their Cartan matrix, so the
    type is finite and the induction ends.
    """
    simple = [tuple(Fraction(x) for x in a) for a in simple]
    n = len(simple)
    if not n:
        raise ValueError("no simple roots")
    if len({len(a) for a in simple}) > 1:
        raise ValueError("simple roots have different numbers of coordinates")
    # independent iff the Gram matrix is positive definite, iff
    # elimination without row exchanges meets only positive pivots
    rows = [[dot(a, b) for b in simple] for a in simple]
    for c in range(n):
        pivot = rows[c][c]
        if pivot <= 0:
            raise ValueError("simple roots are linearly dependent")
        for i in range(c + 1, n):
            f = rows[i][c] / pivot
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    cartan = cartan_matrix_of(simple)
    if any(cartan[i][j] > 0 for i in range(n) for j in range(n) if i != j):
        raise ValueError("off-diagonal Cartan entries must be <= 0")

    # positive roots with their simple-basis coefficient vectors
    coeff_of: Dict[Coord, Tuple[int, ...]] = {}
    by_height: Dict[int, List[Coord]] = {1: []}
    for i, a in enumerate(simple):
        coeff_of[a] = tuple(1 if j == i else 0 for j in range(n))
        by_height[1].append(a)
    h = 1
    while by_height.get(h):
        nxt: List[Coord] = []
        for beta in by_height[h]:
            cb = coeff_of[beta]
            for i, alpha in enumerate(simple):
                # p = length of the alpha-string below beta
                p = 0
                cur = vsub(beta, alpha)
                while cur in coeff_of:
                    p += 1
                    cur = vsub(cur, alpha)
                pairing = sum(cb[j] * cartan[j][i] for j in range(n))
                q = p - pairing
                if q > 0:
                    new = vadd(beta, alpha)
                    if new not in coeff_of:
                        coeff_of[new] = tuple(
                            cb[j] + (1 if j == i else 0) for j in range(n))
                        nxt.append(new)
        h += 1
        by_height[h] = nxt
    positives = tuple(sorted(coeff_of, key=lambda r: (sum(coeff_of[r]), r)))
    roots = frozenset(positives) | frozenset(vneg(r) for r in positives)
    for r in positives:
        coeff_of[vneg(r)] = tuple(-c for c in coeff_of[r])
    return RootSystem(simple=tuple(simple), roots=roots,
                      positives=positives, cartan=cartan,
                      coefficients=coeff_of)


@lru_cache(maxsize=None)
def root_system_of(simple: Tuple[Coord, ...]) -> RootSystem:
    """build_root_system(simple), built once per tuple of simple roots;
    shared, so callers must not mutate it."""
    return build_root_system(simple)


def simple_system(positives: Sequence[Coord]) -> Tuple[Coord, ...]:
    """The roots in a positive set not expressible as sums of two of them."""
    pset = set(positives)
    out = []
    for a in positives:
        if not any(vsub(a, b) in pset for b in positives if b != a):
            out.append(a)
    return tuple(out)


def cartan_matrix_of(simple: Sequence[Coord]):
    n = len(simple)
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            v = 2 * dot(simple[i], simple[j]) / dot(simple[j], simple[j])
            if v.denominator != 1:
                raise ValueError("non-integral Cartan pairing")
            row.append(int(v))
        m.append(tuple(row))
    return tuple(m)


def cartan_type(simple: Sequence[Coord]) -> str:
    """The Dynkin type of a simple system, e.g. "B4" or "A1xA1".

    Each connected component of the diagram is named by its rank r, its
    number of positive roots and how many of them are short.  With one
    root length it is A (r(r+1)/2 roots), D (r(r-1)) or E (36, 63 or
    120); with two it is G2 (rank 2, 6 roots), F4 (rank 4, 24 roots), B
    when exactly r roots are short, and C otherwise.  So C2 reads "B2"
    and D3 reads "A3".  Each component's root system comes from
    root_system_of, so a system named before, or k_root_system(), is
    not built again.  Input that is not a simple system raises
    ValueError, as in build_root_system.
    """
    left = list(range(len(simple)))
    labels = []
    while left:
        comp = [left.pop(0)]
        for i in comp:
            linked = [j for j in left if dot(simple[i], simple[j])]
            left = [j for j in left if j not in linked]
            comp += linked
        rs = root_system_of(tuple(tuple(simple[i]) for i in sorted(comp)))
        r, npos = len(comp), len(rs.positives)
        lengths = [dot(a, a) for a in rs.positives]
        short = lengths.count(min(lengths))
        if short == npos:
            kind = ("A" if npos == r * (r + 1) // 2
                    else "D" if npos == r * (r - 1) else "E")
        elif (r, npos) in ((2, 6), (4, 24)):
            kind = "G" if r == 2 else "F"
        else:
            kind = "B" if short == r else "C"
        labels.append("%s%d" % (kind, r))
    return "x".join(sorted(labels))


# ---------------------------------------------------------------------------
# F4 specifics
# ---------------------------------------------------------------------------

F4_SIMPLE = (
    vec(Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),  # a1
    vec(0, 0, 0, 1),                                                          # a2
    vec(0, 0, 1, -1),                                                         # a3
    vec(0, 1, -1, 0),                                                         # a4
)


@dataclass(frozen=True)
class SatakeSplit:
    p_plus: Tuple[Coord, ...]             # positives with nonzero restriction
    p_minus: Tuple[Coord, ...]            # positive roots of the centralizer


@dataclass(frozen=True)
class CompactSplit:
    delta_k: Tuple[Coord, ...]
    delta_p: Tuple[Coord, ...]
    positives_k: Tuple[Coord, ...]
    simple_k: Tuple[Coord, ...]


def theta_coord(a: Coord) -> Coord:
    return (-a[0],) + tuple(a[1:])


@lru_cache(maxsize=None)
def f4_root_system() -> RootSystem:
    return build_root_system(F4_SIMPLE)


@lru_cache(maxsize=None)
def f4_satake_data() -> Tuple[RootSystem, SatakeSplit]:
    rs = f4_root_system()
    p_plus = tuple(a for a in rs.positives if a[0] != 0)
    p_minus = tuple(a for a in rs.positives if a[0] == 0)
    return rs, SatakeSplit(p_plus=p_plus, p_minus=p_minus)


def is_compact_root(a: Coord) -> bool:
    """Compactness of a root in the moved-Cartan coordinates.

    Integral roots +-e_i +- e_j are compact and +-e_i are not; among the
    half-integral roots the compact ones carry an even number of minus
    signs.
    """
    nz = [x for x in a if x != 0]
    if all(abs(x) == 1 for x in nz):
        return len(nz) == 2
    minus = sum(1 for x in a if x < 0)
    return minus % 2 == 0


DEFAULT_REGULAR = vec(0, 4, 2, 1)


@lru_cache(maxsize=None)
def compact_split() -> CompactSplit:
    """Split the moved-Cartan roots by compactness, with the positive
    compact roots those on which DEFAULT_REGULAR is positive.

    DEFAULT_REGULAR vanishes in the first coordinate, makes every
    positive root of the centralizer positive and lies on no compact
    root's kernel; the tests check that of the constant.
    """
    rs = f4_root_system()
    delta_k = tuple(a for a in rs.roots if is_compact_root(a))
    delta_p = tuple(a for a in rs.roots if not is_compact_root(a))
    positives_k = tuple(a for a in delta_k if dot(a, DEFAULT_REGULAR) > 0)
    return CompactSplit(delta_k=delta_k, delta_p=delta_p,
                        positives_k=positives_k,
                        simple_k=simple_system(positives_k))


@lru_cache(maxsize=None)
def k_root_system() -> RootSystem:
    """The root system of k, on the simple roots of the compact split;
    the module builder and the degree machine read the k roots from it,
    and cartan_type names it from the same cache."""
    return root_system_of(compact_split().simple_k)


def gamma_basis() -> Dict[str, Coord]:
    """The distinguished weights in the moved-Cartan coordinates."""
    g1 = vec(Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    g2 = vec(0, 0, 1, 1)
    out = {
        "gamma1": g1,
        "gamma2": g2,
        "gamma3": vadd(g1, g2),
        "gamma4": vadd(vadd(g1, g1), g2),
        "delta": vec(-1, 1, 0, 0),
        "phi1": vec(1, 0, 1, 0),
        "delta1": vec(-1, 0, 1, 0),
        "phi2": vec(1, 0, 0, 1),
        "delta2": vec(-1, 0, 0, 1),
        "psi1": vec(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
        "psi2": vec(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
    }
    return out


def dump_f4() -> dict:
    """JSON-friendly dump of the F4 root data."""
    rs, split = f4_satake_data()
    cs = compact_split()

    def ser(roots):
        return [[str(x) for x in r] for r in roots]

    return {
        "simple": ser(rs.simple),
        "positives": ser(rs.positives),
        "cartan": [list(r) for r in rs.cartan],
        "p_plus": ser(split.p_plus),
        "p_minus": ser(split.p_minus),
        "delta_k": ser(sorted(cs.delta_k)),
        "delta_p": ser(sorted(cs.delta_p)),
        "positives_k": ser(cs.positives_k),
        "simple_k": ser(cs.simple_k),
        "simple_k_type": cartan_type(cs.simple_k),
        "p_minus_type": cartan_type(simple_system(split.p_minus)),
    }
