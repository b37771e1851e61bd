"""Epsilon-nets, ball-cover nerves, and presentations with short relators.

The nerve of a cover by convex balls is homotopy equivalent to the region it
covers, so its 2-skeleton carries the fundamental group: generators are the
edges outside a spanning tree, and each triangle contributes one relator of
length at most 3 (tree edges read as the empty letter).  Abelianization via
integer normal form is the verification oracle downstream.

Metric contexts make the same construction run on the flat torus and on
closed hyperbolic surfaces presented as quotients.  Each exposes
`lifts(ys, reach=None)`, one row per point of ys (torus coordinates, or
translates by a precomputed deck set; with a reach, a surface row keeps only
the translates that can come within the reach of a point of its region,
`SurfaceMetric`); `distances_to(xs, lifted)`, the (len(xs), rows) distances
through nearest lifts (torus y + round(x - y); on a surface arccosh of the
least cosh-argument over the translates, bit for bit the least distance as
`np.arccosh` is non-decreasing, tested, and under a reach the same float
wherever it is below the reach); `nearest_lifts(xs, lifted)`, per row the
lift nearest to xs[row]; and
`minimax_radii(xs, ys, zs)`, the minimax radii of triangles with vertices ys,
zs such lifts, in one array pass (on the torus with its one-triangle form
`minimax_radius(x, y, z)` on lifted rows).
H^2 triangles are solved on (N, 3) arrays in the hyperboloid model.
"""

from collections import defaultdict, deque
from dataclasses import dataclass
from math import ceil, comb, cosh, gcd, isqrt, log, pi

import numpy as np

from .errors import CapExceededError, PreconditionError
from .hyperboloid import h2_to_hyperboloid, hdistance, minkowski_form, normalize_point, q_inner
from .wordballs import (cosh_distances_h2, displacement_pruned_ball, distances_h2,
                        moebius_apply_h2, stack_moebius)


# -- metric contexts ---------------------------------------------------------

def _minimax_radii(p, dist, midpoint, circumradii):
    """Radii of the least balls holding the triangles (p[0][m], p[1][m], p[2][m]).

    Half the longest side when the ball about its midpoint already holds the
    third vertex (to 1e-12), else `circumradii(vertices, half longest sides)`
    on the remaining rows.
    """
    p = np.stack(p)
    sides = np.stack([dist(p[0], p[1]), dist(p[0], p[2]), dist(p[1], p[2])])
    longest = 2 - np.argmax(sides[::-1], axis=0)   # ties go to the later pair, as max((d, i, j))
    m = np.arange(p.shape[1])
    i, j = np.array([0, 0, 1])[longest], np.array([1, 2, 2])[longest]
    half = sides[longest, m] / 2.0
    wide = ~(dist(midpoint(p[i, m], p[j, m]), p[3 - i - j, m]) <= half + 1e-12)
    half[wide] = circumradii(p[:, wide], half[wide])
    return half


def _euclid_circumradii(p, half):
    # The circumcentre p0 + a u + b v solves 2 (x - p0) . u = |u|^2, 2 (x - p0) . v = |v|^2.
    u, v = p[1] - p[0], p[2] - p[0]
    uu, uv, vv = (u * u).sum(-1), (u * v).sum(-1), (v * v).sum(-1)
    det = 2.0 * (uu * vv - uv * uv)
    a, b = vv * (uu - uv) / det, uu * (vv - uv) / det
    return np.linalg.norm(a[:, None] * u + b[:, None] * v, axis=-1)


def _h2_circumradii(v, half):
    # Equidistant point: Q-orthogonal to both difference vectors.  A spacelike
    # one has no interior circumcentre; the midpoint candidates were exhaustive.
    q = np.diag(minkowski_form(2))
    c = np.cross(q * (v[0] - v[1]), q * (v[0] - v[2]))
    inside = q_inner(c, c) < 0
    half[inside] = hdistance(normalize_point(c[inside]), v[0][inside])
    return half


class TorusMetric:
    """Flat torus R^n / Z^n (unit periods), measured through nearest lifts.

    The lift of y nearest to x is y + round(x - y), because the Voronoi cell
    of Z^n is the unit cube, so `distances_to` is exact at every scale.  A
    minimax radius below 1/4 is exact too: lifts that fit in a ball of
    radius r < 1/4 lie within 1/2 of x, hence are the nearest ones.  Above
    1/4 the value is only an upper bound, so nerves need r <= 1/4.  `lifts`
    ignores a reach: each point is its own one lift.
    """

    def lifts(self, ys, reach=None):
        return np.asarray(ys, float)

    def distances_to(self, xs, lifted):
        """Column by column, squares summed in order: bit for bit the norm of
        d - round(d), as numpy reduces an axis shorter than 8 in that order."""
        xs = np.asarray(xs, float)
        total = np.zeros((len(xs), len(lifted)))
        for k in range(lifted.shape[-1]):
            d = xs[:, k, None] - lifted[:, k]
            d -= np.round(d)
            d *= d
            total += d
        return np.sqrt(total, out=total)

    def nearest_lifts(self, xs, lifted):
        lifted = np.asarray(lifted, float)
        return lifted + np.round(np.asarray(xs, float).reshape(lifted.shape) - lifted)

    def minimax_radii(self, xs, ys, zs):
        return _minimax_radii([np.asarray(xs, float), ys, zs],
                              lambda a, b: np.linalg.norm(a - b, axis=-1),
                              lambda a, b: (a + b) / 2.0, _euclid_circumradii)

    def minimax_radius(self, x, y, z):
        return float(self.minimax_radii([x], *(self.nearest_lifts([x], [w]) for w in (y, z)))[0])

    def ball_volume(self, r):
        return min(pi * r * r, 1.0)


def _bound(radius):
    """A radius widened by 1e-9, relative and absolute: the margin of
    `wordballs._within`, far above the float error of one distance."""
    return radius * (1.0 + 1e-9) + 1e-9


class KeptLifts:
    """Rows of unequal length stored flat: row k is the `counts[k]` entries
    of `flat` after those of the rows before it.  `size` counts the entries
    and `np.asarray` gives `flat`; rows are selected by index (`lifted[rows]`)
    and joined by `np.concatenate`, as the rows of a 2-D array are."""

    def __init__(self, flat, counts):
        self.flat, self.counts = flat, counts

    @property
    def size(self):
        return len(self.flat)

    @property
    def starts(self):
        return np.cumsum(self.counts) - self.counts

    def __len__(self):
        return len(self.counts)

    def __array__(self, dtype=None, copy=None):
        return self.flat if dtype is None else self.flat.astype(dtype)

    def __getitem__(self, rows):
        rows = np.arange(len(self))[rows]
        counts = self.counts[rows]
        offset = np.repeat(self.starts[rows] - (np.cumsum(counts) - counts), counts)
        return KeptLifts(self.flat[offset + np.arange(len(offset))], counts)

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.concatenate or kwargs:
            return NotImplemented
        return KeptLifts(np.concatenate([p.flat for p in args[0]]),
                         np.concatenate([p.counts for p in args[0]]))


class SurfaceMetric:
    """Closed hyperbolic surface as a quotient, measured through nearest
    lifts among a displacement-pruned set of deck translates.

    `region_radius` bounds d(base, x) for the points in play and
    `interaction_radius` bounds the distances that must come out exact; the
    deck set keeps every transformation the triangle inequality allows for
    such pairs, exploring at `slack` (certified: `displacement_pruned_ball`).

    `lifts(ys, reach)` keeps, per point, the translates within
    region_radius + reach of the base (and at least the one nearest it), as
    `KeptLifts`.  If d(base, x) <= region_radius and d(x, g y) < reach, then
    d(base, g y) < region_radius + reach, so the translate attaining any
    distance below the reach is kept and the least distance, and nearest
    lift, are the full row's floats.  `distances_to` and `nearest_lifts`
    raise PreconditionError for a point x beyond region_radius (with the
    margin of `_bound`), where that proof and the deck's own fail.
    """

    def __init__(self, group, base, region_radius, interaction_radius, slack):
        keep = 2.0 * region_radius + interaction_radius + 0.1
        self.deck = displacement_pruned_ball(group, base, keep, slack=slack)
        self._abcd = stack_moebius(self.deck)
        self._base, self._region = base.z, _bound(region_radius)
        self.region_radius = region_radius

    def lifts(self, ys, reach=None):
        """Deck translates of the points ys: one row per point, one column
        per deck transformation; with a reach, the rows' translates that can
        matter to distances below it, in deck order (`KeptLifts`)."""
        w = moebius_apply_h2(self._abcd, np.array([y.z for y in ys])[:, None])
        if reach is None:
            return w
        c = cosh_distances_h2(self._base, w)
        keep = c <= cosh(_bound(self._region + reach))
        keep[np.arange(len(w)), np.argmin(c, axis=1)] = True
        return KeptLifts(w[keep], keep.sum(axis=1))

    def _rows(self, xs, lifted):
        """The points xs as complex numbers, checked against the region, and
        lifted as `KeptLifts` (full rows keep every translate)."""
        z = np.array([x.z for x in xs])
        far = cosh_distances_h2(self._base, z) > cosh(self._region)
        if far.any():
            raise PreconditionError(
                "point %r lies farther than region_radius %g from the base, so its nearest "
                "lifts may be missed" % (complex(z[far][0]), self.region_radius))
        if not isinstance(lifted, KeptLifts):
            lifted = np.asarray(lifted)
            lifted = KeptLifts(lifted.ravel(), np.full(len(lifted), lifted.shape[1]))
        return z, lifted

    def distances_to(self, xs, lifted):
        z, lifted = self._rows(xs, lifted)
        least = np.minimum.reduceat(cosh_distances_h2(z[:, None], lifted.flat), lifted.starts,
                                    axis=1)
        return np.arccosh(np.maximum(least, 1.0))

    def nearest_lifts(self, xs, lifted):
        """Per row, the translate nearest to xs[row] by per-translate distance
        (unique when the relevant distances stay below half the systole);
        the first in deck order on ties."""
        z, lifted = self._rows(xs, lifted)
        row = np.repeat(np.arange(len(lifted)), lifted.counts)
        d = distances_h2(z[row], lifted.flat)
        return lifted.flat[np.lexsort((d, row))[lifted.starts]]

    def minimax_radii(self, xs, ys, zs):
        v = [h2_to_hyperboloid(w) for w in (np.array([x.z for x in xs]), ys, zs)]
        return _minimax_radii(v, hdistance, lambda a, b: normalize_point(a + b),
                              _h2_circumradii)

    def ball_volume(self, r):
        return 2 * pi * (cosh(r) - 1)


# -- epsilon nets -------------------------------------------------------------

@dataclass
class EpsNet:
    centers: list
    eps: float


# Most centers an eps-net may hold; most entries per blocked distance call.
_NET_CAP = 10**4
_NET_ENTRIES = 2 ** 15


def build_eps_net(points, eps, metric):
    """Greedy insertion: keep a point iff it is >= eps from every center.

    The result is eps-separated and, relative to the sampled stream, maximal
    (every rejected point certifies its own eps-cover).  One call measures a
    block of the stream against the centers kept before it, one more its
    survivors against each other; walking that matrix keeps a survivor iff no
    survivor kept earlier in the block is within eps.  Both calls take lifts
    under the reach eps (`lifts(ys, eps)`): every distance below eps is the
    one-point loop's float and every other one stays at least eps, so the
    centers are the loop's.  A block holds at most `_NET_ENTRIES //
    lifted.size` points, lifted.size counting the centers' kept lifts, and
    isqrt(_NET_ENTRIES // L) points, L the full lift size of one point, so
    no call builds over `_NET_ENTRIES` entries."""
    if eps <= 0:
        raise PreconditionError("epsilon must be positive, got %g" % eps)
    points = list(points)
    square = isqrt(_NET_ENTRIES // max(1, metric.lifts(points[:1]).size))
    centers, lifted, start = [], metric.lifts(points[:1], eps)[:0], 0
    while start < len(points):
        block = points[start:start + max(1, min(square, _NET_ENTRIES // max(1, lifted.size)))]
        far = start + np.flatnonzero(
            metric.distances_to(block, lifted).min(axis=1, initial=np.inf) >= eps)
        start += len(block)
        if not len(far):
            continue
        survivors = [points[k] for k in far.tolist()]
        new, kept = metric.lifts(survivors, eps), []
        for i, row in enumerate((metric.distances_to(survivors, new) < eps).tolist()):
            if any(row[j] for j in kept):
                continue
            kept.append(i)
            centers.append(survivors[i])
            if len(centers) > _NET_CAP:
                raise CapExceededError("eps-net exceeded %d centers after %d of %d samples; raise "
                                       "--epsilon or lower --samples"
                                       % (_NET_CAP, far[i] + 1, len(points)), entries=centers)
        lifted = np.concatenate((lifted, new[kept]))
    return EpsNet(centers=centers, eps=eps)


# -- nerves --------------------------------------------------------------------

@dataclass
class NerveComplex:
    vertex_count: int
    edges: list          # sorted pairs (i, j)
    triangles: list      # sorted triples (i, j, k)
    max_degree: int = 0
    degree_bound_formula: float = None


def nerve(net, r, metric):
    """Nerve of the cover by open r-balls about the net centers.

    Edge iff two balls meet (center distance < 2r); triangle iff the three
    balls share a point, decided exactly in constant curvature by the minimax
    radius test: the balls intersect iff min_p max_i d(p, c_i) < r.  Each edge
    (i, j) takes its nearest lift once, among the lifts under the reach 2r;
    the triples (i, j, k) with (i, k) and (j, k) edges are decided in one
    `minimax_radii` call.
    """
    if r <= 0:
        raise PreconditionError("ball radius must be positive, got %g" % r)
    cs = net.centers
    n = len(cs)
    lifted = metric.lifts(cs, 2.0 * r)
    pairs, near = [np.zeros((0, 2), int)], []
    rows = max(1, _NET_ENTRIES // max(1, lifted.size))
    for s in range(0, n, rows):
        block = np.argwhere(np.triu(metric.distances_to(cs[s:s + rows], lifted) < 2.0 * r, s + 1))
        pairs.append(block + (s, 0))
        near.append(metric.nearest_lifts([cs[i + s] for i in block[:, 0].tolist()],
                                         lifted[block[:, 1]]))
    e = np.concatenate(pairs)
    # Edges are sorted, so pairing each (i, j) with the later (i, k) of its row lists triples in order.
    later = np.searchsorted(e[:, 0], e[:, 0], side="right") - np.arange(len(e)) - 1
    ij = np.repeat(np.arange(len(e)), later)
    ik = ij + 1 + np.arange(len(ij)) - np.repeat(np.cumsum(later) - later, later)
    closed = np.isin(e[ij, 1] * n + e[ik, 1], e[:, 0] * n + e[:, 1])
    ij, ik = ij[closed], ik[closed]
    triangles = []
    if len(ij):
        near = np.concatenate(near)
        inside = metric.minimax_radii([cs[i] for i in e[ij, 0].tolist()], near[ij], near[ik]) < r
        triangles = [tuple(t) for t in np.column_stack((e[ij], e[ik, 1]))[inside].tolist()]
    bound = metric.ball_volume(2.5 * net.eps) / metric.ball_volume(net.eps / 2.0)
    return NerveComplex(vertex_count=n, edges=[tuple(p) for p in e.tolist()], triangles=triangles,
                        max_degree=int(np.bincount(e.ravel(), minlength=n).max(initial=0)),
                        degree_bound_formula=bound)


# -- presentations ---------------------------------------------------------------

@dataclass
class Presentation:
    generator_count: int
    relators: list        # tuples of signed generator indices (1-based)
    tree_edges: list

    def max_relator_length(self):
        return max((len(r) for r in self.relators), default=0)


def presentation_from_nerve(complex_):
    """Fundamental-group presentation of the 2-skeleton.

    Spanning-tree edges carry the empty letter; each remaining edge is a
    generator; each triangle spells its boundary word, so every relator has
    length at most 3 and the generator count is E - V + 1.  Edges and
    triangles are the sorted tuples `nerve` returns.
    """
    n = complex_.vertex_count
    adj = defaultdict(list)
    for i, j in complex_.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, tree = {0} if n else set(), set()
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add((v, w) if v < w else (w, v))
                queue.append(w)
    if len(seen) != n:
        raise PreconditionError("nerve complex is disconnected; no presentation")
    gen_index = {e: g for g, e in enumerate((e for e in complex_.edges if e not in tree), 1)}
    # Boundary of (i, j, k): (i, j), (j, k), then (i, k) backwards.
    relators = [tuple(sign * gen_index[e] for sign, e in ((1, (i, j)), (1, (j, k)), (-1, (i, k)))
                      if e not in tree)
                for i, j, k in complex_.triangles]
    pres = Presentation(
        generator_count=len(gen_index),
        relators=relators,
        tree_edges=sorted(tree),
    )
    assert pres.max_relator_length() <= 3
    assert pres.generator_count == len(complex_.edges) - (n - 1)
    return pres


# -- abelianization via integer normal form ---------------------------------------

def smith_normal_form(matrix):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, as
    Python ints; rows may be sequences or {column: entry} dicts.

    Exact elimination over sparse rows {column: int}.  The pivot is the first
    entry of least magnitude; the scan stops at the first unit.  Row
    operations clear its column, in the rows a column index lists; once the
    column is clear, column operations clear its row and touch the pivot row
    alone.  A nonzero remainder is smaller than the pivot and becomes the next
    pivot, so the loop ends.  Pairwise gcd/lcm turns the diagonal's non-unit
    entries into a chain, and its units go in front: invariant factors are
    unique, so this is the chain of the whole diagonal.
    """
    rows = {t: r for t, r in enumerate(
        {j: int(x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x}
        for row in matrix) if r}
    cols = defaultdict(set)
    for t, r in rows.items():
        for j in r:
            cols[j].add(t)
    diagonal = []
    while rows:
        t, j = next(((t, j) for t, r in rows.items() for j, x in r.items() if abs(x) == 1),
                    None) or min(((t, j) for t, r in rows.items() for j in r),
                                 key=lambda tj: abs(rows[tj[0]][tj[1]]))
        top = rows[t]
        p = top[j]
        for u in [u for u in cols[j] if u != t]:
            r, q = rows[u], rows[u][j] // p
            for k, y in top.items():
                v = r.get(k, 0) - q * y
                if v:
                    cols[k].add(u)
                    r[k] = v
                elif r.pop(k, 0):
                    cols[k].discard(u)
            if not r:
                del rows[u]
        if len(cols[j]) > 1:
            continue
        for k in [k for k in top if k != j]:
            top[k] %= p
            if not top[k]:
                del top[k]
                cols[k].discard(t)
        if len(top) == 1:
            diagonal.append(abs(p))
            del rows[t]
            cols[j].discard(t)
    rest = [d for d in diagonal if d != 1]
    for i in range(len(rest)):
        for k in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[k])
            rest[i], rest[k] = g, rest[i] * rest[k] // g
    return [1] * (len(diagonal) - len(rest)) + rest


def abelianization(presentation):
    """(free rank, nontrivial torsion divisors) of the presented group's
    abelianization, from the integer normal form of the relator exponents."""
    g = presentation.generator_count
    rows = []
    for rel in presentation.relators:
        row = {}
        for letter in rel:
            row[abs(letter) - 1] = row.get(abs(letter) - 1, 0) + (1 if letter > 0 else -1)
        rows.append(row)
    divisors = smith_normal_form(rows)
    rank = g - len(divisors)
    torsion = [d for d in divisors if d > 1]
    return rank, torsion


# -- counting bounded presentations -------------------------------------------------

def word_count(generators):
    """Nonempty words of length <= 3 over the 2g-letter alphabet."""
    letters = 2 * generators
    return sum(letters ** k for k in range(1, 4))


def count_presentations(c, v):
    """Exact number of presentations with g <= B = ceil(cv) generators and a
    multiset of k <= B relators, each a nonempty word of length <= 3.

    With w words there are C(w + k - 1, k) multisets of size k, and the hockey
    stick identity sums them over k <= B to C(w + B, B); w = 0 gives 1, the
    empty multiset.  Counts presentations, not isomorphism classes.
    """
    if c <= 0 or v < 1:
        raise PreconditionError("need c > 0 and v >= 1")
    bound = ceil(c * v)
    return sum(comb(word_count(g) + bound, bound) for g in range(bound + 1))


def decimal_digits(n):
    """Decimal digits of the integer n >= 1 without str(n), which Python refuses
    past 4300 digits: a bit-length bound below, raised against powers of 10."""
    k = (n.bit_length() - 1) * 30102999566 // 10**11 + 1
    while n >= 10**k:
        k += 1
    return k


def growth_profile(c, v_list):
    """log N(c, v) / (v log v) per v: the exponent profile whose flattening
    window certifies the v^{bv}-shaped growth."""
    out = []
    for v in v_list:
        n = count_presentations(c, v)
        ratio = log(n) / (v * log(v)) if v > 1 else float("nan")
        out.append({"v": v, "digits": decimal_digits(n), "ratio": ratio})
    return out
