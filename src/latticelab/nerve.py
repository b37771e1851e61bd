"""Epsilon-nets, ball-cover nerves, and presentations with short relators.

The nerve of a cover by convex balls is homotopy equivalent to the region it
covers, so its 2-skeleton carries the fundamental group: generators are the
edges outside a spanning tree, and each triangle contributes one relator of
length at most 3 (tree edges read as the empty letter).  Abelianization via
integer normal form is the verification oracle downstream.

Metric contexts make the same construction run on the flat torus and on
closed hyperbolic surfaces presented as quotients.  Each exposes `lifts(ys)`,
one row per point of ys (torus coordinates, or translates by a precomputed
deck set); `distances_to(xs, lifted)`, the (len(xs), rows) distances through
nearest lifts (torus y + round(x - y); on a surface arccosh of the least
cosh-argument over the translates, bit for bit the least distance as
`np.arccosh` is non-decreasing, tested), with its one-point form `distances`;
and the minimax radius of a point and two lifted rows.  H^2 triangles are
solved in the hyperboloid model with the helpers of `hyperboloid`.
"""

from dataclasses import dataclass
from math import ceil, comb, cosh, gcd, log, pi

import numpy as np

from .errors import CapExceededError, PreconditionError
from .hyperbolic import HPoint
from .hyperboloid import (h2_point_to_hyperboloid, hdistance, minkowski_form, normalize_point,
                          q_inner)
from .wordballs import (cosh_distances_h2, displacement_pruned_ball, distances_h2,
                        moebius_apply_h2, stack_moebius)


# -- metric contexts ---------------------------------------------------------

def _euclid_minimax(pts):
    """Radius of the minimal enclosing ball of three points of R^n.

    Either half the longest side (when that midpoint ball already contains
    the third point) or the circumradius.
    """
    p = [np.asarray(q, dtype=float) for q in pts]
    dists = [(np.linalg.norm(p[i] - p[j]), i, j) for i in range(3) for j in range(i + 1, 3)]
    dmax, i, j = max(dists)
    k = 3 - i - j
    mid = (p[i] + p[j]) / 2.0
    if np.linalg.norm(p[k] - mid) <= dmax / 2.0 + 1e-12:
        return dmax / 2.0
    # Circumcenter inside the plane of the triangle.
    u = p[1] - p[0]
    v = p[2] - p[0]
    # Solve 2 (x - p0) . u = |u|^2, 2 (x - p0) . v = |v|^2 in the (u, v) frame.
    g = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    rhs = 0.5 * np.array([u @ u, v @ v])
    ab = np.linalg.solve(g, rhs)
    center = p[0] + ab[0] * u + ab[1] * v
    return float(np.linalg.norm(center - p[0]))


def _h2_minimax(points):
    """Minimal enclosing ball radius of three points of H^2, via the
    hyperboloid model."""
    v = [h2_point_to_hyperboloid(p) for p in points]
    dists = [(hdistance(v[i], v[j]), i, j) for i in range(3) for j in range(i + 1, 3)]
    dmax, i, j = max(dists)
    k = 3 - i - j
    if hdistance(normalize_point(v[i] + v[j]), v[k]) <= dmax / 2.0 + 1e-12:
        return dmax / 2.0
    # Equidistant point: Q-orthogonal to both difference vectors.
    q = minkowski_form(2)
    p = np.cross(q @ (v[0] - v[1]), q @ (v[0] - v[2]))
    if q_inner(p, p) >= 0:
        # No interior circumcenter; the midpoint candidates were exhaustive.
        return dmax / 2.0
    return hdistance(normalize_point(p), v[0])


class TorusMetric:
    """Flat torus R^n / Z^n (unit periods), measured through nearest lifts.

    The lift of y nearest to x is y + round(x - y), because the Voronoi cell
    of Z^n is the unit cube, so `distances` is exact at every scale.  A
    minimax radius below 1/4 is exact too: lifts that fit in a ball of
    radius r < 1/4 lie within 1/2 of x, hence are the nearest ones.  Above
    1/4 the value is only an upper bound, so nerves need r <= 1/4.
    """

    def lifts(self, ys):
        return np.asarray(ys, float)

    def distances_to(self, xs, lifted):
        d = np.asarray(xs, float)[:, None] - lifted
        return np.linalg.norm(d - np.round(d), axis=-1)

    def distances(self, x, ys):
        return self.distances_to([x], self.lifts(ys))[0]

    def nearest_lift(self, x, y):
        y = np.asarray(y, float)
        return y + np.round(np.asarray(x, float) - y)

    def minimax_radius(self, x, y, z):
        return _euclid_minimax([x, self.nearest_lift(x, y), self.nearest_lift(x, z)])

    def ball_volume(self, r):
        return min(pi * r * r, 1.0)


class SurfaceMetric:
    """Closed hyperbolic surface as a quotient, measured through nearest
    lifts among a displacement-pruned set of deck translates.

    `region_radius` bounds d(base, x) for the points in play and
    `interaction_radius` bounds the distances that must come out exact; the
    deck set keeps every transformation the triangle inequality allows for
    such pairs, exploring at `slack` (certified: `displacement_pruned_ball`).
    """

    def __init__(self, group, base, region_radius, interaction_radius, slack):
        keep = 2.0 * region_radius + interaction_radius + 0.1
        self.deck = displacement_pruned_ball(group, base, keep, slack=slack)
        self._abcd = stack_moebius(self.deck)

    def lifts(self, ys):
        """Deck translates of the points ys: one row per point, one column
        per deck transformation."""
        return moebius_apply_h2(self._abcd, np.array([y.z for y in ys])[:, None])

    def distances_to(self, xs, lifted):
        z = np.array([x.z for x in xs])[:, None, None]
        return np.arccosh(np.maximum(cosh_distances_h2(z, lifted).min(axis=2), 1.0))

    def distances(self, x, ys):
        return self.distances_to([x], self.lifts(ys))[0]

    def nearest_lift(self, x, ts):
        """The translate in the lifted row ts nearest to x by distance (unique
        when the relevant distances stay below half the systole)."""
        return HPoint(complex(ts[int(np.argmin(distances_h2(x.z, ts)))]))

    def minimax_radius(self, x, y, z):
        return _h2_minimax([x, self.nearest_lift(x, y), self.nearest_lift(x, z)])

    def ball_volume(self, r):
        return 2 * pi * (cosh(r) - 1)


# -- epsilon nets -------------------------------------------------------------

@dataclass
class EpsNet:
    centers: list
    eps: float


# Most centers an eps-net may hold; most points, and point x lifted entries,
# per blocked distance call.
_NET_CAP = 10**4
_NET_BLOCK = 64
_NET_ENTRIES = 2 ** 15


def build_eps_net(points, eps, metric):
    """Greedy insertion: keep a point iff it is >= eps from every center.

    The result is eps-separated and, relative to the sampled stream, maximal
    (every rejected point certifies its own eps-cover).  One call measures a
    block of the stream against the centers kept before it; each survivor is
    then measured, in order, against those kept earlier in its block.  Every
    distance is the one-point loop's float, so the centers are the loop's."""
    if eps <= 0:
        raise PreconditionError("epsilon must be positive, got %g" % eps)
    points = list(points)
    centers, lifted, start = [], metric.lifts(points[:1])[:0], 0
    while start < len(points):
        block = points[start:start + max(1, min(_NET_BLOCK, _NET_ENTRIES // max(1, lifted.size)))]
        far = metric.distances_to(block, lifted).min(axis=1, initial=np.inf) >= eps
        new = lifted[:0]
        for k in np.flatnonzero(far).tolist():
            if len(new) and metric.distances_to([block[k]], new).min() < eps:
                continue
            centers.append(block[k])
            new = np.concatenate((new, metric.lifts([block[k]])))
            if len(centers) > _NET_CAP:
                raise CapExceededError("eps-net exceeded %d centers after %d of %d samples; raise "
                                       "--epsilon or lower --samples"
                                       % (_NET_CAP, start + k + 1, len(points)), entries=centers)
        lifted = np.concatenate((lifted, new)) if len(new) else lifted
        start += len(block)
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
    radius test: the balls intersect iff min_p max_i d(p, c_i) < r.
    """
    if r <= 0:
        raise PreconditionError("ball radius must be positive, got %g" % r)
    cs = net.centers
    n = len(cs)
    lifted = metric.lifts(cs)
    edges = []
    adj = [set() for _ in range(n)]
    rows = max(1, _NET_ENTRIES // max(1, lifted.size))
    for s in range(0, n, rows):
        near = np.triu(metric.distances_to(cs[s:s + rows], lifted) < 2.0 * r, s + 1)
        for i, j in (np.argwhere(near) + (s, 0)).tolist():
            edges.append((i, j))
            adj[i].add(j)
            adj[j].add(i)
    triangles = []
    for i in range(n):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k <= j:
                    continue
                if metric.minimax_radius(cs[i], lifted[j], lifted[k]) < r:
                    triangles.append((i, j, k))
    max_deg = max((len(a) for a in adj), default=0)
    bound = metric.ball_volume(2.5 * net.eps) / metric.ball_volume(net.eps / 2.0)
    return NerveComplex(vertex_count=n, edges=edges, triangles=triangles,
                        max_degree=max_deg, degree_bound_formula=bound)


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
    length at most 3 and the generator count is E - V + 1.
    """
    n = complex_.vertex_count
    adj = {}
    for (i, j) in complex_.edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = {0} if n else set()
    tree = set()
    queue = [0] if n else []
    while queue:
        v = queue.pop(0)
        for w in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                tree.add((min(v, w), max(v, w)))
                queue.append(w)
    if len(seen) != n:
        raise PreconditionError("nerve complex is disconnected; no presentation")
    gen_index = {}
    for (i, j) in complex_.edges:
        key = (min(i, j), max(i, j))
        if key not in tree and key not in gen_index:
            gen_index[key] = len(gen_index) + 1
    relators = []
    for (i, j, k) in complex_.triangles:
        word = []
        for (x, y) in ((i, j), (j, k), (k, i)):
            key = (min(x, y), max(x, y))
            if key in tree:
                continue
            g = gen_index[key]
            word.append(g if (x, y) == key else -g)
        relators.append(tuple(word))
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
    Python ints.

    Exact elimination over sparse rows {column: int}.  The pivot is an entry
    of least magnitude.  Row operations clear its column; once the column is
    clear, column operations clear its row and touch the pivot row alone.  A
    nonzero remainder is smaller than the pivot and becomes the next pivot,
    so the loop ends.  Pairwise gcd/lcm turns the diagonal into the chain.
    """
    rows = [r for r in ({j: int(x) for j, x in enumerate(row) if x} for row in matrix) if r]
    diagonal = []
    while rows:
        top, j = min(((r, j) for r in rows for j in r), key=lambda rj: abs(rj[0][rj[1]]))
        p = top[j]
        for r in rows:
            if r is not top and j in r:
                q = r[j] // p
                for k, y in top.items():
                    v = r.get(k, 0) - q * y
                    if v:
                        r[k] = v
                    else:
                        r.pop(k, None)
        rows = [r for r in rows if r]
        if any(j in r for r in rows if r is not top):
            continue
        for k in [k for k in top if k != j]:
            top[k] %= p
            if not top[k]:
                del top[k]
        if len(top) == 1:
            diagonal.append(abs(p))
            rows = [r for r in rows if r is not top]
    for i in range(len(diagonal)):
        for k in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[k])
            diagonal[i], diagonal[k] = g, diagonal[i] * diagonal[k] // g
    return diagonal


def abelianization(presentation):
    """(free rank, nontrivial torsion divisors) of the presented group's
    abelianization, from the integer normal form of the relator exponents."""
    g = presentation.generator_count
    rows = []
    for rel in presentation.relators:
        row = [0] * g
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
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
    """Exact number of presentations with g <= ceil(cv) generators and a
    multiset of k <= ceil(cv) relators, each a nonempty word of length <= 3.

    Counts presentations, not isomorphism classes.
    """
    if c <= 0 or v < 1:
        raise PreconditionError("need c > 0 and v >= 1")
    bound = ceil(c * v)
    total = 0
    for g in range(bound + 1):
        w = word_count(g)
        for k in range(bound + 1):
            if w == 0:
                total += 1 if k == 0 else 0
            else:
                total += comb(w + k - 1, k)
    return total


def growth_profile(c, v_list):
    """log N(c, v) / (v log v) per v: the exponent profile whose flattening
    window certifies the v^{bv}-shaped growth."""
    out = []
    for v in v_list:
        n = count_presentations(c, v)
        ratio = log(n) / (v * log(v)) if v > 1 else float("nan")
        out.append({"v": v, "digits": len(str(n)), "ratio": ratio})
    return out
