"""Epsilon-nets, ball-cover nerves, and presentations with short relators.

The nerve of a cover by convex balls is homotopy equivalent to the region it
covers, so its 2-skeleton carries the fundamental group: generators are the
edges outside a spanning tree, and each triangle contributes one relator of
length at most 3 (tree edges read as the empty letter).  Abelianization via
integer normal form is the verification oracle downstream.

Metric contexts make the same construction run on the flat torus and on
closed hyperbolic surfaces presented as quotients.  Both measure distance and
minimax radius through nearest lifts (on the torus y + round(x - y), on a
surface the nearest of a precomputed set of deck translates).  H^2 triangles
are solved in the hyperboloid model with the helpers of `hyperboloid`.
"""

from dataclasses import dataclass
from math import ceil, comb, cosh, log, pi

import numpy as np

from .errors import CapExceededError, PreconditionError
from .hyperbolic import HPoint
from .hyperboloid import (h2_point_to_hyperboloid, hdistance, minkowski_form, normalize_point,
                          q_inner)
from .wordballs import displacement_pruned_ball, distances_h2, moebius_apply_h2, stack_moebius


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
    of Z^n is the unit cube, so `distance` is exact at every scale.  A
    minimax radius below 1/4 is exact too: lifts that fit in a ball of
    radius r < 1/4 lie within 1/2 of x, hence are the nearest ones.  Above
    1/4 the value is only an upper bound, so nerves need r <= 1/4.
    """

    def distance(self, x, y):
        d = np.asarray(x, float) - np.asarray(y, float)
        return float(np.linalg.norm(d - np.round(d), axis=-1))

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
    such pairs.
    """

    def __init__(self, group, base, region_radius, interaction_radius, slack=None):
        keep = 2.0 * region_radius + interaction_radius + 0.1
        self.deck = displacement_pruned_ball(group, base, keep, slack=slack)
        self._abcd = stack_moebius(self.deck)

    def _lifts(self, x, y):
        """Deck translates of y and their distances to x."""
        ts = moebius_apply_h2(self._abcd, y.z)
        return ts, distances_h2(x.z, ts)

    def distance(self, x, y):
        return float(np.min(self._lifts(x, y)[1]))

    def nearest_lift(self, x, y):
        """The deck translate of y nearest to x (unique when the relevant
        distances stay below half the systole)."""
        ts, ds = self._lifts(x, y)
        return HPoint(complex(ts[int(np.argmin(ds))]))

    def minimax_radius(self, x, y, z):
        return _h2_minimax([x, self.nearest_lift(x, y), self.nearest_lift(x, z)])

    def ball_volume(self, r):
        return 2 * pi * (cosh(r) - 1)


# -- epsilon nets -------------------------------------------------------------

@dataclass
class EpsNet:
    centers: list
    eps: float


# Most centers an eps-net may hold.
_NET_CAP = 10**4


def build_eps_net(points, eps, metric):
    """Greedy insertion: keep a point iff it is >= eps from every center.

    The result is eps-separated and, relative to the sampled stream, maximal
    (every rejected point certifies its own eps-cover)."""
    if eps <= 0:
        raise PreconditionError("epsilon must be positive, got %g" % eps)
    centers = []
    for p in points:
        if all(metric.distance(p, c) >= eps for c in centers):
            centers.append(p)
            if len(centers) > _NET_CAP:
                raise CapExceededError("eps-net exceeded %d centers" % _NET_CAP)
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
    edges = []
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if metric.distance(cs[i], cs[j]) < 2.0 * r:
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
                if metric.minimax_radius(cs[i], cs[j], cs[k]) < r:
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


def presentation_from_nerve(complex_, edge_order=None):
    """Fundamental-group presentation of the 2-skeleton.

    Spanning-tree edges carry the empty letter; each remaining edge is a
    generator; each triangle spells its boundary word, so every relator has
    length at most 3 and the generator count is E - V + 1.
    """
    n = complex_.vertex_count
    edges = list(complex_.edges)
    if edge_order is not None:
        edges = [edges[i] for i in edge_order]
    adj = {}
    for (i, j) in edges:
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
    """Diagonal divisors d_1 | d_2 | ... of an integer matrix.

    Runs on int64 until entries threaten the word size, then escalates to
    exact python integers; smallest-magnitude pivoting keeps that rare.
    """
    rows = [list(map(int, row)) for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return []
    if max((abs(x) for row in rows for x in row), default=0) < 2**31:
        a = np.array(rows, dtype=np.int64)
    else:
        a = np.array(rows, dtype=object)

    def submatrix_nonzero(t):
        sub = a[t:, t:]
        idx = np.argwhere(sub != 0)
        return idx + t if idx.size else None

    t = 0
    size = min(m, n)
    while t < size:
        if a.dtype != object and int(np.abs(a).max()) > 2**31:
            a = a.astype(object)
        idx = submatrix_nonzero(t)
        if idx is None:
            break
        # Smallest magnitude pivot keeps the arithmetic small.
        best = min(idx.tolist(), key=lambda ij: abs(a[ij[0], ij[1]]))
        i, j = best
        a[[t, i], :] = a[[i, t], :]
        a[:, [t, j]] = a[:, [j, t]]
        while True:
            if a.dtype != object and int(np.abs(a).max()) > 2**31:
                a = a.astype(object)
            pivot = a[t, t]
            if pivot < 0:
                a[t, :] = -a[t, :]
                pivot = -pivot
            col = a[t + 1:, t]
            row = a[t, t + 1:]
            if np.any(col != 0):
                q = col // pivot
                a[t + 1:, :] -= np.outer(q, a[t, :])
                rem = a[t + 1:, t]
                if np.any(rem != 0):
                    i2 = t + 1 + int(np.argmax(rem != 0))
                    a[[t, i2], :] = a[[i2, t], :]
                    continue
            if np.any(row != 0):
                q = row // pivot
                a[:, t + 1:] -= np.outer(a[:, t], q)
                rem = a[t, t + 1:]
                if np.any(rem != 0):
                    j2 = t + 1 + int(np.argmax(rem != 0))
                    a[:, [t, j2]] = a[:, [j2, t]]
                    continue
            # Pivot must divide the rest of the submatrix.
            sub = a[t + 1:, t + 1:]
            bad = np.argwhere(sub % pivot != 0) if sub.size else np.empty((0, 2), int)
            if bad.size:
                i3 = t + 1 + int(bad[0][0])
                a[t, :] += a[i3, :]
                continue
            break
        t += 1
    divisors = [int(abs(a[i, i])) for i in range(size)]
    return [d for d in divisors if d != 0]


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
    if not rows or g == 0:
        return g, []
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
