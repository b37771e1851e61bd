import dataclasses
import itertools
import math
import random
import sys
from math import ceil, comb, gcd

from hypothesis import given, strategies as st
import numpy as np
import pytest

from latticelab import cli, hyperbolic, nerve, presets
from latticelab.errors import CapExceededError, PreconditionError
from latticelab.hyperboloid import h2_to_hyperboloid, hdistance, minkowski_form, \
    normalize_point, q_inner
from latticelab.wordballs import distances_h2


# Scalar minimax radii, one triangle at a time: the oracles for the batched
# `minimax_radii` of the metric contexts.

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
    v = [h2_to_hyperboloid(p.z) for p in points]
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


class EuclideanMetric:
    """The plane R^2 with points as arrays."""

    def lifts(self, ys, reach=None):
        return np.asarray(ys, float)

    def distances_to(self, xs, lifted):
        return np.linalg.norm(np.asarray(xs, float)[:, None] - lifted, axis=-1)

    def nearest_lifts(self, xs, lifted):
        return lifted

    def minimax_radii(self, xs, ys, zs):
        # The plane is the torus's cover: its minimax radii without the lifting.
        return nerve.TorusMetric().minimax_radii(xs, ys, zs)

    def minimax_radius(self, x, y, z):
        return _euclid_minimax([x, y, z])

    def ball_volume(self, r):
        return math.pi * r * r


def _distances(metric, x, ys):
    """Distances from x to each point of ys: the one-point `distances_to`."""
    return metric.distances_to([x], metric.lifts(ys))[0]


# -- eps nets -----------------------------------------------------------------

def test_torus_net_at_coarse_scale_packing_bounds():
    metric = nerve.TorusMetric()
    net = nerve.build_eps_net(presets.sample_torus(800), 0.6, metric)
    assert 2 <= len(net.centers) <= 4
    # Exhaustive grid check of separation and covering on a fine grid.
    for c1, c2 in itertools.combinations(net.centers, 2):
        assert _distances(metric, c1, [c2])[0] >= 0.6
    grid = [np.array([i / 40, j / 40]) for i in range(40) for j in range(40)]
    worst = max(_distances(metric, g, net.centers).min() for g in grid)
    assert worst <= 0.6 + 0.05   # cover up to one grid cell of slack


def test_tiny_region_single_center():
    metric = EuclideanMetric()
    pts = [np.array([0.01 * i, 0.0]) for i in range(10)]
    net = nerve.build_eps_net(pts, 0.5, metric)
    assert len(net.centers) == 1


def test_net_separation_exact_on_stream():
    metric = nerve.TorusMetric()
    pts = presets.sample_torus(500)
    net = nerve.build_eps_net(pts, 0.25, metric)
    for c1, c2 in itertools.combinations(net.centers, 2):
        assert _distances(metric, c1, [c2])[0] >= 0.25
    # Maximality on the stream: every sample is within eps of some center.
    for p in pts:
        assert _distances(metric, p, net.centers).min() < 0.25


def test_octagon_thick_part_net_respects_packing_bound(octagon_surface):
    group, metric = octagon_surface
    eps = 0.3
    pts = presets.default_region("octagon-genus2", 800)
    net = nerve.build_eps_net(pts, eps, metric)
    # Disjoint eps/2-disks fit inside the surface: area bound 4 pi over the
    # hyperbolic disk area 2 pi (cosh(eps/2) - 1).
    bound = 4 * math.pi / (2 * math.pi * (math.cosh(eps / 2) - 1))
    assert len(net.centers) <= bound


def _reference_net(points, eps, metric):
    """Greedy eps-net measured one (point, center) pair at a time."""
    centers = []
    for p in points:
        if all(_distances(metric, p, [c])[0] >= eps for c in centers):
            centers.append(p)
    return centers


def _lift_per_sample_net(points, eps, metric):
    """Greedy eps-net measuring each point against all centers at once,
    lifting every center again for every point."""
    centers = []
    for p in points:
        if not centers or _distances(metric, p, centers).min() >= eps:
            centers.append(p)
    return centers


def _reference_edges(centers, r, metric):
    """Nerve edges measured one pair at a time, in lexicographic order."""
    n = len(centers)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if _distances(metric, centers[i], [centers[j]])[0] < 2.0 * r]


@pytest.mark.parametrize("surface", [False, True], ids=["torus", "octagon"])
def test_net_and_edges_match_the_per_pair_reference(surface, request):
    if surface:
        metric = request.getfixturevalue("octagon_surface")[1]
        pts, eps = presets.default_region("octagon-genus2", 500), 0.5
    else:
        metric = nerve.TorusMetric()
        pts, eps = presets.sample_torus(1500), 0.2
    net = nerve.build_eps_net(pts, eps, metric)
    reference = _reference_net(pts, eps, metric)
    assert len(net.centers) == len(reference) > 3
    assert all(c is q for c, q in zip(net.centers, reference))
    relifted = _lift_per_sample_net(pts, eps, metric)
    assert len(relifted) == len(reference)
    assert all(c is q for c, q in zip(net.centers, relifted))
    r = 1.1 * eps
    assert nerve.nerve(net, r, metric).edges == _reference_edges(reference, r, metric)


def test_surface_distances_match_the_nearest_deck_translate(octagon_surface):
    _, metric = octagon_surface
    pts = presets.default_region("octagon-genus2", 48)
    xs, ys = pts[:8], pts[8:]
    for x in xs:
        expected = [min(hyperbolic.distance(x, g.apply(y)) for g in metric.deck) for y in ys]
        assert np.allclose(_distances(metric, x, ys), expected, rtol=0, atol=1e-12)


# The one-point loop, with each surface distance the least of the per-translate
# `distances_h2` values: the oracle for the blocked net, the blocked edge pass
# and the least-argument distance.

def _loop_distances(metric, x, lifted):
    if isinstance(metric, nerve.SurfaceMetric):
        return distances_h2(x.z, lifted).min(axis=1)
    d = np.asarray(x, float) - lifted
    return np.linalg.norm(d - np.round(d), axis=-1)


def _loop_net(points, eps, metric):
    centers, lifted = [], None
    for p in points:
        if not centers or _loop_distances(metric, p, lifted).min() >= eps:
            centers.append(p)
            new = metric.lifts([p])
            lifted = new if lifted is None else np.concatenate((lifted, new))
    return centers


def _loop_nerve(centers, r, metric):
    """Edges one center at a time; triangles with each vertex relifted."""
    lifted = metric.lifts(centers)
    n = len(centers)
    edges = [(i, j) for i in range(n - 1)
             for j in (np.flatnonzero(_loop_distances(metric, centers[i], lifted[i + 1:])
                                      < 2.0 * r) + i + 1).tolist()]

    def minimax(x, y, z):
        if not isinstance(metric, nerve.SurfaceMetric):
            return _euclid_minimax([x, y + np.round(x - y), z + np.round(x - z)])
        near = [hyperbolic.HPoint(complex(ts[int(np.argmin(distances_h2(x.z, ts)))]))
                for ts in metric.lifts([y, z])]
        return _h2_minimax([x] + near)

    adj = {i: {j for e in edges for j in e if i in e and j != i} for i in range(n)}
    triangles = [(i, j, k) for (i, j) in edges for k in sorted(adj[i] & adj[j])
                 if k > j and minimax(centers[i], centers[j], centers[k]) < r]
    return edges, sorted(triangles)


def _assert_matches_the_loop(points, eps, r, metric):
    net = nerve.build_eps_net(points, eps, metric)
    reference = _loop_net(points, eps, metric)
    assert len(net.centers) == len(reference) > 3
    assert all(c is q for c, q in zip(net.centers, reference))
    cx = nerve.nerve(net, r, metric)
    assert (cx.edges, cx.triangles) == _loop_nerve(reference, r, metric)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.25])
def test_blocked_torus_net_and_nerve_equal_the_loop(eps):
    shift = np.random.default_rng(int(eps * 100)).uniform(0.0, 1.0, size=2)
    points = list(np.mod(np.array(presets.sample_torus(2000)) + shift, 1.0))
    _assert_matches_the_loop(points, eps, min(1.1 * eps, 0.25), nerve.TorusMetric())


@pytest.fixture(scope="module", params=[1.1, 2.2], ids=["deck97", "deck345"])
def octagon_deck(request):
    rho = presets.octagon_circumradius()
    metric = nerve.SurfaceMetric(presets.octagon_genus2(), presets.octagon_center(),
                                 region_radius=rho, interaction_radius=request.param, slack=rho)
    assert len(metric.deck) == {1.1: 97, 2.2: 345}[request.param]
    return metric


@pytest.mark.parametrize("count, eps", [(1500, 0.5), (3000, 0.35), (8000, 0.25)])
def test_blocked_octagon_net_and_nerve_equal_the_loop(octagon_deck, count, eps):
    points = presets.default_region("octagon-genus2", count)
    _assert_matches_the_loop(points, eps, 1.1 * eps, octagon_deck)


def test_kept_lifts_decide_below_the_reach_as_the_full_rows(octagon_deck):
    # Under a reach of 0.5, each distance below it is the full row's float,
    # every other one stays at least 0.5, and the nearest lifts of pairs
    # within it are the full rows' nearest lifts.
    reach = 0.5
    pts = presets.default_region("octagon-genus2", 300)
    xs, ys = pts[:60], pts[60:]
    full, kept = octagon_deck.lifts(ys), octagon_deck.lifts(ys, reach)
    assert np.asarray(kept).size == kept.size < full.size // 10
    want, got = octagon_deck.distances_to(xs, full), octagon_deck.distances_to(xs, kept)
    below = want < reach
    assert below.sum() > 300
    assert np.array_equal(got[below], want[below]) and (got[~below] >= reach).all()
    i, j = np.nonzero(below)
    near = [xs[k] for k in i.tolist()]
    assert np.array_equal(octagon_deck.nearest_lifts(near, kept[j]),
                          octagon_deck.nearest_lifts(near, full[j]))
    # Rows selected and joined are the kept lifts of those points.
    joined = np.concatenate((kept[[2, 0]], kept[5:7]))
    again = octagon_deck.lifts([ys[2], ys[0], ys[5], ys[6]], reach)
    assert np.array_equal(joined.counts, again.counts)
    assert np.array_equal(np.asarray(joined), np.asarray(again))
    # A point beyond region_radius voids the certificate of the kept lifts.
    outside = hyperbolic.HPoint(0.0, math.exp(presets.octagon_circumradius() + 0.01))
    for measure in (octagon_deck.distances_to, octagon_deck.nearest_lifts):
        with pytest.raises(PreconditionError, match="region_radius"):
            measure([outside], kept[:1])


# The net's longest torus block: a point lifts to 2 entries, and the survivor
# matrix of a block of b points holds b * b * 2 of them.
TORUS_BLOCK = math.isqrt(nerve._NET_ENTRIES // 2)


def test_a_center_kept_mid_block_rejects_a_later_sample_of_its_block():
    metric = nerve.TorusMetric()
    block = TORUS_BLOCK
    first = [np.array([0.01 * (i % 5), 0.0]) for i in range(block)]
    q1, q2 = np.array([0.5, 0.5]), np.array([0.5, 0.53])
    second = [np.array([0.0, 0.02]) for _ in range(block)]
    second[block // 3], second[2 * block // 3] = q1, q2
    points = first + second
    assert _distances(metric, q2, [first[0]])[0] >= 0.1 > _distances(metric, q2, [q1])[0]
    net = nerve.build_eps_net(points, 0.1, metric)
    assert [id(c) for c in net.centers] == [id(first[0]), id(q1)]
    assert [id(c) for c in _loop_net(points, 0.1, metric)] == [id(first[0]), id(q1)]


def test_a_survivor_rejected_in_its_block_rejects_no_later_survivor():
    # One block, all survivors: a is kept, b lies within eps of a only, c
    # within eps of b only, d within eps of c only.  The walk keeps a, c and
    # skips b and d: only kept survivors reject.
    metric = nerve.TorusMetric()
    a, b, c, d = (np.array([0.1 + 0.07 * i, 0.3]) for i in range(4))
    points = [a, b, c, d]
    assert _distances(metric, c, [a])[0] >= 0.1 > _distances(metric, c, [b])[0]
    net = nerve.build_eps_net(points, 0.1, metric)
    assert [id(p) for p in net.centers] == [id(a), id(c)]
    assert [id(p) for p in _loop_net(points, 0.1, metric)] == [id(a), id(c)]


def test_net_and_nerve_calls_stay_within_the_entry_budget(monkeypatch):
    # Every `distances_to` call builds (rows, lifted.size) entries: per
    # coordinate on the torus, (rows, centres, translates) on the surface.
    rho = presets.octagon_circumradius()
    octagon = nerve.SurfaceMetric(presets.octagon_genus2(), presets.octagon_center(),
                                  region_radius=rho, interaction_radius=1.1, slack=rho)
    assert len(octagon.deck) == 97
    runs = [(nerve.TorusMetric(), presets.sample_torus(2000), 0.05, 0.055),
            (octagon, presets.default_region("octagon-genus2", 1500), 0.5, 0.55)]
    for metric, points, eps, r in runs:
        sizes, measure = [], metric.distances_to

        def recording(xs, lifted):
            sizes.append(len(xs) * np.asarray(lifted).size)
            return measure(xs, lifted)

        monkeypatch.setattr(metric, "distances_to", recording)
        net = nerve.build_eps_net(points, eps, metric)
        nerve.nerve(net, r, metric)
        assert len(net.centers) > 3 and len(sizes) > 10
        assert max(sizes) <= nerve._NET_ENTRIES


@pytest.mark.parametrize("cap", [5, 40, 150])
def test_net_cap_fires_at_the_loop_center_count(cap, monkeypatch):
    metric = nerve.TorusMetric()
    points = presets.sample_torus(2000)
    reference = _loop_net(points, 0.05, metric)
    consumed = next(i for i, p in enumerate(points) if p is reference[cap]) + 1
    assert consumed % TORUS_BLOCK      # crossed in the middle of a block
    monkeypatch.setattr(nerve, "_NET_CAP", cap)
    with pytest.raises(CapExceededError) as info:
        nerve.build_eps_net(points, 0.05, metric)
    assert len(info.value.entries) == cap + 1
    assert all(c is q for c, q in zip(info.value.entries, reference))
    message = str(info.value)
    assert "after %d of 2000 samples" % consumed in message
    assert "--epsilon" in message and "--samples" in message


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_torus_distances_equal_the_norm_of_the_offsets(dim):
    rng = np.random.default_rng(35 + dim)
    metric = nerve.TorusMetric()

    def norm_form(xs, lifted):
        d = np.asarray(xs, float)[:, None] - lifted
        return np.linalg.norm(d - np.round(d), axis=-1)

    xs = list(rng.uniform(0.0, 1.0, (300, dim)))
    lifted = rng.uniform(-3.0, 3.0, (40, dim))
    # Offsets at exact half-integers, where np.round ties to even.
    halves = np.array(xs[:20]) + rng.integers(-3, 4, (20, dim)) + 0.5
    for ys in (lifted, halves, lifted[:0]):
        got = metric.distances_to(xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert np.array_equal(got, norm_form(xs, ys))


# The surface distance takes one arccosh of the least cosh-argument, which is
# the least per-translate distance bit for bit only if np.arccosh is
# non-decreasing, and gives the same bits for an entry wherever it sits in a
# contiguous or (positively) strided array.  A reversed view takes another
# loop and differs in the last bit, as does `math.acosh` on 6 to 35 of 100
# doubles sampled near these cosh(eps) (numpy 2.4.6, AVX-512 dispatch): no
# decision may mix either with the array arccosh.
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.1, 2.2])
def test_arccosh_is_non_decreasing_around_cosh_eps(eps):
    bits = np.float64(math.cosh(eps)).view(np.int64) + np.arange(-10**6, 10**6)
    args = bits.view(np.float64)
    values = np.arccosh(args)
    assert np.all(np.diff(values) >= 0)
    assert np.array_equal(values[::3], np.arccosh(args[::3]))
    assert np.array_equal(values[5:5000:97], np.arccosh(args[5:5000:97].copy()))


# -- nerve construction ----------------------------------------------------------

def test_three_points_triangle_via_circumradius():
    metric = EuclideanMetric()
    r = 1.0
    side = 1.5 * r
    pts = [np.array([0.0, 0.0]), np.array([side, 0.0]),
           np.array([side / 2, side * math.sqrt(3) / 2])]
    net = nerve.EpsNet(centers=pts, eps=side)
    cx = nerve.nerve(net, r, metric)
    assert len(cx.edges) == 3
    # Equilateral: circumradius = side / sqrt(3) < r, so the triple is filled.
    assert abs(metric.minimax_radius(*pts) - side / math.sqrt(3)) < 1e-12
    assert len(cx.triangles) == 1
    # Shrink the balls below the circumradius: edges survive, triangle dies.
    cx2 = nerve.nerve(net, side / math.sqrt(3) - 1e-9, metric)
    assert len(cx2.triangles) == 0


def test_two_far_points_no_edges():
    metric = EuclideanMetric()
    net = nerve.EpsNet(centers=[np.zeros(2), np.array([10.0, 0.0])], eps=1.0)
    cx = nerve.nerve(net, 1.0, metric)
    assert not cx.edges


@pytest.mark.parametrize("surface", [False, True], ids=["torus", "octagon"])
def test_nerve_without_edges(surface, request):
    if surface:
        metric = request.getfixturevalue("octagon_surface")[1]
        points = presets.default_region("octagon-genus2", 2)
    else:
        metric, points = nerve.TorusMetric(), [np.array([0.1, 0.1]), np.array([0.6, 0.6])]
    assert _distances(metric, points[0], points[1:])[0] >= 0.2
    for centers in ([], points[:1], points):
        cx = nerve.nerve(nerve.EpsNet(centers=centers, eps=0.1), 0.1, metric)
        assert (cx.vertex_count, cx.edges, cx.triangles, cx.max_degree) == (len(centers), [], [], 0)


def test_hyperbolic_minimax_agrees_with_known_midpoint():
    from latticelab.hyperbolic import HPoint, distance
    p1, p2 = HPoint(0, 1), HPoint(0, 4)
    p3 = HPoint(0, 2)   # on the geodesic between them
    r = _h2_minimax([p1, p2, p3])
    assert abs(r - distance(p1, p2) / 2) < 1e-10


def test_torus_minimax_handles_wraparound():
    metric = nerve.TorusMetric()
    pts = [np.array([0.05, 0.5]), np.array([0.95, 0.5]), np.array([0.0, 0.6])]
    r = metric.minimax_radius(*pts)
    assert r < 0.12   # the three points cluster around (0, 0.55) mod 1


# Brute-force reference: every lift of y and z within two periods.
LIFT_SHELL = np.array([[i, j] for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
torus_point = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(np.array)


@given(torus_point, torus_point, torus_point)
def test_torus_nearest_lifts_match_the_lift_shell(x, y, z):
    metric = nerve.TorusMetric()
    assert _distances(metric, x, [y])[0] == np.min(np.linalg.norm(x - y + LIFT_SHELL, axis=1))
    ys = np.array([y, z])
    assert _distances(metric, x, ys).tolist() == [
        np.min(np.linalg.norm(x - w + LIFT_SHELL, axis=1)) for w in ys]
    u, v = np.repeat(LIFT_SHELL, len(LIFT_SHELL), axis=0), np.tile(LIFT_SHELL, (len(LIFT_SHELL), 1))
    shell = metric.minimax_radii([x] * len(u), y + u, z + v).min()
    r = metric.minimax_radius(x, y, z)
    assert r >= shell
    if min(r, shell) < 0.25:
        assert r == shell
    assert abs(r - _euclid_minimax([x, y + np.round(x - y), z + np.round(x - z)])) <= 1e-12


# Seeded triples of every shape the midpoint test meets: generic, right-angled
# (the third vertex on the midpoint circle), obtuse, collinear, coincident.
# Radii are decided against the nerve radii 1.1 eps of the tests and the CLI.
NERVE_RADII = (0.055, 0.11, 0.165, 0.22, 0.25, 0.385, 0.55, 0.605)


def _torus_triples(rng):
    """Triples at six seeded points x: generic, right-angled at x (legs along
    the orthogonal e and f), obtuse at x, collinear, all three coincident, and
    x = z."""
    x = rng.uniform(0.0, 1.0, size=(6, 2))
    c, s = np.cos(rng.uniform(0, 2 * math.pi, 6)), np.sin(rng.uniform(0, 2 * math.pi, 6))
    a, b = rng.uniform(0.0, 0.2, 6)[:, None], rng.uniform(0.0, 0.2, 6)[:, None]
    e, f = np.column_stack((c, s)), np.column_stack((-s, c))
    ys = [x + rng.normal(0, 0.1, (6, 2)), x + a * e, x + a * e, x + a * e, x, x + a * e]
    zs = [x + rng.normal(0, 0.1, (6, 2)), x + b * f, x - b * e + 0.3 * b * f, x + 0.5 * a * e,
          x, x]
    return [(x, y, z) for y, z in zip(ys, zs)]


def test_torus_minimax_radii_match_the_scalar_oracle():
    metric, rng = nerve.TorusMetric(), np.random.default_rng(28)
    for _ in range(40):
        for x, y, z in _torus_triples(rng):
            y, z = np.mod(y, 1.0), np.mod(z, 1.0)
            radii = metric.minimax_radii(x, metric.nearest_lifts(x, y), metric.nearest_lifts(x, z))
            oracle = np.array([_euclid_minimax([a, b + np.round(a - b), c + np.round(a - c)])
                               for a, b, c in zip(x, y, z)])
            assert np.all(np.abs(radii - oracle) <= 1e-12)
            for r in NERVE_RADII:
                assert np.array_equal(radii < r, oracle < r)
            assert [metric.minimax_radius(*t) for t in zip(x, y, z)] == radii.tolist()


def _h2_triples(rng):
    """Half-plane triples about i: generic, right-angled at i (the imaginary
    axis meets the unit circle at right angles), obtuse at i, collinear on the
    imaginary axis, and coincident."""
    z = rng.uniform(-0.6, 0.6, 6) + 1j * np.exp(rng.uniform(-0.6, 0.6, 6))
    up, down = 1j * np.exp(rng.uniform(0.05, 0.8, 6)), 1j * np.exp(-rng.uniform(0.05, 0.8, 6))
    circle = np.exp(1j * rng.uniform(0.8, math.pi - 0.8, 6))
    return [(z, z[::-1] + 0.3, z + 0.2j), (np.full(6, 1j), up, circle),
            (np.full(6, 1j), up, down + 0.2), (up, down, np.full(6, 1j)),
            (z, z, z), (z, z, up)]


def test_surface_minimax_radii_match_the_scalar_oracle(octagon_surface):
    _, metric = octagon_surface
    rng = np.random.default_rng(28)
    for _ in range(40):
        for x, y, z in _h2_triples(rng):
            xs = [hyperbolic.HPoint(complex(w)) for w in x]
            radii = metric.minimax_radii(xs, y, z)
            oracle = np.array([_h2_minimax([a, hyperbolic.HPoint(complex(b)),
                                            hyperbolic.HPoint(complex(c))])
                               for a, b, c in zip(xs, y, z)])
            assert np.all(np.abs(radii - oracle) <= 1e-12)
            for r in NERVE_RADII:
                assert np.array_equal(radii < r, oracle < r)


def test_torus_presentation_cli_rejects_radius_above_a_quarter(capsys):
    for flags in (["--epsilon", "0.3"], ["--radius", "0.26"]):
        assert cli.main(["presentation", "--preset", "torus"] + flags) == 2
        err = capsys.readouterr().err
        assert "--radius" in err and "--epsilon" in err


def test_nerve_reports_degree_statistics():
    metric = nerve.TorusMetric()
    net = nerve.build_eps_net(presets.sample_torus(1000), 0.2, metric)
    cx = nerve.nerve(net, 0.22, metric)
    assert cx.max_degree >= 1
    assert cx.degree_bound_formula == pytest.approx(
        metric.ball_volume(0.5) / metric.ball_volume(0.1))


# -- presentations ------------------------------------------------------------------

def _graph_complex(vertices, edges, triangles):
    return nerve.NerveComplex(vertex_count=vertices, edges=edges, triangles=triangles)


def test_triangle_graph_presentation_free_rank_one():
    cx = _graph_complex(3, [(0, 1), (1, 2), (0, 2)], [])
    pres = nerve.presentation_from_nerve(cx)
    assert pres.generator_count == 1
    assert pres.relators == []
    assert nerve.abelianization(pres) == (1, [])


def test_filled_triangle_presentation_trivial_group():
    cx = _graph_complex(3, [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)])
    pres = nerve.presentation_from_nerve(cx)
    assert pres.generator_count == 1
    assert len(pres.relators) == 1
    assert len(pres.relators[0]) == 1
    assert nerve.abelianization(pres) == (0, [])


def test_disconnected_complex_rejected():
    cx = _graph_complex(4, [(0, 1), (2, 3)], [])
    with pytest.raises(PreconditionError):
        nerve.presentation_from_nerve(cx)


def test_torus_nerve_presentation_rank_two():
    metric = nerve.TorusMetric()
    for eps in (0.25, 0.2, 0.15):
        pts = presets.sample_torus(2500)
        net = nerve.build_eps_net(pts, eps, metric)
        cx = nerve.nerve(net, min(1.1 * eps, 0.25), metric)
        pres = nerve.presentation_from_nerve(cx)
        assert pres.max_relator_length() <= 3
        assert pres.generator_count == len(cx.edges) - net_size(net) + 1
        rank, torsion = nerve.abelianization(pres)
        assert (rank, torsion) == (2, [])


def net_size(net):
    return len(net.centers)


def test_octagon_nerve_presentation_rank_four(octagon_surface):
    group, metric = octagon_surface
    pts = presets.default_region("octagon-genus2", 1500)
    net = nerve.build_eps_net(pts, 0.5, metric)
    cx = nerve.nerve(net, 0.55, metric)
    pres = nerve.presentation_from_nerve(cx)
    assert pres.max_relator_length() <= 3
    rank, torsion = nerve.abelianization(pres)
    assert rank == 4
    assert torsion == []


def test_presentation_invariant_under_spanning_tree_choice():
    metric = nerve.TorusMetric()
    pts = presets.sample_torus(1500)
    net = nerve.build_eps_net(pts, 0.2, metric)
    cx = nerve.nerve(net, 0.22, metric)
    rng = np.random.default_rng(20)
    results = set()
    for _ in range(10):
        order = rng.permutation(len(cx.edges))
        shuffled = dataclasses.replace(cx, edges=[cx.edges[i] for i in order])
        pres = nerve.presentation_from_nerve(shuffled)
        rank, torsion = nerve.abelianization(pres)
        results.add((rank, tuple(torsion), pres.generator_count))
    assert len(results) == 1
    assert next(iter(results))[:2] == (2, ())


def test_euler_identity_consistent():
    metric = nerve.TorusMetric()
    net = nerve.build_eps_net(presets.sample_torus(1200), 0.22, metric)
    cx = nerve.nerve(net, 0.242, metric)
    pres = nerve.presentation_from_nerve(cx)
    v, e, t = cx.vertex_count, len(cx.edges), len(cx.triangles)
    assert pres.generator_count - len(pres.relators) == 1 - (v - e + t)


# -- abelianization -------------------------------------------------------------------

def _pres(gens, relators):
    return nerve.Presentation(generator_count=gens, relators=relators, tree_edges=[])


def test_abelianization_z2():
    assert nerve.abelianization(_pres(2, [(1, 2, -1, -2)])) == (2, [])


def test_abelianization_genus2_relator():
    rel = (1, 2, -1, -2, 3, 4, -3, -4)
    assert nerve.abelianization(_pres(4, [rel])) == (4, [])


def test_abelianization_cyclic_torsion():
    assert nerve.abelianization(_pres(1, [(1, 1, 1)])) == (0, [3])


def test_smith_normal_form_known_cases():
    assert nerve.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert nerve.smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert nerve.smith_normal_form([[0, 0], [0, 0]]) == []
    assert nerve.smith_normal_form([[6]]) == [6]
    assert nerve.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_normal_form_divisibility_chain_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rng.integers(-9, 10, size=(rng.integers(1, 5), rng.integers(1, 5)))
        divisors = nerve.smith_normal_form(m.tolist())
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        # Rank agrees with the float rank.
        assert len(divisors) == np.linalg.matrix_rank(m.astype(float))


def _leibniz_det(m):
    """Exact integer determinant as the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def _determinantal_divisors(m):
    """Invariant factors d_k = D_k / D_(k-1), where D_k = d_1 ... d_k is the
    gcd of the k x k minors; they stop at the rank, where D_k turns 0."""
    rows, cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                dk = math.gcd(dk, _leibniz_det([[m[r][c] for c in cs] for r in rs]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(22)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([3, 12, 10**12])
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        divisors = nerve.smith_normal_form(m)
        assert divisors == _determinantal_divisors(m)
        assert all(type(d) is int for d in divisors)
    big = [[10**20, 3], [7, 10**19]]
    assert nerve.smith_normal_form(big) == _determinantal_divisors(big) == [1, 10**39 - 21]


# The elimination before the column index, kept as an oracle: the pivot is
# found by a scan of every entry, and each column is cleared by a scan of
# every row.

def _loop_smith_normal_form(matrix):
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
    return _pairwise_chain(diagonal)


def _pairwise_chain(diagonal):
    """The divisibility chain of a positive diagonal by pairwise gcd/lcm over
    every pair, units included."""
    diagonal = list(diagonal)
    for i in range(len(diagonal)):
        for k in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[k])
            diagonal[i], diagonal[k] = g, diagonal[i] * diagonal[k] // g
    return diagonal


@pytest.mark.parametrize("kind", ["all ones", "no ones", "mixed"])
def test_smith_chain_of_a_diagonal_matches_the_pairwise_pass(kind):
    rng = random.Random(35)
    cases = {"mixed": [[2, 1, 4, 1, 6, 9], [1, 12, 1, 1, 18, 1, 8], [1, 1, 1, 5]]}
    for _ in range(60):
        n = rng.randint(1, 9)
        if kind == "all ones":
            d = [1] * n
        elif kind == "no ones":
            d = [rng.choice([2, 3, 4, 6, 9, 10, 12, 35, 10**12]) for _ in range(n)]
        else:
            d = [rng.choice([1, 1, 1, 2, 3, 4, 6, 9, 10**9 + 7]) for _ in range(n)]
        cases.setdefault(kind, []).append(d)
    for d in cases[kind]:
        m = [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]
        assert nerve.smith_normal_form(m) == _pairwise_chain(d)


def _dict_rows(matrix):
    return [{j: x for j, x in enumerate(row)} for row in matrix]


def test_smith_normal_form_matches_the_scan_elimination():
    rng = random.Random(28)
    for _ in range(400):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        bound = rng.choice([1, 2, 9, 10**6])
        m = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        divisors = nerve.smith_normal_form(m)
        assert divisors == _loop_smith_normal_form(m) == nerve.smith_normal_form(_dict_rows(m))
        if rows <= 4 and cols <= 4:
            assert divisors == _determinantal_divisors(m)


def _rank_mod_prime(m, p=2**31 - 1):
    """Rank of an integer matrix over GF(p), by dense row reduction."""
    a = np.array(m, dtype=np.int64).reshape(len(m), -1) % p
    rank = 0
    for c in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, c])
        if not len(nonzero):
            continue
        a[[rank, rank + nonzero[0]]] = a[[rank + nonzero[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        below = a[rank + 1:, c:c + 1]
        a[rank + 1:] = (a[rank + 1:] - below * a[rank] % p) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _relator_matrix(pres):
    m = [[0] * pres.generator_count for _ in pres.relators]
    for row, rel in zip(m, pres.relators):
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
    return m


def _nerve_presentation(points, eps, r, metric):
    return nerve.presentation_from_nerve(
        nerve.nerve(nerve.build_eps_net(points, eps, metric), r, metric))


@pytest.mark.parametrize("surface, count, eps", [
    (False, 4000, 0.05), (False, 4000, 0.1), (False, 4000, 0.2), (False, 4000, 0.25),
    (True, 1500, 0.5), (True, 8000, 0.25)])
def test_smith_normal_form_of_nerve_matrices(surface, count, eps, request):
    if surface:
        metric = request.getfixturevalue("octagon_surface")[1]
        pres = _nerve_presentation(presets.default_region("octagon-genus2", count), eps,
                                   1.1 * eps, metric)
    else:
        pres = _nerve_presentation(presets.sample_torus(count), eps, min(1.1 * eps, 0.25),
                                   nerve.TorusMetric())
    m = _relator_matrix(pres)
    divisors = nerve.smith_normal_form(m)
    assert divisors == _loop_smith_normal_form(m)
    rank, torsion = nerve.abelianization(pres)
    assert (rank, torsion) == (pres.generator_count - len(divisors), [d for d in divisors if d > 1])
    assert rank == pres.generator_count - _rank_mod_prime(m)
    if surface:
        assert (rank, torsion) == (4, [])


# -- counting -----------------------------------------------------------------------

def exhaustive_micro_count():
    """Direct enumeration of the v = 1 case: g <= 1 generators, k <= 1
    relators, relators nonempty words of length <= 3 over 2g letters,
    multisets (here: single relators) counted once."""
    total = 0
    for g in (0, 1):
        letters = [chr(ord("a") + i) for i in range(g)] + \
                  [chr(ord("A") + i) for i in range(g)]
        words = [w for length in (1, 2, 3)
                 for w in itertools.product(letters, repeat=length)]
        for k in (0, 1):
            if k == 0:
                total += 1
            else:
                total += len(set(itertools.combinations_with_replacement(words, k)))
    return total


def test_count_presentations_micro_case_matches_enumeration():
    assert nerve.count_presentations(1, 1) == exhaustive_micro_count() == 16


def test_count_presentations_zero_generators_trivial_only():
    # Only g = 0 contributes when the bound is 0... bound >= 1 by contract,
    # so check the g = 0 slice through word_count instead.
    assert nerve.word_count(0) == 0
    assert nerve.count_presentations(0.2, 1) == 16  # ceil(0.2) = 1: same micro case


def test_count_presentations_formula_vs_direct_multiset_count():
    # Independent check at v = 2: multisets of size k from W words.
    w1, w2 = nerve.word_count(1), nerve.word_count(2)
    expected = 0
    for g, w in ((0, 0), (1, w1), (2, w2)):
        for k in (0, 1, 2):
            if w == 0:
                expected += 1 if k == 0 else 0
            else:
                expected += comb(w + k - 1, k)
    assert nerve.count_presentations(1, 2) == expected


def test_growth_profile_window_and_drift():
    prof = nerve.growth_profile(1, [4, 8, 16, 32])
    ratios = [row["ratio"] for row in prof]
    assert all(2.5 <= r <= 4.5 for r in ratios)
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b - a) / a < 0.20


def _loop_count_presentations(c, v):
    """Exact number of presentations with g <= ceil(cv) generators and a
    multiset of k <= ceil(cv) relators, each a nonempty word of length <= 3.

    Counts presentations, not isomorphism classes.
    """
    if c <= 0 or v < 1:
        raise PreconditionError("need c > 0 and v >= 1")
    bound = ceil(c * v)
    total = 0
    for g in range(bound + 1):
        w = nerve.word_count(g)
        for k in range(bound + 1):
            if w == 0:
                total += 1 if k == 0 else 0
            else:
                total += comb(w + k - 1, k)
    return total



@pytest.mark.parametrize("c", [0.2, 0.5, 1, 1.3, 2])
def test_count_presentations_matches_the_double_loop(c):
    for v in range(1, 41):
        assert nerve.count_presentations(c, v) == _loop_count_presentations(c, v)


def _str_digits(n):
    """len(str(n)) with Python's integer-string limit lifted for the call."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return len(str(n))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_decimal_digits_at_powers_of_ten_and_two():
    for k in list(range(1, 40)) + [299, 4299, 4300, 4301, 4306, 9999]:
        assert nerve.decimal_digits(10**k - 1) == k
        assert nerve.decimal_digits(10**k) == nerve.decimal_digits(10**k + 1) == k + 1
    for b in list(range(1, 200)) + [14300, 14301, 33219]:
        for n in (2**b - 1, 2**b, 2**b + 1):
            assert nerve.decimal_digits(n) == _str_digits(n)


@pytest.mark.parametrize("c, v", [(1, 622), (2, 311)])
def test_growth_profile_counts_digits_past_the_str_limit(c, v):
    (row,) = nerve.growth_profile(c, [v])
    assert row["digits"] == _str_digits(nerve.count_presentations(c, v)) == 4306
