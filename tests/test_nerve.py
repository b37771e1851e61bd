import dataclasses
import itertools
import math
import random
from math import comb

from hypothesis import given, strategies as st
import numpy as np
import pytest

from latticelab import cli, hyperbolic, nerve, presets
from latticelab.errors import CapExceededError, PreconditionError
from latticelab.wordballs import distances_h2


class EuclideanMetric:
    """The plane R^2 with points as arrays."""

    def lifts(self, ys):
        return np.asarray(ys, float)

    def distances_to(self, xs, lifted):
        return np.linalg.norm(np.asarray(xs, float)[:, None] - lifted, axis=-1)

    def minimax_radius(self, x, y, z):
        return nerve._euclid_minimax([x, y, z])

    def ball_volume(self, r):
        return math.pi * r * r


# -- eps nets -----------------------------------------------------------------

def test_torus_net_at_coarse_scale_packing_bounds():
    metric = nerve.TorusMetric()
    net = nerve.build_eps_net(presets.sample_torus(800), 0.6, metric)
    assert 2 <= len(net.centers) <= 4
    # Exhaustive grid check of separation and covering on a fine grid.
    for c1, c2 in itertools.combinations(net.centers, 2):
        assert metric.distances(c1, [c2])[0] >= 0.6
    grid = [np.array([i / 40, j / 40]) for i in range(40) for j in range(40)]
    worst = max(metric.distances(g, net.centers).min() for g in grid)
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
        assert metric.distances(c1, [c2])[0] >= 0.25
    # Maximality on the stream: every sample is within eps of some center.
    for p in pts:
        assert metric.distances(p, net.centers).min() < 0.25


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
        if all(metric.distances(p, [c])[0] >= eps for c in centers):
            centers.append(p)
    return centers


def _lift_per_sample_net(points, eps, metric):
    """Greedy eps-net measuring each point against all centers at once,
    lifting every center again for every point."""
    centers = []
    for p in points:
        if not centers or metric.distances(p, centers).min() >= eps:
            centers.append(p)
    return centers


def _reference_edges(centers, r, metric):
    """Nerve edges measured one pair at a time, in lexicographic order."""
    n = len(centers)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if metric.distances(centers[i], [centers[j]])[0] < 2.0 * r]


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
        assert np.allclose(metric.distances(x, ys), expected, rtol=0, atol=1e-12)


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
            return metric.minimax_radius(x, y, z)
        near = [hyperbolic.HPoint(complex(ts[int(np.argmin(distances_h2(x.z, ts)))]))
                for ts in metric.lifts([y, z])]
        return nerve._h2_minimax([x] + near)

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


def test_a_center_kept_mid_block_rejects_a_later_sample_of_its_block():
    metric = nerve.TorusMetric()
    block = nerve._NET_BLOCK
    first = [np.array([0.01 * (i % 5), 0.0]) for i in range(block)]
    q1, q2 = np.array([0.5, 0.5]), np.array([0.5, 0.53])
    second = [np.array([0.0, 0.02]) for _ in range(block)]
    second[block // 3], second[2 * block // 3] = q1, q2
    points = first + second
    assert metric.distances(q2, [first[0]])[0] >= 0.1 > metric.distances(q2, [q1])[0]
    net = nerve.build_eps_net(points, 0.1, metric)
    assert [id(c) for c in net.centers] == [id(first[0]), id(q1)]
    assert [id(c) for c in _loop_net(points, 0.1, metric)] == [id(first[0]), id(q1)]


@pytest.mark.parametrize("cap", [5, 40, 150])
def test_net_cap_fires_at_the_loop_center_count(cap, monkeypatch):
    metric = nerve.TorusMetric()
    points = presets.sample_torus(2000)
    reference = _loop_net(points, 0.05, metric)
    consumed = next(i for i, p in enumerate(points) if p is reference[cap]) + 1
    assert consumed % nerve._NET_BLOCK      # crossed in the middle of a block
    monkeypatch.setattr(nerve, "_NET_CAP", cap)
    with pytest.raises(CapExceededError) as info:
        nerve.build_eps_net(points, 0.05, metric)
    assert len(info.value.entries) == cap + 1
    assert all(c is q for c, q in zip(info.value.entries, reference))
    message = str(info.value)
    assert "after %d of 2000 samples" % consumed in message
    assert "--epsilon" in message and "--samples" in message


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


def test_hyperbolic_minimax_agrees_with_known_midpoint():
    from latticelab.hyperbolic import HPoint, distance
    p1, p2 = HPoint(0, 1), HPoint(0, 4)
    p3 = HPoint(0, 2)   # on the geodesic between them
    r = nerve._h2_minimax([p1, p2, p3])
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
    assert metric.distances(x, [y])[0] == np.min(np.linalg.norm(x - y + LIFT_SHELL, axis=1))
    ys = np.array([y, z])
    assert metric.distances(x, ys).tolist() == [
        np.min(np.linalg.norm(x - w + LIFT_SHELL, axis=1)) for w in ys]
    shell = min(nerve._euclid_minimax([x, y + u, z + v]) for u in LIFT_SHELL for v in LIFT_SHELL)
    r = metric.minimax_radius(x, y, z)
    assert r >= shell
    if min(r, shell) < 0.25:
        assert r == shell


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
