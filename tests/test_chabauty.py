import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latticelab import chabauty as ch
from latticelab.errors import PreconditionError


# -- covolume -----------------------------------------------------------------

def test_covolume_standard_basis():
    assert ch.covolume([[1, 0], [0, 1]]) == 1


def test_covolume_hexagonal():
    v = ch.covolume([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert abs(v - math.sqrt(3) / 2) < 1e-12


def test_covolume_unimodular_invariance_exact():
    rng = np.random.default_rng(22)
    basis = [[Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(5, 2)]]
    reference = ch.covolume(basis)
    for _ in range(500):
        # Random integer unimodular matrix from elementary operations.
        u = np.eye(2, dtype=np.int64)
        for _ in range(4):
            k = int(rng.integers(-3, 4))
            if rng.uniform() < 0.5:
                u = u @ np.array([[1, k], [0, 1]])
            else:
                u = u @ np.array([[1, 0], [k, 1]])
        new_basis = [
            [u[0, 0] * basis[0][0] + u[0, 1] * basis[1][0],
             u[0, 0] * basis[0][1] + u[0, 1] * basis[1][1]],
            [u[1, 0] * basis[0][0] + u[1, 1] * basis[1][0],
             u[1, 0] * basis[0][1] + u[1, 1] * basis[1][1]],
        ]
        assert ch.covolume(new_basis) == reference


def test_covolume_rank_deficient_rejected():
    with pytest.raises(PreconditionError):
        ch.covolume([[1, 2], [2, 4]])


# -- reduction and shortest vectors -----------------------------------------------

def test_reduce_skewed_basis():
    red = ch.reduce_basis([[1.0, 0.0], [5.0, 1.0]])
    norms = sorted(np.linalg.norm(red, axis=1))
    assert abs(norms[0] - 1.0) < 1e-12
    assert abs(norms[1] - 1.0) < 1e-12
    assert abs(abs(np.linalg.det(red)) - 1.0) < 1e-12


def test_reduce_orthogonal_basis_unchanged():
    red = ch.reduce_basis([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(sorted(np.linalg.norm(red, axis=1)), [1.0, 2.0])


def test_shortest_vector_certified_by_enumeration():
    basis = [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    sv = ch.shortest_vector(basis)
    assert abs(np.linalg.norm(sv) - 1.0) < 1e-12
    pts = ch.lattice_points_in_ball(basis, 1.0 + 1e-9)
    minimal = [p for p in pts if abs(np.linalg.norm(p) - 1.0) < 1e-9]
    assert len(minimal) == 6


def test_shortest_vector_brute_oracle_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        basis = rng.uniform(-2, 2, size=(2, 2))
        if abs(np.linalg.det(basis)) < 0.2:
            continue
        sv = np.linalg.norm(ch.shortest_vector(basis))
        brute = min(
            np.linalg.norm(m * basis[0] + n * basis[1])
            for m in range(-8, 9) for n in range(-8, 9) if (m, n) != (0, 0)
        )
        assert abs(sv - brute) < 1e-9


# -- the sup formula ---------------------------------------------------------------

def test_sup_formula_square_lattice_boxes():
    res = ch.sup_formula_check([[1.0, 0.0], [0.0, 1.0]],
                               [{"kind": "box", "half_widths": [0.5 * (1 - d), 0.5 * (1 - d)]}
                                for d in (0.5, 0.2, 0.05, 0.01)])
    assert res.best_volume == pytest.approx(0.99 ** 2)
    assert res.best_volume <= res.covolume
    assert res.admissible_count == 4


def test_sup_formula_disk_too_large_inadmissible():
    res = ch.sup_formula_check([[1.0, 0.0], [0.0, 1.0]],
                               [{"kind": "disk", "radius": 0.51}])
    assert res.admissible_count == 0
    assert res.best_volume == 0.0


def test_sup_formula_hexagonal_box_sweep():
    basis = [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    cands = [{"kind": "box", "half_widths": [a, b]}
             for a in np.linspace(0.05, 0.55, 11)
             for b in np.linspace(0.05, 0.55, 11)]
    res = ch.sup_formula_check(basis, cands)
    assert res.best_volume >= 0.8 * res.covolume
    assert res.best_volume <= res.covolume + 1e-12


# -- the subgroup type and distances ---------------------------------------------------

def test_canonical_form_unique_for_equal_subgroups():
    h1 = ch.ClosedSubgroupRn.lattice([[1.0, 0.0], [5.0, 1.0]])
    h2 = ch.ClosedSubgroupRn.lattice([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(h1.lattice_basis, h2.lattice_basis)


def test_distance_equal_subgroups_zero():
    h = ch.ClosedSubgroupRn.lattice([[1.0]])
    assert ch.chabauty_distance(h, h, 5.0) == 0.0


def test_distance_grid_to_line_exact():
    full = ch.ClosedSubgroupRn.full(1)
    for n in range(1, 101):
        h = ch.ClosedSubgroupRn.lattice([[1.0 / n]])
        assert abs(ch.chabauty_distance(h, full, 1.0) - 1.0 / (2 * n)) < 1e-12


def test_distance_sparse_lattice_trivial_inside_small_ball():
    h = ch.ClosedSubgroupRn.lattice([[3.0]])
    t = ch.ClosedSubgroupRn.from_parts(1)
    assert ch.chabauty_distance(h, t, 1.0) == 0.0
    # Once the ball sees the points +-3, they are 3 away from {0}.
    assert ch.chabauty_distance(h, t, 4.0) == pytest.approx(3.0)


def test_distance_symmetry_and_triangle_random():
    rng = np.random.default_rng(24)
    count = 0
    while count < 200:
        hs = []
        for _ in range(3):
            b = rng.uniform(-2, 2, size=(2, 2))
            if abs(np.linalg.det(b)) < 0.3:
                break
            hs.append(ch.ClosedSubgroupRn.lattice(b))
        if len(hs) < 3:
            continue
        r = rng.uniform(1.0, 4.0)
        d01 = ch.chabauty_distance(hs[0], hs[1], r)
        d10 = ch.chabauty_distance(hs[1], hs[0], r)
        d02 = ch.chabauty_distance(hs[0], hs[2], r)
        d12 = ch.chabauty_distance(hs[1], hs[2], r)
        assert abs(d01 - d10) < 1e-10
        assert d02 <= d01 + d12 + 1e-10
        count += 1


# -- brute-force oracles for the vectorized kernel ------------------------------------

def _product_points(basis, radius, k):
    """Lattice points of norm <= radius, one coefficient vector at a time."""
    b = np.array(basis, dtype=float)
    pts = [np.array(z, dtype=float) @ b
           for z in itertools.product(range(-k, k + 1), repeat=b.shape[0])]
    return np.array([p for p in pts if p @ p <= radius * radius + 1e-12]).reshape(-1, b.shape[1])


def _oracle_points(basis, radius):
    smin = np.linalg.svd(np.array(basis, dtype=float), compute_uv=False).min()
    return _product_points(basis, radius, int(radius / smin) + 3)


def _directed(xs, ys):
    """sup over x in xs of the distance to the nearest y, from the full
    pairwise distance matrix."""
    return float(np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2).min(axis=1).max())


def _hausdorff(xs, ys):
    return max(_directed(xs, ys), _directed(ys, xs))


def test_lattice_points_match_the_product_enumeration_row_for_row(monkeypatch):
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 4):
        done = 0
        while done < 4:
            basis = rng.normal(size=(m, m))
            smin = np.linalg.svd(basis, compute_uv=False).min()
            if smin < 0.3:
                continue
            radius = float(rng.uniform(1.0, 2.5))
            k = int(math.floor(radius / smin)) + 1
            want = _product_points(basis, radius, k)
            # One pass over the box, then one slab of the first coefficient
            # per block, then three slabs per block (the last may be short).
            for block in (ch._BOX_BLOCK, 1, 3 * (2 * k + 1) ** (m - 1)):
                monkeypatch.setattr(ch, "_BOX_BLOCK", block)
                got = ch.lattice_points_in_ball(basis, radius)
                assert got.shape[1] == m
                assert np.array_equal(got, want)
            monkeypatch.undo()
            done += 1


def test_lattice_points_memory_is_bounded_by_the_block():
    # The 37^4-cell box took 134 MB in one pass; its 464665 points are 15 MB.
    tracemalloc.start()
    try:
        assert len(ch.lattice_points_in_ball(0.1 * np.eye(4), 1.75)) == 464665
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_lattice_points_cap_is_the_coefficient_box():
    basis = [[0.1, 0.0], [0.0, 0.1]]
    box = (2 * 11 + 1) ** 2                   # k = floor(1 / 0.1) + 1 = 11
    assert len(ch.lattice_points_in_ball(basis, 1.0, cap=box)) == 317
    with pytest.raises(PreconditionError, match="enumeration box too large"):
        ch.lattice_points_in_ball(basis, 1.0, cap=box - 1)
    with pytest.raises(PreconditionError, match="enumeration box too large"):
        ch.lattice_points_in_ball([[1e-3]], 1e4)


def test_distance_one_dimensional_grids_match_brute_force():
    rng = np.random.default_rng(32)
    for _ in range(40):
        a, b = (int(x) for x in rng.integers(1, 30, size=2))
        radius = float(rng.choice([0.3, 1.0, 2.0, 4.0]))
        h1, h2 = ch.ClosedSubgroupRn.lattice([[1.0 / a]]), ch.ClosedSubgroupRn.lattice([[1.0 / b]])
        want = _hausdorff(_oracle_points([[1.0 / a]], radius), _oracle_points([[1.0 / b]], radius))
        assert abs(ch.chabauty_distance(h1, h2, radius) - want) < 1e-12


def test_distance_one_dimensional_grid_to_the_line_matches_brute_force():
    line = ch.ClosedSubgroupRn.full(1)
    rng = np.random.default_rng(33)
    for _ in range(25):
        a = int(rng.integers(1, 12))
        radius = float(rng.uniform(0.2, 3.0))
        pts = _oracle_points([[1.0 / a]], radius)
        # The line's truncation on a grid of step 1/(8a) that holds every
        # midpoint between grid points, plus its two ends.
        j = np.arange(-int(8 * a * radius), int(8 * a * radius) + 1)
        interval = np.concatenate([j / (8.0 * a), [-radius, radius]])[:, None]
        want = _hausdorff(pts, interval)
        h = ch.ClosedSubgroupRn.lattice([[1.0 / a]])
        assert abs(ch.chabauty_distance(h, line, radius) - want) < 1e-9


def test_distance_two_dimensional_lattices_match_brute_force():
    rng = np.random.default_rng(34)
    # Covolume 0.01 at radius 2 gives over a thousand points: several blocks.
    for covol in (1.0, 0.3, 0.01):
        for _ in range(3):
            b1 = rng.normal(size=(2, 2))
            b1 *= math.sqrt(covol / abs(np.linalg.det(b1)))
            b2 = b1 + rng.normal(scale=0.02 * math.sqrt(covol), size=(2, 2))
            smin = min(np.linalg.svd(b, compute_uv=False).min() for b in (b1, b2))
            if smin < 0.1 * math.sqrt(covol):
                continue
            want = _hausdorff(_oracle_points(b1, 2.0), _oracle_points(b2, 2.0))
            got = ch.chabauty_distance(ch.ClosedSubgroupRn.lattice(b1),
                                       ch.ClosedSubgroupRn.lattice(b2), 2.0)
            assert abs(got - want) < 1e-12


def _chords(u, step, radius):
    """Segments (center, half-length) of the lines k step u-perp + R u inside the ball."""
    w = np.array([-u[1], u[0]])
    return [(k * step * w, math.sqrt(radius * radius - (k * step) ** 2))
            for k in range(-int(radius / step), int(radius / step) + 1)]


def test_distance_line_family_to_lattice_within_the_sampling_bound():
    rng = np.random.default_rng(35)
    radius = 2.0
    for _ in range(10):
        phi = float(rng.uniform(0.0, math.pi))
        u = np.array([math.cos(phi), math.sin(phi)])
        step = float(rng.uniform(0.4, 0.5))
        basis = rng.normal(size=(2, 2))
        basis *= math.sqrt(0.15 / abs(np.linalg.det(basis)))
        chords = _chords(u, step, radius)
        samples = np.array([c + t * half * u for c, half in chords
                            for t in np.linspace(-1.0, 1.0, 801)])
        pts = _oracle_points(basis, radius)
        back = max(min(float(np.linalg.norm(p - c - np.clip((p - c) @ u, -half, half) * u))
                       for c, half in chords) for p in pts)
        want = max(_directed(samples, pts), back)
        hmax = max(half for _, half in chords)
        h1 = ch.ClosedSubgroupRn.from_parts(2, [u], [step * np.array([-u[1], u[0]])])
        got = ch.chabauty_distance(h1, ch.ClosedSubgroupRn.lattice(basis), radius)
        # 41 samples per chord may miss hmax / 40 of the supremum, the
        # oracle's 801 may miss hmax / 800.
        assert want - hmax / 40.0 - 1e-9 <= got <= want + hmax / 800.0 + 1e-9


# -- limits ------------------------------------------------------------------------

def test_limit_refining_grids_to_the_line():
    seq = [ch.ClosedSubgroupRn.lattice([[1.0 / n]]) for n in range(1, 61)]
    res = ch.chabauty_limit(seq, [1.0, 2.0], tol=1e-2)
    assert res.converged
    assert res.limit.v_dim == 1
    assert res.limit.lattice_rank == 0
    # Distances decrease monotonically in n at fixed radius.
    ds = res.distances[1.0]
    assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))


def test_limit_thinning_lattices_to_trivial():
    seq = [ch.ClosedSubgroupRn.lattice([[float(n)]]) for n in range(1, 25)]
    res = ch.chabauty_limit(seq, [1.0, 2.0], tol=1e-9)
    assert res.converged
    assert res.limit.v_dim == 0
    assert res.limit.lattice_rank == 0


def test_limit_rotating_rank_one_lattices():
    seq = [ch.ClosedSubgroupRn.lattice([[math.cos(1 / n), math.sin(1 / n)]])
           for n in range(1, 50)]
    res = ch.chabauty_limit(seq, [1.0, 3.0], tol=0.05)
    assert res.converged
    assert res.limit.lattice_rank == 1
    assert res.limit.v_dim == 0
    assert abs(np.linalg.norm(res.limit.lattice_basis[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("basis", [
    lambda k: [[1.0 / k]],                                  # the CLI's families
    lambda k: [[float(k)]],
    lambda k: [[math.cos(1.0 / k), math.sin(1.0 / k)]],
    lambda k: [[1.0 / k, 0.0], [0.3, 1.0]],                 # limit R x Z: a V part
])
def test_limit_distances_are_the_chabauty_distances_bit_for_bit(basis):
    seq = [ch.ClosedSubgroupRn.lattice(basis(k)) for k in range(1, 51)]
    res = ch.chabauty_limit(seq, [1.0, 2.0, 4.0], tol=0.02)
    assert list(res.distances) == [1.0, 2.0, 4.0]
    for r, ds in res.distances.items():
        want = [ch.chabauty_distance(h, res.limit, r) for h in seq]
        assert np.array(ds).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_limit_oscillating_sequence_reports_witness():
    a = ch.ClosedSubgroupRn.lattice([[1.0]])
    b = ch.ClosedSubgroupRn.lattice([[0.4]])
    seq = [a, b] * 10
    res = ch.chabauty_limit(seq, [1.0], tol=1e-3)
    assert not res.converged
    assert res.witness is not None


# -- compactness extraction -------------------------------------------------------------

def test_mahler_constant_sequence():
    bases = [np.eye(2)] * 10
    res = ch.mahler_subsequence(bases, 1.5, 0.9)
    assert len(res.indices) == 10
    assert np.allclose(res.limit_basis @ res.limit_basis.T, np.eye(2))


def test_mahler_rotating_family_converges():
    bases = [np.array([[math.cos(1 / k), math.sin(1 / k)],
                       [-math.sin(1 / k), math.cos(1 / k)]])
             for k in range(1, 41)]
    res = ch.mahler_subsequence(bases, 1.5, 0.9)
    assert len(res.indices) >= 2
    assert res.limit_covolume <= 1.5 + 1e-9
    assert res.limit_shortest >= 0.9 - 1e-9
    assert abs(res.limit_covolume - 1.0) < 1e-9


def test_mahler_shrinking_family_rejected_with_index():
    bases = [np.diag([1.0 / k, float(k)]) for k in range(1, 10)]
    with pytest.raises(PreconditionError) as err:
        ch.mahler_subsequence(bases, 1.5, 0.9)
    assert "lattice 1" in str(err.value)


def test_mahler_covolume_bound_rejected():
    bases = [np.diag([2.0, 2.0])]
    with pytest.raises(PreconditionError):
        ch.mahler_subsequence(bases, 1.5, 0.9)
