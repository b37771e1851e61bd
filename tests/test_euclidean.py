import math

import numpy as np
import pytest

from latticelab import presets
from latticelab.errors import NotDiscreteError, PreconditionError
from latticelab.euclidean import (
    EuclideanIsometry,
    commuting_min_intersection,
    crystallographic_analysis,
    has_fixed_point,
    min_set,
)


def screw(theta=math.pi / 2, pitch=1.0):
    o = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                  [math.sin(theta), math.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    return EuclideanIsometry(o, [0.0, 0.0, pitch])


def test_isometry_validation():
    with pytest.raises(ValueError):
        EuclideanIsometry(np.array([[1.0, 0.1], [0.0, 1.0]]), [0, 0])


def test_min_set_pure_translation_is_everything():
    g = EuclideanIsometry.translation([0.3, -0.7])
    sub, tv = min_set(g)
    assert sub.dim == 2
    assert np.allclose(tv, [0.3, -0.7])


def test_min_set_rotation_is_fixed_point():
    g = EuclideanIsometry.rotation2(math.pi / 2)
    sub, tv = min_set(g)
    assert sub.dim == 0
    assert np.allclose(sub.point, [0, 0], atol=1e-12)
    assert np.linalg.norm(tv) < 1e-12


def test_min_set_screw_motion_z_axis():
    g = screw()
    sub, tv = min_set(g)
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis), [[0, 0, 1]], atol=1e-12)
    assert np.allclose(tv, [0, 0, 1])
    # Gradient-descent oracle: minimize ||gx - x|| from random starts.
    rng = np.random.default_rng(14)
    best = math.inf
    for _ in range(100):
        x = rng.uniform(-3, 3, size=3)
        for _ in range(200):
            d = g.displacement(x)
            step = 0.05
            grads = []
            for i in range(3):
                e = np.zeros(3); e[i] = 1e-6
                grads.append((g.displacement(x + e) - d) / 1e-6)
            x = x - step * np.array(grads)
        best = min(best, g.displacement(x))
    assert abs(best - 1.0) < 1e-3
    assert abs(g.displacement(sub.point) - 1.0) < 1e-12


def test_min_set_displacement_minimal_by_sampling():
    rng = np.random.default_rng(15)
    for _ in range(500):
        theta = rng.uniform(0, 2 * math.pi)
        g_kind = rng.integers(0, 3)
        if g_kind == 0:
            g = EuclideanIsometry.rotation2(theta, center=rng.uniform(-2, 2, 2))
        elif g_kind == 1:
            g = EuclideanIsometry.translation(rng.uniform(-2, 2, 2))
        else:
            o = np.array([[math.cos(theta), math.sin(theta)],
                          [math.sin(theta), -math.cos(theta)]])  # reflection
            g = EuclideanIsometry(o, rng.uniform(-2, 2, 2))
        sub, tv = min_set(g)
        x = rng.uniform(-5, 5, 2)
        # Projection onto the min-set never increases displacement.
        assert g.displacement(sub.project(x)) <= g.displacement(x) + 1e-9
        assert abs(g.displacement(sub.project(x)) - np.linalg.norm(tv)) < 1e-9


def test_has_fixed_point_rotation():
    res = has_fixed_point(EuclideanIsometry.rotation2(0.7))
    assert res.exists
    assert np.allclose(res.witness, [0, 0], atol=1e-9)


def test_has_fixed_point_translation_false():
    assert not has_fixed_point(EuclideanIsometry.translation([1.0, 0.0])).exists


def test_glide_reflection_no_fixed_point_min_set_axis():
    g = EuclideanIsometry(np.array([[1.0, 0.0], [0.0, -1.0]]), [1.0, 0.0])
    assert not has_fixed_point(g).exists
    sub, tv = min_set(g)
    assert sub.dim == 1
    assert np.allclose(np.abs(sub.basis), [[1, 0]])
    assert np.allclose(tv, [1, 0])
    assert abs(sub.point[1]) < 1e-9


def test_no_invariant_vector_forces_fixed_point():
    rng = np.random.default_rng(16)
    for _ in range(50):
        theta = rng.uniform(0.2, math.pi)
        g = EuclideanIsometry.rotation2(theta, center=None)
        g = EuclideanIsometry(g.o, rng.uniform(-3, 3, 2))
        # Linear part has no nonzero invariant vector, so a fixed point exists.
        assert has_fixed_point(g).exists


def test_commuting_intersection_two_translations():
    inter = commuting_min_intersection([
        EuclideanIsometry.translation([1.0, 0.0]),
        EuclideanIsometry.translation([0.0, 1.0]),
    ])
    assert inter.dim == 2


def test_commuting_intersection_screw_and_translation():
    inter = commuting_min_intersection([screw(), EuclideanIsometry.translation([0, 0, 2.0])])
    assert inter.dim == 1
    assert inter.contains([0, 0, 7.3])
    # Invariance: both elements act as translations along it.
    for g in (screw(), EuclideanIsometry.translation([0, 0, 2.0])):
        y = g.apply(inter.point)
        assert inter.contains(y)


def test_commuting_intersection_rejects_elliptic():
    with pytest.raises(PreconditionError):
        commuting_min_intersection([EuclideanIsometry.rotation2(math.pi / 2)])


def test_commuting_intersection_rejects_noncommuting():
    with pytest.raises(PreconditionError):
        commuting_min_intersection([
            EuclideanIsometry.translation([1.0, 0.0]),
            EuclideanIsometry(np.array([[0.0, -1.0], [1.0, 0.0]]), [5.0, 0.0]),
        ])


def test_crystallographic_z2():
    rep = crystallographic_analysis(presets.z2_translations().generators, 3)
    assert rep.translation_rank == 2
    assert rep.point_group_order == 1
    assert rep.abelian_index == 1


def test_crystallographic_p2():
    rep = crystallographic_analysis(presets.p2_wallpaper().generators, 6)
    assert rep.translation_rank == 2
    assert rep.point_group_order == 2
    assert rep.abelian_index == 2
    assert rep.point_group_element_orders == [1, 2]


def test_crystallographic_screw():
    rep = crystallographic_analysis(presets.screw_pi().generators, 6)
    assert rep.translation_rank == 1
    assert rep.point_group_order == 2


def test_crystallographic_rank_bounded_by_dimension():
    rep = crystallographic_analysis(presets.p2_wallpaper().generators, 8)
    assert rep.translation_rank <= 2


def test_crystallographic_not_discrete_detected():
    # An irrational rotation closes onto ever more orthogonal parts.
    g = EuclideanIsometry.rotation2(1.0)
    with pytest.raises(NotDiscreteError):
        crystallographic_analysis([g], 600, element_cap=10**6, point_group_cap=64)


def test_crystallographic_cap_reported():
    rep = crystallographic_analysis(presets.z2_translations().generators, 500, element_cap=50)
    assert rep.cap_exceeded
    assert rep.ball_size == 51
