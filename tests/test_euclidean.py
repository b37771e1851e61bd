import numpy as np
import pytest

from latticelab import presets
from latticelab.errors import NotDiscreteError
from latticelab.euclidean import EuclideanIsometry, crystallographic_analysis


def test_isometry_validation():
    with pytest.raises(ValueError):
        EuclideanIsometry(np.array([[1.0, 0.1], [0.0, 1.0]]), [0, 0])


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
