from collections import Counter
import math

import numpy as np
import pytest

from latticelab import hyperboloid as hb, presets
from latticelab.hyperbolic import (
    ELLIPTIC,
    HYPERBOLIC,
    IDENTITY,
    PARABOLIC,
    HPoint,
    MoebiusIsometry,
    classify,
    distance,
)
from latticelab.wordballs import word_ball


def boost(length, n):
    """Hyperbolic translation of the given length along the first spatial axis."""
    a = np.eye(n + 1)
    c, s = math.cosh(length), math.sinh(length)
    a[0, 0] = a[1, 1] = c
    a[0, 1] = a[1, 0] = s
    return a


def rotation(theta, n, plane):
    """Elliptic rotation in a spacelike coordinate plane, fixing the basepoint."""
    i, j = plane
    a = np.eye(n + 1)
    a[i, i] = a[j, j] = math.cos(theta)
    a[i, j] = -math.sin(theta)
    a[j, i] = math.sin(theta)
    return a


def embed(L3, n):
    """Embed an SO(2,1) element into SO(n,1) acting on the first coordinates."""
    a = np.eye(n + 1)
    a[:3, :3] = L3
    return a


def test_form_preservation_validated():
    with pytest.raises(ValueError):
        hb.classify_lorentz(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        # Sheet swap: -I preserves the form but not the upper sheet.
        hb.classify_lorentz(-np.eye(3))


def test_boost_displacement_and_length():
    g = boost(0.7, 3)
    x = hb.basepoint(3)
    assert abs(hb.hdistance(g @ x, x) - 0.7) < 1e-12
    cls = hb.classify_lorentz(g)
    assert cls.kind == HYPERBOLIC
    assert abs(cls.translation_length - 0.7) < 1e-9


def test_rotation_elliptic_fixes_basepoint():
    g = rotation(0.8, 4, plane=(2, 3))
    cls = hb.classify_lorentz(g)
    assert cls.kind == ELLIPTIC
    assert np.allclose(cls.fixed_point, hb.basepoint(4))


def test_identity_classification():
    assert hb.classify_lorentz(np.eye(5)).kind == IDENTITY


def test_half_plane_conversion_is_isometric():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4))
        q = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4))
        vp, vq = hb.h2_to_hyperboloid(p.z), hb.h2_to_hyperboloid(q.z)
        assert abs(distance(p, q) - hb.hdistance(vp, vq)) < 1e-9
        t, a, b = vp
        back = HPoint(b / (t - a), 1.0 / (t - a))
        assert back.close_to(p, 1e-9)


def test_moebius_conversion_equivariant():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = rng.normal(size=4)
        d = m[0] * m[3] - m[1] * m[2]
        if d < 0.05:
            continue
        g = MoebiusIsometry(tuple(m / math.sqrt(d)))
        lg = hb.from_moebius_h2(g)
        p = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert np.allclose(hb.h2_to_hyperboloid(g.apply(p).z),
                           lg @ hb.h2_to_hyperboloid(p.z), atol=1e-9)


def test_embedded_parabolic_flagged_numerical():
    t = MoebiusIsometry(((1, 1), (0, 1)))
    g = embed(hb.from_moebius_h2(t), 4)
    cls = hb.classify_lorentz(g)
    assert cls.kind == PARABOLIC
    assert cls.certified is False
    assert not cls.attained


def test_embedded_hyperbolic_length_preserved():
    g = MoebiusIsometry(((2, 0), (0, 0.5)))
    cls = hb.classify_lorentz(embed(hb.from_moebius_h2(g), 5))
    assert cls.kind == HYPERBOLIC
    assert abs(cls.translation_length - 2 * math.log(2)) < 1e-8


def test_mixed_boost_rotation_is_hyperbolic():
    # Screw motion of H^4: boost in one plane, rotation in another.
    g = boost(1.1, 4) @ rotation(0.9, 4, plane=(2, 3))
    cls = hb.classify_lorentz(g)
    assert cls.kind == HYPERBOLIC
    assert abs(cls.translation_length - 1.1) < 1e-8


def test_moebius_balls_classify_as_in_the_half_plane():
    # Every nontrivial element of two word balls, through from_moebius_h2:
    # kind and translation length agree with the trace classifier, and all
    # three kinds occur.
    kinds = Counter()
    for name, radius in (("octagon-genus2", 3), ("sl2z", 4)):
        for _, e in word_ball(presets.get_group(name), radius).nontrivial():
            lor, ref = hb.classify_lorentz(hb.from_moebius_h2(e)), classify(e)
            assert lor.kind == ref.kind
            assert abs(lor.translation_length - ref.translation_length) <= 1e-9
            kinds[lor.kind] += 1
    assert kinds == {HYPERBOLIC: 464, ELLIPTIC: 11, PARABOLIC: 16}
