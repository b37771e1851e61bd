import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from latticelab import presets
from latticelab.errors import (BorderlineClassificationError, DimensionMismatchError,
                               InvalidPointError)
from latticelab.hyperbolic import (
    ELLIPTIC,
    HYPERBOLIC,
    IDENTITY,
    INFINITY,
    PARABOLIC,
    HPoint,
    MoebiusIsometry,
    classify,
    conjugate,
    displacement,
    distance,
    same_axis,
    same_boundary_point,
    sequence_contraction_witness,
)
from latticelab.hyperboloid import h2_to_hyperboloid, normalize_point
from latticelab.wordballs import FinitelyGeneratedGroup, word_ball


def arclength_distance_oracle(p, q):
    """Independent H^2 distance: quadrature of |dz|/y along the explicit
    geodesic (vertical line or semicircle orthogonal to the boundary)."""
    z1, z2 = p.z, q.z
    if abs(z1.real - z2.real) < 1e-13:
        val, _ = quad(lambda y: 1.0 / y, min(z1.imag, z2.imag), max(z1.imag, z2.imag))
        return val
    c = (abs(z2) ** 2 - abs(z1) ** 2) / (2 * (z2.real - z1.real))
    a1 = math.atan2(z1.imag, z1.real - c)
    a2 = math.atan2(z2.imag, z2.real - c)
    val, _ = quad(lambda t: 1.0 / math.sin(t), min(a1, a2), max(a1, a2))
    return val


def random_sl2r(rng):
    while True:
        m = rng.normal(size=4)
        d = m[0] * m[3] - m[1] * m[2]
        if d > 0.05:
            return MoebiusIsometry(tuple(m / math.sqrt(d)))


# -- distance ---------------------------------------------------------------

def test_distance_identity_case():
    assert distance(HPoint(0, 1), HPoint(0, 1)) == 0.0


def test_distance_vertical_arclength():
    # int dy/y from 1 to e, frozen from the quadrature oracle
    p, q = HPoint(0, 1), HPoint(0, math.e)
    oracle = arclength_distance_oracle(p, q)
    assert abs(oracle - 1.0) < 1e-10
    assert abs(distance(p, q) - 1.0) < 1e-9


def test_distance_horizontal_pair_vs_oracle():
    p, q = HPoint(0, 2), HPoint(1, 2)
    oracle = arclength_distance_oracle(p, q)
    expected = math.acosh(1 + 1 / 8)
    assert abs(oracle - expected) < 1e-9
    assert abs(distance(p, q) - expected) < 1e-6


def test_distance_matches_arclength_oracle_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        q = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        assert abs(distance(p, q) - arclength_distance_oracle(p, q)) < 1e-8


def test_distance_symmetry_and_triangle_inequality_sampled():
    rng = np.random.default_rng(4)
    for _ in range(200):
        pts = [HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 4)) for _ in range(3)]
        d01, d10 = distance(pts[0], pts[1]), distance(pts[1], pts[0])
        assert abs(d01 - d10) < 1e-12
        assert distance(pts[0], pts[2]) <= d01 + distance(pts[1], pts[2]) + 1e-12


def test_invalid_point_rejected():
    with pytest.raises(InvalidPointError):
        HPoint(0.0, -1.0)
    with pytest.raises(InvalidPointError):
        HPoint(0.0, 0.0)


def test_h3_distance_and_action_invariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        d = m[0] * m[3] - m[1] * m[2]
        if abs(d) < 0.05:
            continue
        g = MoebiusIsometry(tuple(m / complex(d) ** 0.5))
        p = HPoint(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3))
        q = HPoint(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert abs(distance(g.apply(p), g.apply(q)) - distance(p, q)) < 1e-9


# -- displacement ------------------------------------------------------------

def test_displacement_identity_zero():
    e = MoebiusIsometry(((1, 0), (0, 1)))
    assert displacement(e, HPoint(0.7, 2.3)) == 0.0


def test_displacement_translation_at_i():
    t = MoebiusIsometry(((1, 1), (0, 1)))
    assert abs(displacement(t, HPoint(0, 1)) - math.acosh(1.5)) < 1e-6


def test_displacement_along_invariant_axis():
    g = MoebiusIsometry(((2, 0), (0, Fraction(1, 2))))
    assert abs(displacement(g, HPoint(0, 1)) - math.log(4)) < 1e-9


def test_displacement_is_the_distance_to_the_image_bit_for_bit():
    # Float, int and Fraction elements at H^2 points take the one-pass path.
    fractions = FinitelyGeneratedGroup([
        MoebiusIsometry(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))),
        MoebiusIsometry(((Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(1))))])
    balls = [word_ball(presets.octagon_genus2(), 4), word_ball(presets.sl2z(), 6),
             word_ball(fractions, 4)]
    assert [type(b.element(1).m[0]) for b in balls] == [float, int, Fraction]
    points = [HPoint(0.0, 1.0), HPoint(0.1, 1.3), HPoint(-0.37, 0.02), HPoint(5.0, 40.0)]
    for ball in balls:
        for p in points:
            got = [displacement(g, p) for g in ball.elements]
            assert got == [distance(g.apply(p), p) for g in ball.elements]
    # An image height that underflows to zero raises on both paths.
    flat = MoebiusIsometry(((1e-300, 0.0), (0.0, 1e300)))
    for measure in (displacement, lambda g, p: distance(g.apply(p), p)):
        with pytest.raises(InvalidPointError):
            measure(flat, HPoint(0.0, 1.0))


def test_complex_displacements_keep_the_old_path():
    rng = np.random.default_rng(38)
    real = [random_sl2r(rng) for _ in range(20)]
    loxo = [MoebiusIsometry(((a, b), (c, (1 + b * c) / a))) for a, b, c in
            rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))]
    for g in loxo:
        with pytest.raises(DimensionMismatchError):
            displacement(g, HPoint(0.2, 1.1))
    for p in (HPoint(0.0, 0.0, 1.0), HPoint(0.3, -0.2, 0.7)):
        assert ([displacement(g, p) for g in real + loxo]
                == [distance(g.apply(p), p) for g in real + loxo])


def geodesic_midpoint(p, q):
    """Midpoint of the H^2 geodesic from p to q: the normalized sum of their
    hyperboloid points, read back in half-plane coordinates (y = 1/(t - a),
    x = b y)."""
    t, a, b = normalize_point(h2_to_hyperboloid(p.z) + h2_to_hyperboloid(q.z))
    return HPoint(b / (t - a), 1.0 / (t - a))


def test_displacement_convex_along_geodesics():
    rng = np.random.default_rng(6)
    g = MoebiusIsometry(((2, 1), (1, 1)))
    for _ in range(100):
        p = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        q = HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        mid = geodesic_midpoint(p, q)
        assert displacement(g, mid) <= (displacement(g, p) + displacement(g, q)) / 2 + 1e-9


# -- classification -----------------------------------------------------------

def test_classify_unipotent_parabolic():
    cls = classify(MoebiusIsometry(((1, 1), (0, 1))))
    assert cls.kind == PARABOLIC
    assert cls.fixed_boundary == INFINITY
    assert not cls.attained


def test_classify_diagonal_hyperbolic_with_axis():
    cls = classify(MoebiusIsometry(((2, 0), (0, Fraction(1, 2)))))
    assert cls.kind == HYPERBOLIC
    assert abs(cls.translation_length - 2 * math.log(2)) < 1e-9
    repelling, attracting = cls.axis
    assert abs(repelling) < 1e-12 and attracting == INFINITY


def test_hyperbolic_length_is_displacement_infimum_on_grid():
    # Grid minimization of the displacement confirms the infimum.
    g = MoebiusIsometry(((2, 0), (0, 0.5)))
    length = classify(g).translation_length
    best = min(
        displacement(g, HPoint(x, y))
        for x in np.linspace(-2, 2, 41)
        for y in np.linspace(0.05, 8, 81)
    )
    assert best >= length - 1e-12
    assert abs(displacement(g, HPoint(0, 1)) - length) < 1e-12


def test_classify_rotation_about_i_elliptic():
    th = math.pi / 8
    cls = classify(MoebiusIsometry(((math.cos(th), math.sin(th)),
                                    (-math.sin(th), math.cos(th)))))
    assert cls.kind == ELLIPTIC
    assert cls.fixed_interior.close_to(HPoint(0, 1), 1e-9)


def test_classify_identity():
    assert classify(MoebiusIsometry(((1, 0), (0, 1)))).kind == IDENTITY
    assert classify(MoebiusIsometry(((-1, 0), (0, -1)))).kind == IDENTITY


def test_borderline_band_raises_with_candidates():
    # Trace 2 + 3e-8 falls inside the refusal band.
    eps = 3e-8
    lam = 1 + math.sqrt(eps)
    g = MoebiusIsometry(((lam, 0.0), (0.0, 1 / lam)))
    with pytest.raises(BorderlineClassificationError) as err:
        classify(g)
    assert PARABOLIC in err.value.candidates


def test_exact_entries_no_borderline():
    cls = classify(MoebiusIsometry(((1, 1), (0, 1))) * MoebiusIsometry(((1, 0), (0, 1))))
    assert cls.kind == PARABOLIC


def test_translation_length_parabolic_zero_unattained():
    t = MoebiusIsometry(((1, 1), (0, 1)))
    assert classify(t).translation_length == 0.0
    assert classify(t).attained is False
    # Displacement decays to zero up the cusp but never reaches it.
    values = [displacement(t, HPoint(0, y)) for y in (1, 5, 25, 125)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_translation_length_diag3():
    g = MoebiusIsometry(((3, 0), (0, Fraction(1, 3))))
    assert abs(classify(g).translation_length - 2 * math.log(3)) < 1e-9
    assert abs(displacement(g, HPoint(0, 1)) - 2 * math.log(3)) < 1e-9


def fixed_point_structure_oracle(g):
    """Classification by boundary fixed points: root structure of
    c z^2 + (d - a) z - b over the reals."""
    a, b, c, d = (float(x) for x in g.m)
    if abs(c) < 1e-14:
        if abs(a - d) < 1e-14:
            return PARABOLIC  # translation fixing only infinity
        return HYPERBOLIC     # fixes infinity and b/(d-a)
    disc = (a - d) ** 2 + 4 * b * c
    if disc > 1e-10:
        return HYPERBOLIC
    if disc < -1e-10:
        return ELLIPTIC
    return PARABOLIC


def test_trace_classification_agrees_with_fixed_point_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        g = random_sl2r(rng)
        t = abs(float(g.trace()))
        if abs(t - 2) < 1e-6 or g.is_identity():
            continue
        assert classify(g).kind == fixed_point_structure_oracle(g)
        checked += 1


def test_classification_conjugation_invariant():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 1000:
        g = random_sl2r(rng)
        h = random_sl2r(rng)
        t = abs(float(g.trace()))
        if abs(t - 2) < 1e-5:
            continue
        gc = conjugate(g, h)
        if abs(abs(float(gc.trace())) - 2) < 1e-5:
            continue
        cg, cgc = classify(g), classify(gc)
        assert cg.kind == cgc.kind
        assert abs(cg.translation_length - cgc.translation_length) < 1e-8
        checked += 1


def test_hyperbolic_displacement_strictly_above_length_off_axis():
    g = MoebiusIsometry(((2, 0), (0, 0.5)))
    length = classify(g).translation_length
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.uniform(0.05, 3) * (1 if rng.uniform() < 0.5 else -1)
        p = HPoint(x, rng.uniform(0.1, 5))
        assert displacement(g, p) > length + 1e-12


def test_commuting_hyperbolics_share_axis():
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = random_sl2r(rng)
        d1 = MoebiusIsometry(((2.0, 0.0), (0.0, 0.5)))
        d2 = MoebiusIsometry(((3.0, 0.0), (0.0, 1 / 3)))
        g1, g2 = conjugate(d1, h), conjugate(d2, h)
        prod, rporp = g1 * g2, g2 * g1
        assert all(abs(complex(x) - complex(y)) < 1e-9 for x, y in zip(prod.m, rporp.m))
        assert same_axis(classify(g1).axis, classify(g2).axis)


def random_exact_sl2(rng):
    # Exact determinant-one matrices: parabolicity of the conjugates stays
    # decidable (float conjugation would land in the borderline band).
    a = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 5)))
    b = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    d = (1 + b * c) / a
    return MoebiusIsometry(((a, b), (c, d)))


def test_commuting_parabolics_share_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_exact_sl2(rng)
        t1 = conjugate(MoebiusIsometry(((1, 1), (0, 1))), h)
        t2 = conjugate(MoebiusIsometry(((1, 3), (0, 1))), h)
        p1, p2 = classify(t1).fixed_boundary, classify(t2).fixed_boundary
        assert same_boundary_point(p1, p2, 1e-6)


# -- conjugation and the escape witness ------------------------------------------

def test_conjugate_formula_exact():
    g3 = MoebiusIsometry(((Fraction(3), 0), (0, Fraction(1, 3))))
    gamma = MoebiusIsometry(((1, 0), (1, 1)))
    c = conjugate(gamma, g3)
    assert c.m == (Fraction(1), Fraction(0), Fraction(1, 9), Fraction(1))


def test_contraction_witness_identity_no_signal():
    gs = [MoebiusIsometry(((Fraction(n), 0), (0, Fraction(1, n)))) for n in range(1, 10)]
    w = sequence_contraction_witness(gs, MoebiusIsometry(((1, 0), (0, 1))))
    assert all(n == 0 for n in w.norms)
    assert not w.escaping


def test_contraction_witness_escaping_diagonal_sequence():
    gs = [MoebiusIsometry(((Fraction(n), 0), (0, Fraction(1, n)))) for n in range(1, 21)]
    w = sequence_contraction_witness(gs, MoebiusIsometry(((1, 0), (1, 1))))
    assert w.escaping
    assert abs(w.norms[2] - 1.0 / 9.0) < 1e-12


def test_contraction_witness_compact_rotations_no_escape():
    # Exhaustive sweep of the rotation circle: norms stay bounded away from 0.
    gamma = MoebiusIsometry(((1, 0), (1, 1)))
    gs = []
    for th in np.linspace(0.0, math.pi, 60, endpoint=False):
        gs.append(MoebiusIsometry(((math.cos(th), math.sin(th)),
                                   (-math.sin(th), math.cos(th)))))
    w = sequence_contraction_witness(gs, gamma)
    assert not w.escaping
    assert min(w.norms) > 0.5
