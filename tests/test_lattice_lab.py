from collections import Counter
import gc
import math
from fractions import Fraction
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from latticelab import lattice_lab as lab
from latticelab import hyperbolic, presets, smallness
from latticelab.errors import DomainError, PreconditionError
from latticelab.hyperbolic import HPoint, MoebiusIsometry, displacement
from latticelab.wordballs import FinitelyGeneratedGroup, displacements_at, word_ball


# -- word balls ---------------------------------------------------------------

def test_word_ball_radius_zero_identity_only(sl2z):
    ball = word_ball(sl2z, 0)
    assert len(ball) == 1
    assert ball.entries[0][0] == ()
    assert ball.entries[0][1].is_identity()


def test_word_ball_z2_counts_lattice_points():
    group = presets.z2_translations()
    for radius in (1, 2, 3):
        ball = word_ball(group, radius)
        expected = sum(1 for m in range(-radius, radius + 1)
                       for n in range(-radius, radius + 1)
                       if abs(m) + abs(n) <= radius)
        assert len(ball) == expected
    assert len(word_ball(group, 3)) == 25


def independent_psl2z_ball(radius):
    """Hash-based enumeration oracle, separate from the BFS implementation:
    the sign-canonical matrices of all words of length <= radius over
    {S, S^-1, T, T^-1}."""
    s = (0, -1, 1, 0)
    t = (1, 1, 0, 1)
    ti = (1, -1, 0, 1)
    si = (0, 1, -1, 0)
    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    def canon(m):
        for x in m:
            if x != 0:
                return m if x > 0 else tuple(-v for v in m)
        return m
    seen = {canon((1, 0, 0, 1))}
    level = [(1, 0, 0, 1)]
    for _ in range(radius):
        nxt = []
        for m in level:
            for g in (s, si, t, ti):
                w = mul(m, g)
                k = canon(w)
                if k not in seen:
                    seen.add(k)
                    nxt.append(w)
        level = nxt
    return seen


def test_word_ball_sl2z_matches_independent_enumeration(sl2z):
    for radius in range(1, 13):
        ball = {e.m for e in word_ball(sl2z, radius).elements}
        assert ball == independent_psl2z_ball(radius)
    assert len(ball) == 1968


def test_word_ball_closed_under_inversion_and_dedup_idempotent(sl2z):
    ball = word_ball(sl2z, 3)
    keys = {e.dedup_key() for e in ball.elements}
    assert len(keys) == len(ball)
    for e in ball.elements:
        assert e.inverse().dedup_key() in keys


def test_word_ball_cap():
    from latticelab.errors import CapExceededError
    with pytest.raises(CapExceededError):
        word_ball(presets.sl2z(), 12, cap=100)


# -- injectivity radius ------------------------------------------------------------

def test_injectivity_radius_z2_half():
    group = presets.z2_translations()
    res = lab.injectivity_radius(group, np.array([0.3, 0.8]), 3)
    assert abs(res.value - 0.5) < 1e-12


def test_injectivity_radius_sl2z_at_2i(sl2z):
    res = lab.injectivity_radius(sl2z, HPoint(0, 2), 6)
    assert abs(res.value - 0.5 * math.acosh(1.125)) < 1e-4
    res8 = lab.injectivity_radius(sl2z, HPoint(0, 2), 8)
    assert abs(res.value - res8.value) < 1e-9
    assert res.stabilized


def test_injectivity_radius_sl2z_high_cusp_thin(sl2z):
    res = lab.injectivity_radius(sl2z, HPoint(0, 10), 6)
    assert abs(res.value - 0.5 * math.acosh(1 + 1 / 200)) < 1e-4


def test_injectivity_radius_nonincreasing_in_radius(sl2z):
    x = HPoint(0.21, 1.37)
    values = [lab.injectivity_radius(sl2z, x, r).value for r in (1, 2, 3, 4, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_injectivity_radius_conjugation_invariant(sl2z):
    h = MoebiusIsometry(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    x = HPoint(0.3, 2.1)
    base = lab.injectivity_radius(sl2z, x, 5).value
    moved = lab.injectivity_radius(sl2z.conjugated(h), h.apply(x), 5).value
    assert abs(base - moved) < 1e-8


# -- thick-thin scans ----------------------------------------------------------------

def test_thick_thin_sl2z_single_cusp(sl2z):
    samples = presets.default_region("sl2z", 1000)
    res = lab.thick_thin_scan(sl2z, 0.2, samples, 6)
    assert res.component_count == 1
    assert res.thin_components[0].kind == "cusp"
    assert res.thin_components[0].fixed_point == complex("inf")
    assert not res.unresolved_samples
    # Thin samples sit exactly where the closed form says: d_T < eps iff
    # y > 1 / sqrt(2 (cosh eps - 1)).
    y_cut = 1.0 / math.sqrt(2 * (math.cosh(0.2) - 1))
    for p in res.thin_components[0].samples:
        assert p.z.imag > y_cut - 1e-9


def test_thick_thin_cyclic_hyperbolic_single_tube():
    group = presets.cyclic_hyperbolic(0.05)
    samples = presets.default_region("cyclic-hyperbolic", 800)
    res = lab.thick_thin_scan(group, 0.2, samples, 6)
    assert res.component_count == 1
    comp = res.thin_components[0]
    assert comp.kind == "tube"
    assert abs(comp.core_length - 0.05) < 1e-8


def test_thick_thin_octagon_group_all_thick():
    group = presets.octagon_genus2()
    samples = presets.default_region("octagon-genus2", 300)
    res = lab.thick_thin_scan(group, 0.5, samples, 3)
    assert res.component_count == 0
    assert len(res.thick_samples) == 300
    # Systole oracle: word-ball displacement scan lower-bounds every
    # displacement by the shortest translation length.
    ball = word_ball(group, 3)
    min_disp = min(
        displacement(e, p)
        for p in samples[:40]
        for _, e in ball.nontrivial()
    )
    assert min_disp > 2.0


def test_thick_thin_scan_holds_one_block_not_the_whole_scan():
    # 300 points x 22288 elements would be a 107 MB complex array; a scan
    # holds one block of it at a time, so it peaks barely above its ball.
    group = presets.octagon_genus2()
    samples = presets.default_region("octagon-genus2", 300)
    tracemalloc.start()
    try:
        bg = lab.BallGeometry(group, 5)
        bg.stacked
        ball_peak = tracemalloc.get_traced_memory()[1]
        assert len(bg) == 22288
        del bg
        tracemalloc.reset_peak()
        res = lab.thick_thin_scan(group, 2.0, samples, 5)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.thick_samples) == 300
    assert scan_peak <= ball_peak + 8 * 2 ** 20


def test_thin_witnesses_commute_or_share_structure(sl2z):
    samples = presets.default_region("sl2z", 600)
    res = lab.thick_thin_scan(sl2z, 0.2, samples, 6)
    from latticelab.hyperbolic import classify, same_boundary_point
    for comp in res.thin_components:
        ball = word_ball(sl2z, 6)
        by_word = {w: e for w, e in ball.entries}
        classes = [classify(by_word[w]) for w in comp.witnesses]
        if comp.kind == "cusp":
            assert all(same_boundary_point(c.fixed_boundary, comp.fixed_point)
                       for c in classes)


def test_ball_geometry_classifies_each_element_at_most_once(sl2z, monkeypatch):
    calls = Counter()
    classify = hyperbolic.classify

    def counting(g):
        # Keyed by entries: elements are built when read, so ids may repeat.
        calls[g.m] += 1
        return classify(g)

    monkeypatch.setattr(hyperbolic, "classify", counting)
    rng = np.random.default_rng(5)
    points = [HPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 4.0)) for _ in range(30)]
    bg = lab.BallGeometry(sl2z, 5)
    groups = []
    for x in points:
        bg.components(np.nonzero(bg.displacements(x) <= 0.8)[0].tolist(), groups)
    assert 0 < len(calls) < len(bg)          # only short elements are classified
    for x in points:
        lab._psi(bg, x, 0.3, None)
        lab._psi_gradient(bg, x, 0.3, 1e-4, None)
    assert len(calls) == len(bg) and max(calls.values()) == 1
    # A fresh group per run: runs on one group share its geometry's classes.
    for run in (lambda g: lab.thick_thin_scan(g, 0.8, points, 5),
                lambda g: lab.gradient_lemma_check(g, 0.3, points, 5, 1e-4),
                lambda g: smallness.margulis_short_subgroup(g, HPoint(0, 1), 1.0, 5)):
        calls.clear()
        run(presets.sl2z())
        assert max(calls.values()) == 1
    # One group: the three runs together classify each element at most once.
    calls.clear()
    group = presets.sl2z()
    lab.thick_thin_scan(group, 0.8, points, 5)
    lab.gradient_lemma_check(group, 0.3, points, 5, 1e-4)
    smallness.margulis_short_subgroup(group, HPoint(0, 1), 1.0, 5)
    assert len(calls) == len(bg) and max(calls.values()) == 1


def test_ball_geometry_is_kept_per_group_and_radius_while_the_group_lives():
    group = presets.octagon_genus2()
    assert isinstance(group.generators, tuple)
    bg = lab.ball_geometry(group, 3)
    assert lab.ball_geometry(group, 3) is bg
    assert lab.ball_geometry(group, 2) is not bg
    twin = presets.octagon_genus2()    # equal generators, another group object
    assert lab.ball_geometry(twin, 3) is not bg
    assert sorted(lab._GEOMETRIES[group]) == [2, 3]
    refs = weakref.ref(group), weakref.ref(bg)
    del group, bg
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert sorted(lab._GEOMETRIES[twin]) == [3]


def test_injectivity_radius_on_one_geometry_matches_a_fresh_geometry_per_point():
    group = presets.octagon_genus2()
    rng = np.random.default_rng(36)
    rho = presets.octagon_circumradius()
    for _ in range(110):
        turn = presets._rotation_about_i(rng.uniform(0.0, 2.0 * math.pi))
        x = turn.apply(HPoint(0.0, math.exp(rng.uniform(0.0, 0.9 * rho))))
        got = lab.injectivity_radius(group, x, 3)
        bg = lab.BallGeometry(group, 3)
        disp = bg.displacements(x)
        i = int(np.argmin(disp))
        assert (got.value, got.minimizer_word) == (0.5 * float(disp[i]), bg.word(i))
    assert list(lab._GEOMETRIES[group]) == [3]


def picard_group():
    """Translations by 1 and i and the inversion: a complex (H^3) group."""
    return FinitelyGeneratedGroup([MoebiusIsometry(((1, 1), (0, 1))),
                                   MoebiusIsometry(((1, 1j), (0, 1))),
                                   MoebiusIsometry(((0, -1), (1, 0)))])


@pytest.mark.parametrize("block_entries", [lab.BLOCK_ENTRIES, 1000, 1])
@pytest.mark.parametrize("name, radius, dim", [
    ("sl2z", 6, 2), ("octagon-genus2", 3, 2), ("picard", 3, 3)])
def test_displacement_blocks_equal_the_per_point_path(name, radius, dim, block_entries,
                                                      monkeypatch):
    group = picard_group() if name == "picard" else presets.get_group(name)
    bg = lab.BallGeometry(group, radius)
    monkeypatch.setattr(lab, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(radius)
    coords = np.column_stack([rng.uniform(-0.5, 0.5, (40, dim - 1)),
                              rng.uniform(0.2, 3.0, 40)])
    points = [HPoint(*c) for c in coords.tolist()]
    starts, blocks = zip(*bg.displacement_blocks(coords))
    assert len(blocks) > 1 or block_entries > 40 * len(bg)
    assert list(starts) == np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()
    want = np.array([displacements_at(bg.elements, p) for p in points])
    assert np.array_equal(np.concatenate(blocks).view(np.int64), want.view(np.int64))
    columns = [0, 5, len(bg) - 1]
    (_, sub), = bg.displacement_blocks(coords[:1], columns)
    assert np.array_equal(sub[0].view(np.int64), want[0, columns].view(np.int64))
    assert np.array_equal(bg.displacements(points[0]).view(np.int64), want[0].view(np.int64))
    none = [b for _, b in bg.displacement_blocks(np.empty((0, dim)))]
    assert np.concatenate([np.empty((0, len(bg)))] + none).shape == (0, len(bg))


# -- the displacement Morse function ---------------------------------------------------

def plateau_bump(epsilon):
    """Adversarial control: constant 0.1 on (0, eps/2), so its sum has
    vanishing gradient where it does not vanish.  Used to confirm the
    gradient check is not vacuous."""
    base = lab.standard_bump(epsilon)
    def f(t):
        if t < epsilon / 2.0:
            return 0.1
        return min(base(t), 0.1)
    return f


def test_psi_zero_in_thick_region():
    bg = lab.BallGeometry(presets.cusp_model(), 6)
    assert lab._psi(bg, HPoint(0, 0.5), 0.3, None) == 0.0
    g = lab._psi_gradient(bg, HPoint(0, 0.5), 0.3, 1e-4, None)
    assert np.linalg.norm(g) == 0.0


def test_psi_positive_up_the_cusp_gradient_points_up():
    bg = lab.BallGeometry(presets.cusp_model(), 6)
    x = HPoint(0, 5)
    v = lab._psi(bg, x, 0.3, None)
    assert v > 0
    g = lab._psi_gradient(bg, x, 0.3, 1e-4, None)
    # Displacement acosh(1 + 1/(2 y^2)) decreases in y, the bump increases,
    # so the function grows going up the imaginary axis.
    assert g[1] > 0
    assert abs(g[0]) < 1e-8


def test_psi_cyclic_hyperbolic_gradient_away_from_axis():
    bg = lab.BallGeometry(presets.cyclic_hyperbolic(0.1), 4)
    x = HPoint(0.05, 1.0)
    v = lab._psi(bg, x, 0.3, None)
    assert v > 0
    g = lab._psi_gradient(bg, x, 0.3, 1e-5, None)
    # Convexity: displacement grows away from the axis (the imaginary axis),
    # so the function decreases in x > 0 direction: gradient points toward
    # the axis in -x... displacement increases off-axis means t = d - length
    # grows, f falls: moving away from the axis lowers the function.
    assert g[0] < 0


def test_psi_domain_error_on_min_set():
    bg = lab.BallGeometry(presets.cyclic_hyperbolic(0.1), 4)
    with pytest.raises(DomainError):
        lab._psi(bg, HPoint(0, 1.0), 0.3, None)   # on the axis


def test_psi_gradient_matches_finer_stencil():
    bg = lab.BallGeometry(presets.cusp_model(), 6)
    rng = np.random.default_rng(19)
    h = 1e-3
    for _ in range(100):
        x = HPoint(rng.uniform(-0.4, 0.4), rng.uniform(2.8, 9.5))
        g1 = lab._psi_gradient(bg, x, 0.3, h, None)
        g2 = lab._psi_gradient(bg, x, 0.3, h / 10, None)
        assert np.linalg.norm(g1 - g2) <= 10 * h * h + 1e-12


def test_psi_value_matches_closed_form_cusp():
    bg = lab.BallGeometry(presets.cusp_model(), 6)
    eps = 0.3
    y = 5.0
    d = math.acosh(1 + 1 / (2 * y * y))
    expected = 2 * (eps - d) ** 2 / d
    assert abs(lab._psi(bg, HPoint(0, y), eps, None) - expected) < 1e-12


def test_gradient_lemma_thick_samples_empty():
    group = presets.cusp_model()
    samples = [HPoint(x, 0.6) for x in np.linspace(-0.4, 0.4, 20)]
    res = lab.gradient_lemma_check(group, 0.3, samples, 6, 1e-4)
    assert not res.violations
    assert lab.gradient_lemma_check(group, 0.3, [], 6, 1e-4) == lab.GradientLemmaResult([], 0, 0)


def test_gradient_lemma_cusp_sweep_empty():
    group = presets.cusp_model()
    samples = [HPoint(0, float(y)) for y in np.linspace(0.5, 10, 100)]
    res = lab.gradient_lemma_check(group, 0.3, samples, 6, 1e-4)
    assert not res.violations
    assert res.checked + res.borderline == 100


def test_gradient_lemma_detects_plateau_bump():
    group = presets.cusp_model()
    samples = [HPoint(0, float(y)) for y in np.linspace(0.5, 10, 100)]
    res = lab.gradient_lemma_check(group, 0.3, samples, 6, 1e-4,
                                   bump=plateau_bump(0.3))
    assert len(res.violations) >= 1


def scalar_psi(bg, x, epsilon, bump):
    """Scalar reference for the batched displacement Morse function: one
    point at a time over every element of the ball."""
    f = bump or lab.standard_bump(epsilon)
    lengths = bg.translation_lengths
    disp = displacements_at(bg.elements, x)
    value = 0.0
    for i in np.flatnonzero(lengths <= epsilon).tolist():
        t = float(disp[i] - lengths[i])
        if t <= 1e-9 and bg.classify(i).attained:
            raise DomainError(
                "point lies on the min-set of a short element (word %r)" % (bg.word(i),))
        value += f(t)
    return value


def scalar_gradient_lemma_check(group, epsilon, samples, radius, h, bump=None):
    """Scalar reference for `gradient_lemma_check`: each sample, then the
    central differences around it, one point at a time."""
    tol, grad_tol = 1e-9, 1e-6
    bg = lab.BallGeometry(group, radius)
    violations, borderline, checked = [], 0, 0
    for p in samples:
        value = scalar_psi(bg, p, epsilon, bump)
        if tol < value <= 2.0 * tol:
            borderline += 1
            continue
        dim = len(p.coords)
        grad = np.zeros(dim)
        for i in range(dim):
            delta = [0.0] * dim
            delta[i] = h
            up = scalar_psi(bg, HPoint(*(c + d for c, d in zip(p.coords, delta))), epsilon, bump)
            delta[i] = -h
            dn = scalar_psi(bg, HPoint(*(c + d for c, d in zip(p.coords, delta))), epsilon, bump)
            grad[i] = (up - dn) / (2.0 * h)
        g = float(np.linalg.norm(grad))
        checked += 1
        if (value <= tol) != (g <= grad_tol):
            violations.append((p, value, g))
    return lab.GradientLemmaResult(violations=violations, borderline=borderline, checked=checked)


@pytest.mark.parametrize("bump", [None, plateau_bump], ids=["standard", "plateau"])
@pytest.mark.parametrize("group, radius, epsilon, h, seed", [
    (presets.cusp_model(), 6, 0.3, 1e-4, 1),
    (presets.cusp_model(), 4, 0.8, 1e-3, 2),
    (presets.sl2z(), 4, 0.8, 1e-4, 3),
    (presets.sl2z(), 3, 2.0, 1e-5, 4),
    (presets.cyclic_hyperbolic(0.1), 4, 0.3, 1e-5, 5),
], ids=["cusp-0.3", "cusp-0.8", "sl2z-0.8", "sl2z-2.0", "cyclic-hyperbolic"])
def test_gradient_lemma_check_matches_the_scalar_reference(group, radius, epsilon, h, seed,
                                                           bump):
    rng = np.random.default_rng(seed)
    samples = [HPoint(x, y) for x, y in zip(rng.uniform(-0.6, 0.6, 60).tolist(),
                                            rng.uniform(0.1, 8.0, 60).tolist())]
    f = bump and bump(epsilon)
    got = lab.gradient_lemma_check(group, epsilon, samples, radius, h, f)
    want = scalar_gradient_lemma_check(group, epsilon, samples, radius, h, f)
    assert got == want
    assert got.checked + got.borderline == 60


def test_gradient_lemma_check_raises_the_first_domain_error_sample_by_sample(sl2z):
    # The first sample's stencil reaches i, fixed by an order-2 element; the
    # second sample sits at rho, fixed by an order-3 element.  The scalar
    # order meets the stencil first, although the samples are evaluated in
    # a batch before any stencil.
    samples = [HPoint(1e-4, 1.0), HPoint(0.5, math.sqrt(3.0) / 2.0)]
    with pytest.raises(DomainError) as want:
        scalar_gradient_lemma_check(sl2z, 0.3, samples, 3, 1e-4)
    with pytest.raises(DomainError) as got:
        lab.gradient_lemma_check(sl2z, 0.3, samples, 3, 1e-4)
    with pytest.raises(DomainError) as later:
        lab.gradient_lemma_check(sl2z, 0.3, samples[1:], 3, 1e-4)
    assert str(got.value) == str(want.value) != str(later.value)


@pytest.mark.parametrize("h, match", [(0.0, "must be positive"), (-1e-4, "must be positive"),
                                      (0.5, "lower --step"), (0.6, "lower --step")])
def test_gradient_lemma_check_rejects_a_step_that_leaves_the_half_plane(h, match):
    samples = [HPoint(0, 2.0), HPoint(0.1, 0.5)]
    with pytest.raises(PreconditionError, match=match):
        lab.gradient_lemma_check(presets.cusp_model(), 0.3, samples, 6, h)


@pytest.mark.parametrize("one", [1, 1.0])
def test_every_ball_experiment_rejects_an_empty_nontrivial_ball(one):
    group = FinitelyGeneratedGroup([MoebiusIsometry(((one, 0 * one), (0 * one, one)))])
    x = HPoint(0, 1)
    for run in (lambda: lab.injectivity_radius(group, x, 2),
                lambda: lab.thick_thin_scan(group, 0.3, [x], 2),
                lambda: lab.gradient_lemma_check(group, 0.3, [x], 2, 1e-4),
                lambda: smallness.margulis_short_subgroup(group, x, 0.3, 2)) * 2:
        with pytest.raises(PreconditionError, match="empty nontrivial ball"):
            run()
    assert group not in lab._GEOMETRIES    # a failed build stores nothing


# -- samplers -----------------------------------------------------------------------

@pytest.mark.parametrize("dim", range(1, 9))
def test_halton_equals_scipy_bit_for_bit(dim):
    for count in (0, 1, 2, 1500, 8020):
        for skip in (0, 20):
            oracle = qmc.Halton(d=dim, scramble=False).random(count + skip)[skip:]
            assert np.array_equal(presets.halton(count, dim=dim, skip=skip), oracle)


def reference_disk_sample(center, radius, count):
    """`presets.sample_hyperbolic_disk` as MoebiusIsometry products, one
    rotation, move and action per point."""
    pts = []
    for u, v in presets.halton(count):
        r = math.acosh(1.0 + u * (math.cosh(radius) - 1.0))
        theta = 2.0 * math.pi * v
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        rot = MoebiusIsometry(((c, s), (-s, c)))
        y = center.z.imag
        move = MoebiusIsometry(((math.sqrt(y), center.z.real / math.sqrt(y)),
                                (0.0, 1.0 / math.sqrt(y))))
        up = HPoint(0.0, math.exp(r))
        pts.append((move * rot).apply(up))
    return pts


def reference_sl2z_domain(count):
    """`presets.sample_sl2z_domain` one Halton point at a time."""
    out = []
    y0 = math.sqrt(3.0) / 2.0
    for ux, uy in presets.halton(4 * count):
        x = ux - 0.5
        y = 1.0 / (1.0 / y0 - uy * (1.0 / y0 - 1.0 / 20.0))
        if x * x + y * y >= 1.0:
            out.append(HPoint(x, y))
            if len(out) == count:
                break
    return out


def bits(points):
    return [(p.dim, p.z.real.hex(), p.z.imag.hex(), p.t.hex()) for p in points]


def test_disk_sample_is_the_moebius_product_sample_bit_for_bit():
    cases = [(presets.octagon_center(), presets.octagon_circumradius(), 1500)]
    cases += [(c, r, 300) for c in (HPoint(-0.3, 0.7), HPoint(2.0, 3.5), HPoint(0.1, 0.05))
              for r in (0.3, 1.7, 4.0)]
    for center, radius, count in cases:
        assert bits(presets.sample_hyperbolic_disk(center, radius, count)) == \
            bits(reference_disk_sample(center, radius, count))


def test_modular_domain_sample_is_the_pointwise_sample_bit_for_bit():
    for count in (0, 1, 300, 601, 1000):
        got = presets.sample_sl2z_domain(count)
        assert len(got) == count
        assert bits(got) == bits(reference_sl2z_domain(count))


# -- covolumes -----------------------------------------------------------------------

def test_covolume_modular_domain_quadrature():
    # Independent check of the same closed form the implementation
    # integrates: area = int dx / sqrt(1 - x^2) over [-1/2, 1/2] = pi/3.
    oracle, _ = quad(lambda x: 1 / math.sqrt(1 - x * x), -0.5, 0.5)
    assert abs(oracle - math.pi / 3) < 1e-10
    assert lab.covolume_h2("sl2z") == math.pi / 3


def test_covolume_ideal_triangle():
    assert abs(lab.covolume_h2("ideal-triangle") - math.pi) < 1e-12


def test_covolume_octagon_angle_defect():
    area = lab.covolume_h2({"kind": "polygon", "angles": [math.pi / 4] * 8})
    assert abs(area - 4 * math.pi) < 1e-12
    assert abs(area - lab.covolume_h2({"kind": "genus", "genus": 2})) < 1e-12


def test_covolume_exact_octagon_matches_genus_formula():
    assert lab.covolume_h2_exact([Fraction(1, 4)] * 8) == Fraction(4)
    assert lab.genus_area_exact(2) == Fraction(4)


def test_covolume_rejects_non_hyperbolic_polygon():
    # Euclidean-or-bigger angle sums have no hyperbolic realization.
    with pytest.raises(PreconditionError):
        lab.covolume_h2({"kind": "polygon", "angles": [math.pi / 2] * 3})
    with pytest.raises(PreconditionError):
        lab.covolume_h2_exact([Fraction(1, 2)] * 4)


# -- recurrence ------------------------------------------------------------------------

def test_recurrence_half_hits_even():
    assert lab.recurrence_search_real(0.5, 0.1, 12) == [2, 4, 6, 8, 10, 12]


def test_recurrence_irrational_nonempty():
    hits = lab.recurrence_search_real(math.sqrt(2) - 1, 0.05, 100)
    assert hits
    # Direct scan oracle for the first hit.
    first = next(n for n in range(1, 101)
                 if abs((n * (math.sqrt(2) - 1)) - round(n * (math.sqrt(2) - 1))) < 0.1)
    assert hits[0] == first


def loop_recurrence_search_real(v, epsilon, horizon):
    """One norm per n, as the search ran before it went by blocks."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return [n for n in range(1, horizon + 1)
            if np.linalg.norm(n * v - np.round(n * v)) < 2.0 * epsilon]


@pytest.mark.parametrize("v", [math.sqrt(2) - 1, 0.5, [0.5], [math.sqrt(2), math.sqrt(3)],
                               [1 / 3, math.pi, math.e]], ids=str)
def test_recurrence_search_real_matches_the_loop(v):
    rng = np.random.default_rng(3)
    block = lab.ROW_BLOCK
    for epsilon in (1e-9, *rng.uniform(1e-4, 0.2, size=3)):
        full = loop_recurrence_search_real(v, epsilon, 2 * block + 17)
        for horizon in (1, 2, block, block + 1, 2 * block + 17):
            assert lab.recurrence_search_real(v, epsilon, horizon) == [n for n in full if n <= horizon]
    near = lab.recurrence_search_real(v, 0.2, 2 * block + 17)
    assert near[-1] > block                   # hits on both sides of a block boundary


def test_row_norms_are_numpy_norms_bit_for_bit():
    rng = np.random.default_rng(8)
    for width in range(1, 17):
        rows = rng.normal(size=(500, width)) * rng.uniform(0, 10, size=(500, 1))
        assert lab.row_norms(rows).tolist() == [np.linalg.norm(r) for r in rows]


def test_recurrence_search_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        assert lab.recurrence_search_real(math.sqrt(2) - 1, 1e-9, 2_000_000) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_recurrence_sl2z_rotation_hits():
    theta = 1.0
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    g = MoebiusIsometry(((c, s), (-s, c)))
    hits = lab.recurrence_search_sl2z(g, 0.05, 10_000)
    assert hits
    for n, m in hits[:20]:
        (a, b), (cc, d) = m
        assert a * d - b * cc == 1


# -- span ------------------------------------------------------------------------------

def test_span_sl2z_full_matrix_space(sl2z):
    # Rank oracle: coordinate matrix of {1, T, S, TS}.
    rows = np.array([[1, 0, 0, 1], [1, 1, 0, 1], [0, -1, 1, 0], [1, -1, 1, 0]])
    assert np.linalg.matrix_rank(rows) == 4
    rep = lab.span_check(sl2z, 3)
    assert rep.dimension == 4
    assert rep.regular_witness_word is not None


def test_span_trivial_group():
    group = FinitelyGeneratedGroup([MoebiusIsometry(((1, 0), (0, 1)))])
    rep = lab.span_check(group, 2)
    assert rep.dimension == 1
    assert rep.regular_witness_word is None


def test_span_diagonal_cyclic():
    group = presets.cyclic_hyperbolic(2 * math.log(2))
    rep = lab.span_check(group, 3)
    assert rep.dimension == 2
    assert rep.regular_witness_word is not None
