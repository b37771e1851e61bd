from fractions import Fraction
import functools
import itertools
import math
import operator
import warnings

from hypothesis import given, strategies as st
import numpy as np
import pytest

from latticelab import cli, lattice_lab, mat2, nerve, presets, wordballs
from latticelab.errors import CapExceededError, PreconditionError
from latticelab.euclidean import EuclideanIsometry
from latticelab.hyperbolic import HPoint, MoebiusIsometry, displacement
from latticelab.wordballs import FinitelyGeneratedGroup, displacement_pruned_ball, word_ball


# -- identity rule: equality and hashing ------------------------------------------

# Entries right at a half-cell boundary of the dedup grid, nudged by far less
# than any tolerance: the place where an absolute-tolerance __eq__ and a
# rounded __hash__ disagree.
boundary = st.integers(-10**6, 10**6).map(lambda n: (n + 0.5) * mat2.GRID)
nudge = st.floats(-1e-9, 1e-9)


@given(boundary, nudge, nudge)
def test_float_elements_equal_only_with_equal_hashes(b, d1, d2):
    for make in (lambda t: MoebiusIsometry(((1.0, t), (0.0, 1.0))),
                 lambda t: EuclideanIsometry.translation([t, 0.5])):
        x, y = make(b + d1), make(b + d2)
        assert x == x
        if x == y:
            assert hash(x) == hash(y)


@given(st.integers(-50, 50), st.integers(1, 9))
def test_exact_elements_equal_only_with_equal_hashes(n, d):
    x = MoebiusIsometry(((1, Fraction(n, d)), (0, 1)))
    twin = MoebiusIsometry(((1, Fraction(2 * n, 2 * d)), (0, 1)))
    assert x == twin and hash(x) == hash(twin)
    float_copy = MoebiusIsometry(((1.0, n / d), (0.0, 1.0)))
    if x == float_copy:
        assert hash(x) == hash(float_copy)


# -- the enumeration core ------------------------------------------------------------

def test_word_ball_keeps_one_copy_of_an_element_straddling_a_cell_boundary():
    # The two translations agree to 2e-13, but their entries sit on either
    # side of the boundary between two cells of the 1e-6 grid.
    gens = [MoebiusIsometry(((1.0, 2.5e-6 + d), (0.0, 1.0))) for d in (1e-13, -1e-13)]
    group = FinitelyGeneratedGroup(gens)
    assert len(group.symmetric_generators()) == 2    # the translation and its inverse
    assert len(word_ball(group, 1)) == 3


# Translations whose sum, added in different orders, lands on either side of
# a cell boundary: (a + b) + c and (b + c) + a key to adjacent cells.
STRADDLING_SUM = (0.392, 0.821, 0.6890314999999998)


def test_word_ball_keeps_one_copy_of_a_product_straddling_a_cell_boundary():
    assert len({mat2.quantize([(x + y) + z]) for x, y, z in
                itertools.permutations(STRADDLING_SUM)}) == 2
    group = FinitelyGeneratedGroup([MoebiusIsometry(((1.0, x), (0.0, 1.0)))
                                    for x in STRADDLING_SUM])
    assert [len(word_ball(group, r)) for r in (1, 2, 3)] == [7, 25, 63]    # Z^3


def test_group_generated_by_the_identity_has_no_steps():
    for one in (MoebiusIsometry(((1.0, 0.0), (0.0, 1.0))), MoebiusIsometry(((1, 0), (0, 1)))):
        group = FinitelyGeneratedGroup([one])
        assert group.symmetric_generators() == []
        assert len(word_ball(group, 2)) == 1
        assert displacement_pruned_ball(group, presets.octagon_center(), 1.0, slack=1.0) == [one]


def test_conjugate_octagon_ball_has_dehn_size():
    # A conjugate whose radius-5 ball kept one element twice when each float
    # entry was keyed by its own cell alone; Dehn's algorithm gives 22289.
    h = MoebiusIsometry((1.02778328885549, -0.08054773434594242,
                         -0.08054773434594237, 0.9792803097908516))
    assert len(word_ball(presets.octagon_genus2().conjugated(h), 5)) == 22289


@pytest.fixture(scope="module")
def octagon():
    return presets.octagon_genus2()


def test_word_ball_names_the_word_length_of_a_rejected_product(octagon):
    # Float products of length 6 drift past MoebiusIsometry's 1e-9 det check.
    with pytest.raises(PreconditionError,
                       match=r"word ball of radius 6: a product of word length 6 failed"):
        word_ball(octagon, 6)


def test_displacement_pruned_ball_stable_under_slack_and_matches_word_ball(octagon):
    base, keep = presets.octagon_center(), 4.5
    kept = {slack: displacement_pruned_ball(octagon, base, keep, slack=slack)
            for slack in (4.5, 5.5)}
    assert kept[4.5][0].is_identity()
    assert all(displacement(e, base) <= keep for e in kept[4.5])
    keys = {slack: {e.dedup_key() for e in els} for slack, els in kept.items()}
    assert len(keys[4.5]) == len(kept[4.5])
    in_ball = {e.dedup_key() for e in word_ball(octagon, 4).elements
               if displacement(e, base) <= keep}
    assert keys[4.5] == keys[5.5] == in_ball


def wide_slack(group, base):
    """Twice the largest generator displacement at base: a heuristic slack
    far wider than the octagon's certified one."""
    return 2.0 * max(displacement(g, base) for _, g in group.symmetric_generators())


def test_certified_octagon_slack_keeps_the_wide_slack_deck(octagon, monkeypatch):
    center, rho = presets.octagon_center(), presets.octagon_circumradius()
    cli_keep = 2.0 * rho + 2.0 * 0.55 + 0.1    # the CLI's deck, as `nerve.SurfaceMetric` sums it
    for keep in (4.0, 5.0, cli_keep, 7.0):
        got = displacement_pruned_ball(octagon, center, keep, slack=rho, cap=10**6)
        want = displacement_pruned_ball(octagon, center, keep,
                                        slack=wide_slack(octagon, center), cap=10**6)
        assert [e.m for e in got] == [e.m for e in want]
    assert len(displacement_pruned_ball(octagon, center, cli_keep, slack=rho, cap=2000)) == 97
    with pytest.raises(CapExceededError):
        displacement_pruned_ball(octagon, center, cli_keep, slack=wide_slack(octagon, center),
                                 cap=2000)
    # The CLI's own deck fits the same cap, so it explores at the certified slack.
    pruned = nerve.displacement_pruned_ball
    monkeypatch.setattr(nerve, "displacement_pruned_ball",
                        lambda *args, **kw: pruned(*args, **dict(kw, cap=2000)))
    assert cli.main(["presentation", "--preset", "octagon-genus2"]) == 0


def test_mixed_exact_and_float_generators_keep_one_copy_of_each_element():
    # 1 and 1.0 key apart, so float products such as L L^-1 T once came back
    # beside the exact identity and T.  The all-exact group is the oracle.
    t = MoebiusIsometry(((1, 1), (0, 1)))
    l_float = MoebiusIsometry(((2.0, 0.0), (0.0, 0.5)))
    l_exact = MoebiusIsometry(((2, 0), (0, Fraction(1, 2))))
    want = [len(word_ball(FinitelyGeneratedGroup([t, l_exact]), r)) for r in (2, 3, 4)]
    assert want == [17, 53, 141]
    for gens in ([t, l_float], [l_float, t]):
        group = FinitelyGeneratedGroup(gens)
        assert not any(g.exact for g in group.generators)
        assert [len(word_ball(group, r)) for r in (2, 3, 4)] == want


def test_mixed_real_and_complex_generators_keep_one_copy_of_each_element():
    # Translations by 1 and by i generate Z^2: 2r^2 + 2r + 1 elements.
    real = MoebiusIsometry(((1.0, 1.0), (0.0, 1.0)))
    cplx = MoebiusIsometry(((1.0, 1j), (0.0, 1.0)))
    for gens in ([real, cplx], [cplx, real]):
        group = FinitelyGeneratedGroup(gens)
        assert [len(word_ball(group, r)) for r in (1, 2, 3)] == [5, 13, 25]


# -- batched (numpy) kernel against the scalar kernel ------------------------------

def use_scalar_kernel(monkeypatch):
    """From here on, every enumeration runs through the scalar kernel."""
    monkeypatch.setattr(wordballs, "_kernel", lambda start, steps, product, entries, reach:
                        wordballs._scalar_kernel(steps, product, entries, reach))


def kernel_of(group):
    return wordballs._kernel(group.identity(), group.symmetric_generators(), operator.mul,
                             wordballs._KEY_ENTRIES, None)


def first_array_candidate(group):
    """The first product the array kernel makes from the identity, or None
    when the group takes the scalar kernel."""
    _, rows_of, candidates, elements_of = kernel_of(group)
    if not candidates.__qualname__.startswith("_moebius_kernel"):
        return None
    keys, made, _ = candidates(rows_of([group.identity()]))
    assert all(type(k) is bytes for k in keys)
    return elements_of(made[:1])[0]


def takes_numpy_kernel(group):
    """The group's enumerations take the float branch of the array kernel."""
    first = first_array_candidate(group)
    return first is not None and not first.exact


def takes_int_kernel(group):
    """The group's enumerations take the integer branch of the array kernel."""
    first = first_array_candidate(group)
    return first is not None and first.exact


def test_numpy_kernel_keys_are_quantize_keys_packed():
    group = presets.octagon_genus2()
    key, _, candidates, elements_of = kernel_of(group)
    keys, made, _ = candidates(word_ball(group, 2).rows)
    assert [tuple(np.frombuffer(k, np.int64).tolist()) for k in keys] == [
        mat2.quantize(e.m) for e in elements_of(made)]
    assert key(group.identity()) == np.array(mat2.quantize(group.identity().m)).tobytes()


def small_translation(rng):
    """A hyperbolic element of translation length 0.05..0.5 along a random
    geodesic through i."""
    c, s = math.cos(rng.uniform(0, math.pi)), math.sin(rng.uniform(0, math.pi))
    rot = MoebiusIsometry(((c, s), (-s, c)))
    lam = math.exp(rng.uniform(0.05, 0.5) / 2.0)
    return rot * MoebiusIsometry(((lam, 0.0), (0.0, 1.0 / lam))) * rot.inverse()


def differential_cases():
    octagon = presets.octagon_genus2()
    straddle = FinitelyGeneratedGroup(
        [MoebiusIsometry(((1.0, 2.5e-6 + d), (0.0, 1.0))) for d in (1e-13, -1e-13)])
    straddling_sum = FinitelyGeneratedGroup(
        [MoebiusIsometry(((1.0, x), (0.0, 1.0))) for x in STRADDLING_SUM])
    h = MoebiusIsometry(((1.1, 0.3), (0.2, 1.06 / 1.1)))
    rng = np.random.default_rng(20141402)
    """(group, run) pairs: run(group) gives (word, element) entries."""
    cases = [(straddle, lambda g: word_ball(g, 3).entries),
             (straddling_sum, lambda g: word_ball(g, 3).entries),
             (presets.sl2z().conjugated(h), lambda g: word_ball(g, 8).entries)]
    for r in (2, 3, 4):
        cases.append((octagon.conjugated(small_translation(rng)),
                      lambda g, r=r: word_ball(g, r).entries))
    for base, keep, slack in ((HPoint(0.0, 1.0), 4.5, 4.5), (HPoint(0.1, 1.2), 4.2, 4.8)):
        cases.append((octagon, lambda g, b=base, k=keep, s=slack: [
            ((), e) for e in displacement_pruned_ball(g, b, k, slack=s)]))
    return cases


def assert_same_entries(got, want):
    assert [(w, e.m) for w, e in got] == [(w, e.m) for w, e in want]
    for (_, x), (_, y) in zip(got, want):
        assert x == y and hash(x) == hash(y)


def test_numpy_kernel_matches_scalar_kernel(monkeypatch):
    cases = differential_cases()
    assert all(takes_numpy_kernel(group) for group, _ in cases)
    batched = [run(group) for group, run in cases]
    use_scalar_kernel(monkeypatch)
    for (group, run), got in zip(cases, batched):
        assert_same_entries(got, run(group))


def random_sl2z(rng, length):
    """A seeded word of the given length in S T^k, 1 <= |k| <= 3."""
    m = (1, 0, 0, 1)
    for _ in range(length):
        k = int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
        m = mat2.mul(mat2.mul(m, (0, -1, 1, 0)), (1, k, 0, 1))
    return MoebiusIsometry(m)


def int_cases():
    """(group, run) pairs over SL(2, Z) and its integer conjugates."""
    sl2z = presets.sl2z()
    rng = np.random.default_rng(1402)
    cases = [(sl2z, lambda g: word_ball(g, 10).entries)]
    for length in (2, 3, 4):
        cases.append((sl2z.conjugated(random_sl2z(rng, length)),
                      lambda g: word_ball(g, 8).entries))
    for keep in (4, 6):
        cases.append((sl2z, lambda g, k=keep: [
            ((), e) for e in displacement_pruned_ball(g, HPoint(0.1, 1.7), k, slack=2)]))
    return cases


def test_int_kernel_matches_scalar_kernel(monkeypatch):
    cases = int_cases()
    assert all(takes_int_kernel(group) for group, _ in cases)
    batched = [run(group) for group, run in cases]
    for entries in batched:
        assert all(e.exact and set(map(type, e.m)) == {int} for _, e in entries)
    use_scalar_kernel(monkeypatch)
    for (group, run), got in zip(cases, batched):
        assert_same_entries(got, run(group))


def test_int_kernel_carries_on_exactly_past_int64(monkeypatch):
    # Entries of g^k are Fibonacci numbers, past 2^63 from k = 46 on.  The
    # steps of the second group are past int64 already, so its chunks all
    # take the scalar kernel.
    g = MoebiusIsometry(((2, 1), (1, 1)))
    assert takes_int_kernel(FinitelyGeneratedGroup([g]))
    for gen, radius in ((g, 50), (MoebiusIsometry(((1, 2 ** 70), (0, 1))), 3)):
        group = FinitelyGeneratedGroup([gen])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ball = word_ball(group, radius)
        pos, neg = [(1, 0, 0, 1)], [(1, 0, 0, 1)]
        for _ in range(radius):
            pos.append(mat2.mul(pos[-1], gen.m))
            neg.append(mat2.mul(neg[-1], gen.inverse().m))
        powers = pos[:1] + [m for pair in zip(pos[1:], neg[1:]) for m in pair]
        assert [e.m for e in ball.elements] == [mat2.canonicalize_sign(m, True) for m in powers]
        with monkeypatch.context() as patch:
            use_scalar_kernel(patch)
            assert_same_entries(ball.entries, word_ball(group, radius).entries)


def test_fraction_groups_take_the_scalar_kernel():
    t = MoebiusIsometry(((1, 1), (0, 1)))
    for gen in (MoebiusIsometry(((1, Fraction(1, 2)), (0, 1))),
                MoebiusIsometry(((2, 0), (0, Fraction(1, 2))))):
        group = FinitelyGeneratedGroup([t, gen])
        assert first_array_candidate(group) is None


def cap_error(run):
    with pytest.raises(CapExceededError) as info:
        run()
    return str(info.value), info.value.entries


def test_straddle_probes_are_the_scalar_straddle_keys():
    # Rows with random entries on a cell boundary (up to all four), probed
    # as arrays and one row at a time by `_straddle_keys`.
    rng = np.random.default_rng(62)
    on_boundary = rng.random((500, 4)) < 0.5
    offset = np.where(on_boundary, 0.5 + rng.uniform(-1e-9, 1e-9, (500, 4)),
                      rng.uniform(-0.4, 0.4, (500, 4)))
    m = (rng.integers(-10**6, 10**6, (500, 4)) + offset) * mat2.GRID
    cells, near = wordballs._straddle(m, np.abs(m))
    assert 0 < len(near) < 500
    for i, row in enumerate(m.tolist()):
        k = mat2.quantize(row)
        assert tuple(cells[i].tolist()) == k
        want = [wordballs._pack(c) for c in wordballs._straddle_keys(row, k)]
        assert sorted(near.get(i, [])) == sorted(want)


def test_numpy_kernel_trips_the_cap_where_the_scalar_kernel_does(monkeypatch):
    octagon, base = presets.octagon_genus2(), presets.octagon_center()
    sl2z = presets.sl2z()
    runs = [lambda: word_ball(octagon, 4, cap=500),
            lambda: displacement_pruned_ball(octagon, base, 4.5, slack=4.5, cap=300),
            lambda: word_ball(sl2z, 12, cap=500),
            lambda: displacement_pruned_ball(sl2z, HPoint(0.1, 1.7), 6, slack=2, cap=500)]
    batched = [cap_error(run) for run in runs]
    # A word ball's cap error names the word length it was building and the
    # last complete radius with its size.
    assert [len(word_ball(g, r)) for g, r in ((octagon, 3), (sl2z, 9), (sl2z, 10))] == [
        457, 460, 748]
    assert [message for message, _ in batched[::2]] == [
        "word ball of radius 4 exceeded 500 elements at word length 4; "
        "radius 3 is complete with 457 elements",
        "word ball of radius 12 exceeded 500 elements at word length 10; "
        "radius 9 is complete with 460 elements"]
    use_scalar_kernel(monkeypatch)
    for run, (message, entries) in zip(runs, batched):
        want_message, want_entries = cap_error(run)
        assert message == want_message
        assert_same_entries(entries, want_entries)


# -- the reach filter of the pruned orbit ball ------------------------------------

def without_reach(monkeypatch):
    """From here on, `_bfs` ignores any reach: every candidate is keyed."""
    bfs = wordballs._bfs
    monkeypatch.setattr(wordballs, "_bfs", lambda *args, reach=None, **kw: bfs(*args, **kw))


def reach_cases():
    """(base, keep, slack) of the surface presentation in the benchmark, of
    the CLI's default octagon deck at the wide slack, and of three seeded
    bases with keep and slack in [4, 5]."""
    center, rho = presets.octagon_center(), presets.octagon_circumradius()
    keep = 2.0 * rho + 1.1 + 0.1    # as `nerve.SurfaceMetric` sums it
    cases = [(center, keep, 5.0), (center, keep, wide_slack(presets.octagon_genus2(), center))]
    rng = np.random.default_rng(1402)
    for _ in range(3):
        base = HPoint(rng.uniform(-0.2, 0.2), math.exp(rng.uniform(-0.2, 0.2)))
        cases.append((base, rng.uniform(4.0, 5.0), rng.uniform(4.0, 5.0)))
    return cases


def test_reach_filter_keeps_the_pruned_ball_on_both_kernels(monkeypatch):
    octagon = presets.octagon_genus2()

    def balls():
        return [[((), e) for e in displacement_pruned_ball(octagon, b, k, slack=s, cap=10**6)]
                for b, k, s in reach_cases()]

    want = balls()
    assert len(want[1]) == 97
    with monkeypatch.context() as patch:
        use_scalar_kernel(patch)
        for got, ball in zip(balls(), want):
            assert_same_entries(got, ball)
    without_reach(monkeypatch)
    # Without a reach the first two cases key 10^5 and 3 * 10^5 elements,
    # about 12 s on the scalar kernel, which runs them only with a reach.
    for got, ball in zip(balls(), want):
        assert_same_entries(got, ball)
    use_scalar_kernel(monkeypatch)
    for (b, k, s), ball in list(zip(reach_cases(), want))[2:]:
        assert_same_entries([((), e) for e in displacement_pruned_ball(
            octagon, b, k, slack=s, cap=10**6)], ball)


def test_both_kernels_cap_the_pruned_ball_at_the_elements_within_reach(monkeypatch):
    octagon = presets.octagon_genus2()
    base, keep, slack = reach_cases()[2]
    calls = []

    def counted(w, p):
        calls.append(displacement(w, p))
        return calls[-1]

    monkeypatch.setattr(wordballs.hyperbolic, "displacement", counted)

    def run(cap):
        return [((), e) for e in displacement_pruned_ball(octagon, base, keep, slack=slack,
                                                          cap=cap)]

    want = run(10**6)
    # The identity is keyed as the start, without a displacement call.
    n = len(calls) + 1
    assert 0 < len(want) < n
    expanded = sum(d <= keep + slack for d in calls)

    def capped():
        calls.clear()
        assert_same_entries(run(n), want)
        assert len(calls) == n - 1
        return cap_error(lambda: run(n - 1))

    message, entries = capped()
    use_scalar_kernel(monkeypatch)
    want_message, want_entries = capped()
    assert message == want_message == "pruned orbit ball exceeded %d elements" % (n - 1)
    assert_same_entries(entries, want_entries)
    # The reach drops no element that the BFS would expand.
    without_reach(monkeypatch)
    calls.clear()
    assert_same_entries(run(10**6), want)
    assert len(calls) > n and sum(d <= keep + slack for d in calls) == expanded


def test_pruned_ball_tests_each_chunk_in_keying_order(monkeypatch):
    # CHUNK = 1 keys and tests the products of one frontier element at a time.
    calls = []

    def counted(w, p):
        calls.append(displacement(w, p))
        return calls[-1]

    monkeypatch.setattr(wordballs.hyperbolic, "displacement", counted)
    octagon, sl2z = presets.octagon_genus2(), presets.sl2z()
    base, keep, slack = reach_cases()[2]
    picard = FinitelyGeneratedGroup([MoebiusIsometry(((1, 1), (0, 1))),
                                     MoebiusIsometry(((1, 1j), (0, 1))),
                                     MoebiusIsometry(((0, -1), (1, 0)))])
    runs = [(lambda cap: displacement_pruned_ball(octagon, base, keep, slack=slack, cap=cap), 300),
            (lambda cap: displacement_pruned_ball(sl2z, HPoint(0.1, 1.7), 6, slack=2, cap=cap),
             500),
            (lambda cap: displacement_pruned_ball(picard, HPoint(0.1, 0.2, 1.3), 2.5, slack=1.0,
                                                  cap=cap), 100)]

    def record(run, cap):
        calls.clear()
        kept = [((), e) for e in run(10**6)]
        full = list(calls)
        calls.clear()
        message, entries = cap_error(lambda: run(cap))
        return full, kept, list(calls), message, entries

    want = [record(*run) for run in runs]
    monkeypatch.setattr(wordballs, "CHUNK", 1)
    for run, (full, kept, capped, message, entries) in zip(runs, want):
        got = record(*run)
        assert len(full) > len(capped) > 0
        assert got[0] == full and got[2] == capped and got[3] == message
        assert_same_entries(got[1], kept)
        assert_same_entries(got[4], entries)


def genus4_side_pairings():
    """The eight translations pairing opposite sides of the regular 16-gon
    about i with vertex angle pi / 8 (a genus-4 surface group), and the
    16-gon's circumradius."""
    a = 1.0 / math.tan(math.pi / 16.0)    # cosh of half the translation length
    b = math.sqrt(a * a - 1.0)
    t = MoebiusIsometry(((a, b), (b, a)))
    turns = [presets._rotation_about_i(k * math.pi / 8.0) for k in range(8)]
    return FinitelyGeneratedGroup([r * t * r.inverse() for r in turns]), math.acosh(a * a)


def test_genus4_deck_passes_products_beyond_the_reach_that_fail_normalization():
    # Some length-4 products beyond the reach are off determinant one by
    # more than mat2.DET_DRIFT once normalized; they must not stop the ball.
    group, rho = genus4_side_pairings()
    with pytest.raises(PreconditionError, match="product of word length 4 failed"):
        word_ball(group, 4)
    keep = 2.0 * rho + 1.2
    kept = displacement_pruned_ball(group, HPoint(0.0, 1.0), keep, slack=rho)

    def orbit(elements):
        m = np.array([e.m for e in elements], dtype=float)
        w = (m[:, 0] * 1j + m[:, 1]) / (m[:, 2] * 1j + m[:, 3])
        return w, np.arccosh(1.0 + np.abs(w - 1j) ** 2 / (2.0 * w.imag))

    w, d = orbit(kept)
    assert d.max() <= keep + 1e-9
    assert any(e.is_identity() for e in kept)
    gaps = np.abs(w[:, None] - w[None, :]) + np.eye(len(w))
    assert gaps.min() > 1e-6                                    # distinct orbit points
    w_inv, _ = orbit([e.inverse() for e in kept])
    assert np.abs(w_inv[:, None] - w[None, :]).min(axis=1).max() < 1e-6    # closed under inverse
    # Every element of the radius-3 word ball within keep is found.
    w3, d3 = orbit(word_ball(group, 3).elements)
    assert np.abs(w3[d3 <= keep - 1e-9][:, None] - w[None, :]).min(axis=1).max() < 1e-6


def test_genus4_deck_stays_on_the_array_kernel(monkeypatch):
    # The reach drops the products that fail normalization before they are
    # normalized, so no chunk falls back to the scalar kernel; the kept set
    # and the displacements tested are those of the scalar kernel.
    group, rho = genus4_side_pairings()
    calls, fallbacks = [], []
    scalar_kernel = wordballs._scalar_kernel

    def counting(*args):
        key, rows_of, candidates, elements_of = scalar_kernel(*args)

        def counted(chunk):
            fallbacks.append(len(chunk))
            return candidates(chunk)
        return key, rows_of, counted, elements_of

    def counted(w, p):
        calls.append(displacement(w, p))
        return calls[-1]

    monkeypatch.setattr(wordballs, "_scalar_kernel", counting)
    monkeypatch.setattr(wordballs.hyperbolic, "displacement", counted)

    def run():
        calls.clear()
        kept = displacement_pruned_ball(group, HPoint(0.0, 1.0), 2.0 * rho + 1.2, slack=rho)
        return [((), e) for e in kept], list(calls)

    kept, tested = run()
    assert fallbacks == [] and len(kept) == 673
    use_scalar_kernel(monkeypatch)
    want_kept, want_tested = run()
    assert len(fallbacks) > 0
    assert_same_entries(kept, want_kept)
    assert tested == want_tested


def test_keys_beyond_int64_take_the_scalar_kernel(monkeypatch):
    # Entries of g^3 reach e^60: x / GRID leaves int64.
    group = presets.cyclic_hyperbolic(40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball = word_ball(group, 3)
    assert [w for w, _ in ball.entries] == [(), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1),
                                            (-1, -1, -1)]
    use_scalar_kernel(monkeypatch)
    assert_same_entries(ball.entries, word_ball(group, 3).entries)


# -- the array-backed ball ---------------------------------------------------------

def array_ball_cases():
    """(group, radius) pairs whose balls take the array kernel: the octagon
    for r <= 4, three seeded float conjugates at r = 4, SL(2, Z) at r = 10,
    an integer conjugate, and integer entries past 2^62."""
    octagon, sl2z = presets.octagon_genus2(), presets.sl2z()
    rng = np.random.default_rng(31)
    cases = [(octagon, r) for r in range(5)]
    cases += [(octagon.conjugated(small_translation(rng)), 4) for _ in range(3)]
    cases += [(sl2z, 10), (sl2z.conjugated(random_sl2z(rng, 3)), 8),
              (FinitelyGeneratedGroup([MoebiusIsometry(((2, 1), (1, 1)))]), 50)]
    return cases


def test_array_backed_ball_materializes_to_the_scalar_kernel_ball(monkeypatch):
    cases = array_ball_cases()
    balls = [word_ball(g, r) for g, r in cases]
    walked = [[ball.word(i) for i in range(len(ball))] for ball in balls]
    assert all(ball.rows.ndim == 2 for ball in balls)    # rows of entries
    assert balls[-1].rows.dtype == object and balls[-2].rows.dtype == np.int64
    for (g, _), ball in zip(cases, balls):
        # Each word, multiplied out step by step, gives its element bit for bit.
        steps = dict(g.symmetric_generators())
        for w, e in ball:
            assert functools.reduce(lambda x, label: x * steps[label], w, g.identity()).m == e.m
    use_scalar_kernel(monkeypatch)
    for (g, r), ball, words in zip(cases, balls, walked):
        want = word_ball(g, r)
        assert want.rows.ndim == 1    # elements
        assert [(w, e.m) for w, e in ball] == [(w, e.m) for w, e in want.entries]
        assert words == ball.words == [w for w, _ in want.entries]
        assert_same_entries(ball.entries, want.entries)


def test_a_ball_read_only_for_its_size_builds_no_element(monkeypatch):
    built = []
    make = MoebiusIsometry.from_canonical.__func__

    def counting(cls, m, exact):
        built.append(m)
        return make(cls, m, exact)

    monkeypatch.setattr(MoebiusIsometry, "from_canonical", classmethod(counting))
    group = presets.octagon_genus2().conjugated(small_translation(np.random.default_rng(4)))
    ball = word_ball(group, 4)
    assert len(ball) == 3193 and built == []
    assert ball.word(3192) and ball.element(3192).m == tuple(ball.rows[3192].tolist())
    assert len(built) == 1
    assert len(ball.elements) == 3193 and len(built) == 3194
    built.clear()    # an injectivity radius classifies nothing, so builds nothing
    assert lattice_lab.injectivity_radius(group, HPoint(0.1, 1.1), 3).minimizer_word
    assert built == []


def test_ball_geometry_stacks_its_rows_bit_for_bit():
    fib = FinitelyGeneratedGroup([MoebiusIsometry(((2, 1), (1, 1)))])
    for group, radius in ((presets.octagon_genus2(), 3), (presets.sl2z(), 6), (fib, 50)):
        bg = lattice_lab.BallGeometry(group, radius)
        got, want = bg.stacked, wordballs.stack_moebius(bg.elements)
        assert len(got) == len(want) == 4
        for x, y in zip(got, want):
            assert x.dtype == y.dtype == complex
            assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def test_ball_experiments_match_the_scalar_kernel_on_seeded_points(monkeypatch):
    rng = np.random.default_rng(1402)
    points = [HPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)) for _ in range(30)]
    h = small_translation(rng)

    def groups():
        # Built per run: runs on one group object would share its geometry.
        octagon = presets.octagon_genus2()
        return octagon, octagon.conjugated(h)

    runs = [lambda: [lattice_lab.injectivity_radius(g, x, 3) for g in groups() for x in points],
            lambda: lattice_lab.thick_thin_scan(groups()[0], 3.2, points, 3),
            lambda: lattice_lab.thick_thin_scan(presets.cyclic_hyperbolic(0.1), 0.5, points, 4),
            lambda: lattice_lab.thick_thin_scan(presets.cusp_model(), 0.8, points, 5)]
    got = [run() for run in runs]
    assert all(any(c.samples for c in scan.thin_components) for scan in got[1:])
    use_scalar_kernel(monkeypatch)
    assert got == [run() for run in runs]
