from fractions import Fraction

from hypothesis import given, strategies as st
import pytest

from latticelab import mat2, presets
from latticelab.euclidean import EuclideanIsometry
from latticelab.hyperbolic import MoebiusIsometry, displacement
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


def test_conjugate_octagon_ball_has_dehn_size():
    # A conjugate whose radius-5 ball kept one element twice when each float
    # entry was keyed by its own cell alone; Dehn's algorithm gives 22289.
    h = MoebiusIsometry((1.02778328885549, -0.08054773434594242,
                         -0.08054773434594237, 0.9792803097908516))
    assert len(word_ball(presets.octagon_genus2().conjugated(h), 5)) == 22289


@pytest.fixture(scope="module")
def octagon():
    return presets.octagon_genus2()


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
