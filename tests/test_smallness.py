import math
from fractions import Fraction

import numpy as np
import pytest

from latticelab import lattice_lab as lab
from latticelab import mat2, presets
from latticelab import smallness as sm
from latticelab.errors import CapExceededError, PreconditionError
from latticelab.hyperbolic import HPoint, INFINITY


# -- commutator ---------------------------------------------------------------

def test_commutator_with_identity_trivial():
    a = sm.mat_from([[2, 1], [1, 1]])
    e = mat2.mat_identity(2)
    assert sm.commutator(a, e) == e
    assert sm.commutator(a, a) == e


def test_commutator_small_perturbations_value_and_bound():
    a = [[1, Fraction(1, 10)], [0, 1]]
    b = [[1, 0], [Fraction(1, 10), 1]]
    c = sm.commutator(sm.mat_from(a), sm.mat_from(b))
    d = sm.frobenius_to_identity(c)
    assert abs(d - 0.014283206922816738) < 1e-12
    assert d <= 8 * 0.1 * 0.1


def test_commutator_contraction_bound_random_pairs():
    # 200 random pairs with ||a-1|| <= eps, ||b-1|| <= delta, eps <= 1/8.
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        eps = rng.uniform(0.01, 1 / 8)
        delta = rng.uniform(0.005, eps)
        x = rng.normal(size=(dim, dim))
        y = rng.normal(size=(dim, dim))
        x *= eps / np.linalg.norm(x)
        y *= delta / np.linalg.norm(y)
        lhs = sm.frobenius_to_identity(sm.commutator(np.eye(dim) + x, np.eye(dim) + y))
        assert lhs <= 8 * np.linalg.norm(x) * np.linalg.norm(y) + 1e-13


def test_commutator_dimension_mismatch():
    with pytest.raises(PreconditionError):
        sm.commutator(sm.mat_from([[1, 0], [0, 1]]),
                      sm.mat_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


# -- ladders --------------------------------------------------------------------

def test_ladder_identity_set_all_zero():
    lad = sm.commutator_ladder([[[1, 0], [0, 1]]], 4)
    assert all(d == 0 for d in lad.max_dists)


def test_ladder_exponential_decay_bound():
    s = [[[1, 0.05], [0, 1]], [[1, 0], [0.05, 1]]]
    lad = sm.commutator_ladder(s, 5)
    assert lad.bound_asserted
    assert lad.bound_violations == 0
    for n in range(1, 6):
        assert lad.max_dists[n] <= 0.05 * (0.4) ** n + 1e-12


def test_ladder_large_set_no_bound_flag():
    s = [[[2.0, 0.0], [0.0, 0.5]], [[1.0, 1.0], [0.0, 1.0]]]
    lad = sm.commutator_ladder(s, 3)
    assert not lad.bound_asserted
    assert lad.max_dists[0] > 1 / 8


def test_ladder_names_the_level_that_goes_singular():
    # Far outside the contraction regime the level-4 entries reach 1e10 and
    # a level-5 commutator is singular in floats.
    s = [np.eye(2) + 1.5 * np.array([[0.0, 1.0], [0.0, 0.0]]),
         np.eye(2) + 1.5 * np.array([[0.0, 0.0], [1.0, 0.0]])]
    assert len(sm.commutator_ladder(s, 4).max_dists) == 5
    with pytest.raises(PreconditionError, match="^commutator ladder level 5: singular matrix$"):
        sm.commutator_ladder(s, 5)


def test_ladder_incremental_equals_recomputed():
    s = [[[1, Fraction(1, 20)], [0, 1]], [[1, 0], [Fraction(1, 20), 1]]]
    full = sm.commutator_ladder(s, 4)
    # Recompute each level from scratch through a fresh shorter ladder.
    for n in range(1, 5):
        again = sm.commutator_ladder(s, n)
        assert again.levels[n] == full.levels[n]
        assert again.max_dists[n] == full.max_dists[n]


# -- nilpotency -------------------------------------------------------------------

def test_nilpotency_unipotent_pair():
    v = sm.nilpotency_class([[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                             [[1, 0, 0], [0, 1, 1], [0, 0, 1]]], 5)
    assert v.nilpotency_class == 2
    assert v.exact


def test_nilpotency_commuting_diagonals():
    v = sm.nilpotency_class([[[2, 0], [0, 3]], [[5, 0], [0, 7]]], 3)
    assert v.nilpotency_class == 1


def test_nilpotency_free_pair_exceeds_cutoff():
    v = sm.nilpotency_class([[[2, 1], [1, 1]], [[1, 1], [1, 2]]], 4)
    assert v.exceeds_cutoff


# -- Jordan bound -------------------------------------------------------------------

def test_icosahedral_group_order(a5_group):
    assert len(a5_group) == 60


def test_cyclic_rotations_index_one():
    gens = [sm.mat_from([[math.cos(2 * math.pi / 7), -math.sin(2 * math.pi / 7)],
                         [math.sin(2 * math.pi / 7), math.cos(2 * math.pi / 7)]])]
    group = sm.close_under_multiplication(gens, cap=32)
    assert len(group) == 7
    rep = sm.jordan_abelian_index(group, 2.0)
    assert rep.index == 1
    assert rep.abelian_verified


def test_close_under_multiplication_cap():
    gens = [sm.mat_from([[math.cos(2 * math.pi / 7), -math.sin(2 * math.pi / 7)],
                         [math.sin(2 * math.pi / 7), math.cos(2 * math.pi / 7)]])]
    assert len(sm.close_under_multiplication(gens, cap=7)) == 7
    with pytest.raises(CapExceededError, match="closure exceeded 6 elements"):
        sm.close_under_multiplication(gens, cap=6)


def test_icosahedral_jordan_index_and_bruteforce(a5_group):
    # Smallest nonidentity rotation is by 2 pi / 5: Frobenius distance
    # 2 sqrt(2) sin(pi/5) > 1.6, so eps = 0.5 captures nothing.
    rep = sm.jordan_abelian_index(a5_group, 0.5)
    assert rep.group_size == 60
    assert rep.subgroup_size == 1
    assert rep.index == 60
    assert rep.abelian_verified
    oracle_index, oracle_size = sm.max_abelian_index_bruteforce(a5_group)
    assert (oracle_index, oracle_size) == (12, 5)
    assert oracle_index <= rep.index


def test_icosahedral_angle_metric():
    group = sm.icosahedral_rotation_group()
    # Rotation angle of an SO(3) matrix: tr = 1 + 2 cos(angle).
    angles = sorted({round(math.acos(min(1.0, max(-1.0, (np.trace(m) - 1.0) / 2.0))), 6)
                     for m in group})
    expected = {0.0, 2 * math.pi / 5, 4 * math.pi / 5, 2 * math.pi / 3, math.pi}
    assert angles == sorted(round(a, 6) for a in expected)


def test_quaternion_group_bruteforce_index_two():
    q8 = sm.quaternion_group_su2()
    assert len(q8) == 8
    oracle_index, oracle_size = sm.max_abelian_index_bruteforce(q8)
    assert (oracle_index, oracle_size) == (2, 4)
    rep = sm.jordan_abelian_index(q8, 0.5)
    assert rep.index == 8
    assert oracle_index <= rep.index


def test_jordan_rejects_non_closed_set():
    a5 = sm.icosahedral_rotation_group()
    with pytest.raises(PreconditionError):
        sm.jordan_abelian_index(a5[:10], 0.5)


def test_cayley_table_is_the_pairwise_product_table(a5_group):
    turn = 2 * math.pi / 7
    groups = {
        "a5": a5_group,
        "q8": sm.quaternion_group_su2(),
        "7-fold rotations": sm.close_under_multiplication(
            [sm.mat_from([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])]),
        "exact quarter turns": sm.close_under_multiplication([sm.mat_from([[0, -1], [1, 0]])]),
    }
    assert sorted(map(len, groups.values())) == [4, 7, 8, 60]
    key = lambda m: mat2.quantize(sm._flat(m))
    for name, elements in groups.items():
        index = {key(m): i for i, m in enumerate(elements)}
        pairwise = [[index[key(mat2.mat_mul(a, b))] for b in elements] for a in elements]
        assert sm._cayley_table(elements).tolist() == pairwise, name
    with pytest.raises(PreconditionError, match="not closed"):
        sm._cayley_table(a5_group[:10])
    with pytest.raises(PreconditionError, match="not closed"):
        sm.max_abelian_index_bruteforce(a5_group[:10])


# -- short subgroups --------------------------------------------------------------------

def test_short_subgroup_parabolic_high_in_cusp(sl2z):
    rep = sm.margulis_short_subgroup(sl2z, HPoint(0, 10), 0.1, 6)
    assert rep.kind == "elementary-parabolic"
    assert rep.fixed_boundary == INFINITY
    assert sorted(rep.short_words) == [(-2,), (2,)]
    assert math.acosh(1 + 1 / 200) < 0.1


def test_short_subgroup_empty_off_the_thin_part(sl2z):
    rep = sm.margulis_short_subgroup(sl2z, HPoint(0, 1.5), 0.01, 6)
    assert rep.kind == "trivial"
    assert rep.short_words == []


def test_short_subgroup_elliptic_at_torsion_point(sl2z):
    # The order-2 element fixes i, so the short set there is never empty.
    rep = sm.margulis_short_subgroup(sl2z, HPoint(0, 1), 0.01, 6)
    assert rep.kind == "elementary-elliptic"
    assert rep.fixed_interior.close_to(HPoint(0, 1), 1e-6)


def test_short_subgroup_cyclic_hyperbolic_on_axis():
    group = presets.cyclic_hyperbolic(0.3)
    rep = sm.margulis_short_subgroup(group, HPoint(0, 1), 0.5, 4)
    assert rep.kind == "elementary-hyperbolic"
    assert rep.axis is not None
    assert sorted(rep.short_words) == [(-1,), (1,)]


def test_short_subgroup_of_two_kinds_is_not_elementary(sl2z):
    # At i the elliptic S displaces by 0 and the parabolic T by acosh(3/2) < 1.
    rep = sm.margulis_short_subgroup(sl2z, HPoint(0, 1), 1.0, 6)
    assert rep.kind == "not-elementary-within-cutoff"
    assert {(1,), (2,), (-2,)} <= set(rep.short_words)
    assert (rep.axis, rep.fixed_boundary, rep.fixed_interior) == (None, None, None)


def scan_verdict(scan):
    """(kind, data, witness words) of the one sample of a thick-thin scan,
    in the terms of ShortSubgroupReport."""
    if scan.thick_samples:
        return "trivial", None, []
    comps = scan.thin_components + scan.cone_components
    words = sorted(w for c in comps for w in c.witnesses)
    if scan.unresolved_samples:
        return "not-elementary-within-cutoff", None, words
    (comp,) = comps
    if isinstance(comp, lab.ConeComponentReport):
        return "elementary-elliptic", comp.fixed_point, words
    if comp.kind == "tube":
        return "elementary-hyperbolic", comp.axis, words
    return "elementary-parabolic", comp.fixed_point, words


def test_short_subgroup_agrees_with_a_one_sample_thick_thin_scan():
    rng = np.random.default_rng(41)
    seen = set()
    for name in ("sl2z", "cusp-model", "cyclic-hyperbolic"):
        group = presets.get_group(name)
        for _ in range(60):
            x = HPoint(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 2.5)))
            eps = rng.uniform(0.05, 1.5)
            rep = sm.margulis_short_subgroup(group, x, eps, 4)
            # thick_thin_scan calls an element short when d < eps, Margulis when d <= eps.
            scan = lab.thick_thin_scan(group, np.nextafter(eps, np.inf), [x], 4)
            kind, data, words = scan_verdict(scan)
            assert (kind, words) == (rep.kind, sorted(rep.short_words))
            want = rep.axis if rep.axis is not None else (
                rep.fixed_boundary if rep.fixed_boundary is not None else rep.fixed_interior)
            if isinstance(want, HPoint):
                data, want = data.coords, want.coords
            assert data == want
            seen.add(rep.kind)
    assert seen == {"trivial", "elementary-hyperbolic", "elementary-parabolic",
                    "elementary-elliptic", "not-elementary-within-cutoff"}
