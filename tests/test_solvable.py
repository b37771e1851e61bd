from fractions import Fraction
import itertools
import tracemalloc

import numpy as np
import pytest

from latticelab import solvable as sol
from latticelab.errors import PreconditionError


# -- the diagonal-style subgroup --------------------------------------------------

def test_group_law_matches_affine_convention():
    g = sol.AffineElement((7,), (3,), (2,)) * sol.AffineElement((7,), (4,), (5,))
    # (a, b)(a', b') = (a a', a b' + b)
    assert g.a == (12 % 7,)
    assert g.b == ((3 * 5 + 2) % 7,)


def test_identity_and_inverse():
    e = sol.AffineElement((5, 7), (1, 1), (0, 0))
    g = sol.AffineElement((5, 7), (2, 3), (1, 6))
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()
    assert (g * e).a == g.a and (g * e).b == g.b


def test_gamma_product_closure_exhaustive_small_primes():
    # (a, a-1)(a', a'-1) = (aa', aa'-1): all 16 unit pairs mod 5, and the
    # other primes up to 13 exhaustively.
    for p in (2, 3, 5, 7, 11, 13):
        for x in range(1, p):
            for y in range(1, p):
                g = sol.gamma_element((p,), (x,)) * sol.gamma_element((p,), (y,))
                assert g.b[0] == (g.a[0] - 1) % p
    assert sol.gamma_closure_check((5, 7, 11, 13)) is True
    assert sol.gamma_closure_check((101, 257), sample_size=50) is True


def test_gamma_identity_element():
    g = sol.gamma_element((5,), (1,))
    assert g.is_identity()


def test_corrupted_pair_fails_closure():
    # Negative control: (a, a) is not of diagonal style and products leave
    # the candidate set.
    p = 5
    bad = sol.AffineElement((p,), (2,), (2,))
    prod = bad * bad
    assert prod.b[0] != (prod.a[0] - 1) % p


def test_composite_modulus_rejected():
    with pytest.raises(PreconditionError):
        sol.gamma_closure_check((6,))


# -- indices -------------------------------------------------------------------------

def test_indices_two_primes():
    rep = sol.indices((5, 7), 2)
    assert (rep["group_index"], rep["gamma_index"]) == (7, 6)
    assert rep["route"] == "coset-enumeration"


def test_indices_base_level():
    rep = sol.indices((5, 7), 1)
    assert (rep["group_index"], rep["gamma_index"]) == (5, 4)


def test_indices_prime_two_gains_nothing():
    rep = sol.indices((2, 3), 1)
    assert (rep["group_index"], rep["gamma_index"]) == (2, 1)


def test_indices_match_formula_for_all_levels():
    primes = (5, 7, 11)
    for m in (1, 2, 3):
        rep = sol.indices(primes, m)
        assert rep["group_index"] == primes[m - 1]
        assert rep["gamma_index"] == primes[m - 1] - 1


# The object-based reference: every element an AffineElement, listed in
# itertools.product order, and each coset's products kept in a set.

def _reference_group(primes, m):
    units = [range(1, p) for p in primes]
    adds = [range(p) if i < m else range(1) for i, p in enumerate(primes)]
    return [sol.AffineElement(primes, a, b)
            for a in itertools.product(*units) for b in itertools.product(*adds)]


def _reference_gamma(primes, m):
    choices = [range(1, p) if i < m else range(1, 2) for i, p in enumerate(primes)]
    return [sol.gamma_element(primes, a) for a in itertools.product(*choices)]


def _reference_cosets(big, small):
    reps = 0
    covered = set()
    for e in big:
        if (e.a, e.b) in covered:
            continue
        reps += 1
        for f in small:
            prod = e * f
            covered.add((prod.a, prod.b))
    return reps


def _rows(elements):
    return [e.a + e.b for e in elements]


@pytest.mark.parametrize("primes", [(5, 7), (5, 7, 11), (7, 11, 5), (2, 3, 5), (13, 17, 2),
                                    (3, 3, 5)])
def test_indices_match_the_object_reference_at_every_level(primes):
    for m in range(1, len(primes) + 1):
        want = (_reference_cosets(_reference_group(primes, m), _reference_group(primes, m - 1)),
                _reference_cosets(_reference_gamma(primes, m), _reference_gamma(primes, m - 1)))
        rep = sol.indices(primes, m)
        assert (rep["group_index"], rep["gamma_index"]) == want
        assert rep["route"] == "coset-enumeration"


@pytest.mark.parametrize("primes", [(5, 7), (2, 3, 5), (3, 3, 5)])
def test_truncations_match_the_product_enumeration_row_for_row(primes):
    for m in range(len(primes) + 1):
        group = sol._truncated_group(primes, m)
        gamma = sol._gamma_subgroup(primes, m)
        assert group.dtype == gamma.dtype == np.int64
        assert [tuple(r) for r in group.tolist()] == _rows(_reference_group(primes, m))
        assert [tuple(r) for r in gamma.tolist()] == _rows(_reference_gamma(primes, m))


def test_coset_product_outside_the_truncation_raises():
    # Negative control: a `small` row with b nonzero above level m is not in
    # G_m, so its products have no position in G_m's enumeration.
    primes = (5, 7)
    big = sol._truncated_group(primes, 1)
    small = sol._truncated_group(primes, 0)
    assert sol._count_cosets(primes, 1, big, small) == 5
    small[3, 3] = 1                                     # b_2 = 1 above level 1
    with pytest.raises(PreconditionError, match="outside G_1"):
        sol._count_cosets(primes, 1, big, small)


def test_indices_memory_is_bounded_by_the_row_arrays():
    # |G_3| = 92400 rows of 6 int64; per-element objects and a set of
    # product tuples peaked at 38 MB.
    tracemalloc.start()
    try:
        assert sol.indices((5, 7, 11), 3)["group_index"] == 11
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_indices_orbit_stabilizer_route_above_cap():
    rep = sol.indices((5, 7, 11), 3, enumeration_cap=100)
    assert (rep["group_index"], rep["gamma_index"]) == (11, 10)
    assert "orbit-stabilizer" in rep["route"]


# -- covolume ---------------------------------------------------------------------------

def test_covolume_product_5_7_11():
    assert sol.covolume_product((5, 7, 11), 3) == Fraction(77, 48)


def test_covolume_empty_product():
    assert sol.covolume_product((5, 7, 11), 0) == 1


def test_covolume_equals_order_counting():
    for primes in ((5, 7), (5, 7, 11), (3, 5, 13)):
        for m in range(len(primes) + 1):
            assert sol.covolume_product(primes, m) == sol.covolume_vs_counting(primes, m)


def test_covolume_counting_identity_explicit_enumeration():
    # |G_m| = covolume * |compact| * |Gamma_m| with honest element counts.
    primes = (5, 7)
    for m in (0, 1, 2):
        gm = len(sol._truncated_group(primes, m))
        gamma = len(sol._gamma_subgroup(primes, m))
        compact = (5 - 1) * (7 - 1)
        assert Fraction(gm, compact * gamma) == sol.covolume_product(primes, m)


def test_covolume_sequence_strictly_increasing_for_odd_primes():
    seq = [sol.covolume_product((5, 7, 11, 13), m) for m in range(5)]
    assert all(b > a for a, b in zip(seq, seq[1:]))


def test_partial_products_increase_for_first_primes():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    seq = [sol.covolume_product(primes, m) for m in range(1, 13)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    # With p = 2 included the first step multiplies by 2/(2-1): still growth.
    assert seq[-1] > 3


# -- the certificate ---------------------------------------------------------------------

def test_certificate_sparse_primes_consistent():
    cert = sol.lattice_certificate((5, 11, 23, 47, 97, 199))
    assert cert.verdict == "consistent with non-uniform lattice"
    assert cert.strictly_increasing
    assert cert.series_value < 0.5


def test_certificate_all_primes_rejected():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    cert = sol.lattice_certificate(primes)
    assert cert.verdict == "not a lattice candidate for this list"


def test_certificate_divergence_over_many_primes():
    # Mertens-style growth: the series over the first 1000 primes blows past
    # any fixed bound.
    primes = []
    n = 2
    while len(primes) < 1000:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    series = sum(1.0 / (p - 1) for p in primes)
    assert series > 2.0
    cert = sol.lattice_certificate(tuple(primes[:50]), m_max=8)
    assert cert.verdict == "not a lattice candidate for this list"


def test_certificate_single_prime_stabilizes():
    cert = sol.lattice_certificate((5,), m_max=1)
    assert cert.stabilizes_at == 1
    assert cert.verdict == "stabilizes at m = 1; uniform in the truncation"


def test_certificate_tail_bound_reported():
    cert = sol.lattice_certificate((5, 11, 23, 47), m_max=2)
    assert cert.tail_bound == pytest.approx(1 / 22 + 1 / 46)


# -- the unipotent lattice ------------------------------------------------------------------

def test_heisenberg_group_law_against_matrices():
    rng = np.random.default_rng(25)
    for _ in range(50):
        a = sol.HeisenbergElement.of(*(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                                       for _ in range(3)))
        b = sol.HeisenbergElement.of(*(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                                       for _ in range(3)))
        c = a * b
        ma = np.array([[1, float(a.x), float(a.z)], [0, 1, float(a.y)], [0, 0, 1]])
        mb = np.array([[1, float(b.x), float(b.z)], [0, 1, float(b.y)], [0, 0, 1]])
        mc = ma @ mb
        assert abs(mc[0, 1] - float(c.x)) < 1e-9
        assert abs(mc[1, 2] - float(c.y)) < 1e-9
        assert abs(mc[0, 2] - float(c.z)) < 1e-9


def is_integral(h):
    return all(v.denominator == 1 for v in (h.x, h.y, h.z))


def test_heisenberg_reduce_already_in_cell():
    g = sol.HeisenbergElement.of(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
    gamma, r = sol.heisenberg_reduce(g)
    assert is_integral(gamma) and (gamma.x, gamma.y, gamma.z) == (0, 0, 0)
    assert (r.x, r.y, r.z) == (g.x, g.y, g.z)


def test_heisenberg_reduce_with_group_law_correction():
    g = sol.HeisenbergElement.of(Fraction(5, 2), Fraction(-3, 4), Fraction(13, 4))
    gamma, r = sol.heisenberg_reduce(g)
    assert is_integral(gamma)
    assert all(0 <= v < 1 for v in (r.x, r.y, r.z))
    back = gamma * r
    assert (back.x, back.y, back.z) == (g.x, g.y, g.z)


def test_heisenberg_reduce_integral_gives_zero_remainder():
    g = sol.HeisenbergElement.of(3, -2, 7)
    gamma, r = sol.heisenberg_reduce(g)
    assert (r.x, r.y, r.z) == (0, 0, 0)
    assert (gamma.x, gamma.y, gamma.z) == (3, -2, 7)


def test_heisenberg_reduce_bijective_on_random_rationals():
    rng = np.random.default_rng(26)
    seen = {}
    for _ in range(1000):
        g = sol.HeisenbergElement.of(
            Fraction(int(rng.integers(-40, 41)), 8),
            Fraction(int(rng.integers(-40, 41)), 8),
            Fraction(int(rng.integers(-40, 41)), 8))
        gamma, r = sol.heisenberg_reduce(g)
        back = gamma * r
        assert (back.x, back.y, back.z) == (g.x, g.y, g.z)
        key = (g.x, g.y, g.z)
        val = ((gamma.x, gamma.y, gamma.z), (r.x, r.y, r.z))
        if key in seen:
            assert seen[key] == val
        seen[key] = val
