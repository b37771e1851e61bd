"""Exact arithmetic for two lattice examples.

First, the metabelian group built from a prime list p_1, p_2, ...: the
product of the multiplicative groups of the prime fields acts coordinatewise
on the direct sum of their additive groups, with group law
(a, b)(a', b') = (a a', a b' + b).  The diagonal-style subgroup of pairs
(a, a - 1) is discrete, and the level-m truncations have exact indices
(p_m, p_m - 1) and covolume prod p_n / (p_n - 1) under the normalization
giving the compact part measure one.  Finiteness of the infinite product is
tested through the series criterion sum 1/(p_n - 1) < B (an implementation
lemma: log prod p/(p-1) = sum log(1 + 1/(p-1)) <= sum 1/(p-1)), verified
numerically in the tests.  The indices are counted by enumeration: a
truncation is an int64 array with one row (a | b) per element, an element
of G_m is named by its position in G_m's own enumeration, and every coset
is one vectorized product whose entries stay below p^2 < 2^63; a product
outside G_m raises instead of being counted.

Second, the integral lattice of the group of unipotent upper-triangular
3x3 matrices, with the constructive fundamental-domain reduction onto
[0,1)^3.  Everything here is exact: machine-word modular arithmetic plus big
rationals; no floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
import random

import numpy as np

from .errors import PreconditionError


def _check_primes(primes):
    """The prime list as a tuple; a modulus below 2 or composite raises."""
    primes = tuple(primes)
    for p in primes:
        if p < 2:
            raise PreconditionError("%d is not prime (a modulus is at least 2)" % p)
        if any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            raise PreconditionError("%d is not prime (composite modulus)" % p)
    return primes


@dataclass(frozen=True)
class AffineElement:
    """One element of the truncated metabelian group.

    `a` has full truncation length M with a_n invertible mod p_n; `b` is the
    additive part, supported on the first m <= M coordinates (stored full
    length).  Group law: (a, b)(a', b') = (a a', a b' + b) coordinatewise.
    """
    primes: tuple
    a: tuple
    b: tuple

    def __post_init__(self):
        if any(x % p == 0 for x, p in zip(self.a, self.primes)):
            raise PreconditionError("multiplicative coordinate is zero mod its prime")

    def __mul__(self, other):
        ps = self.primes
        a = tuple((x * y) % p for x, y, p in zip(self.a, other.a, ps))
        b = tuple((x * v + u) % p for x, u, v, p in zip(self.a, self.b, other.b, ps))
        return AffineElement(ps, a, b)

    def inverse(self):
        ps = self.primes
        ainv = tuple(pow(x, -1, p) for x, p in zip(self.a, ps))
        b = tuple((-ai * u) % p for ai, u, p in zip(ainv, self.b, ps))
        return AffineElement(ps, ainv, b)

    def is_identity(self):
        return all(x == 1 for x in self.a) and all(x == 0 for x in self.b)


def gamma_element(primes, a_vec):
    """The diagonal-style element (a, a - 1): additive coordinate a_n - 1."""
    ps = tuple(primes)
    a = tuple(x % p for x, p in zip(a_vec, ps))
    b = tuple((x - 1) % p for x, p in zip(a, ps))
    return AffineElement(ps, a, b)


def gamma_closure_check(primes, sample_size=200):
    """Closure and inverses of {(a, a-1)}: exhaustive per prime <= 13,
    random sampling above.  The product identity is
    (a, a-1)(a', a'-1) = (aa', aa'-1)."""
    for p in _check_primes(primes):
        units = range(1, p) if p <= 13 else None
        rng = random.Random(11 + p)
        pairs = (itertools.product(units, units) if units is not None else
                 ((rng.randrange(1, p), rng.randrange(1, p)) for _ in range(sample_size)))
        ps = (p,)
        for x, y in pairs:
            g = gamma_element(ps, (x,)) * gamma_element(ps, (y,))
            if g.b[0] != (g.a[0] - 1) % p:
                return False
            gi = gamma_element(ps, (x,)).inverse()
            if gi.b[0] != (gi.a[0] - 1) % p:
                return False
    return True


def _product_rows(ranges):
    """One int64 row per element of the Cartesian product of `ranges`, in
    `itertools.product` order (the last range varies fastest)."""
    grids = np.meshgrid(*[np.asarray(r, dtype=np.int64) for r in ranges],
                        indexing="ij", copy=False)
    return np.stack(grids, axis=-1).reshape(-1, len(ranges))


def _truncated_group(primes, m):
    """All elements of the level-m truncation as rows (a | b): multiplicative
    part full length, additive support on the first m coordinates."""
    units = [range(1, p) for p in primes]
    adds = [range(p) if i < m else range(1) for i, p in enumerate(primes)]
    return _product_rows(units + adds)


def _gamma_subgroup(primes, m):
    """Diagonal-style elements (a | a - 1) inside the level-m truncation:
    a_n = 1 above m."""
    choices = [range(1, p) if i < m else range(1, 2) for i, p in enumerate(primes)]
    a = _product_rows(choices)
    return np.hstack([a, (a - 1) % np.array(primes, dtype=np.int64)])


def group_order(primes, m):
    order = 1
    for p in primes:
        order *= p - 1
    for p in primes[:m]:
        order *= p
    return order


def indices(primes, m, enumeration_cap=200_000):
    """([G_m : G_{m-1}], [Gamma_m : Gamma_{m-1}]) by exact coset counting.

    Up to the enumeration cap both truncations are enumerated as row arrays
    and their cosets counted one by one (`_count_cosets`); above it the
    indices are the orbit-stabilizer order ratio (the returned report says
    which route ran)."""
    primes = _check_primes(primes)
    if m < 1 or m > len(primes):
        raise PreconditionError("need 1 <= m <= number of primes")
    if group_order(primes, m) <= enumeration_cap:
        g_index = _count_cosets(primes, m, _truncated_group(primes, m),
                                _truncated_group(primes, m - 1))
        gamma_index = _count_cosets(primes, m, _gamma_subgroup(primes, m),
                                    _gamma_subgroup(primes, m - 1))
        route = "coset-enumeration"
    else:
        g_index = group_order(primes, m) // group_order(primes, m - 1)
        gamma_index = primes[m - 1] - 1
        route = "orbit-stabilizer (order ratio; enumeration over cap)"
    return {"group_index": g_index, "gamma_index": gamma_index, "route": route}


def _count_cosets(primes, m, big, small):
    """Number of left cosets e * small that cover `big`, both row arrays
    (a | b) of subsets of G_m.

    Greedy, in `big`'s order: each element not yet covered starts a coset,
    whose rows (a a' mod p, a b' + b mod p) over all of `small` are computed
    at once and marked in a boolean array indexed by position in G_m's own
    enumeration, `np.ravel_multi_index` of (a - 1, b_1..b_m) over the dims
    (p - 1 for every p, then p_1..p_m).  Their product |G_m| is within the
    enumeration cap, so a position fits in int64.  Entries are below p, and
    p - 1 <= |G_m|, so every product a b' + b is below p^2 < 2^63: exact.
    A product with b nonzero above level m lies outside G_m and raises.
    """
    k = len(primes)
    ps = np.array(primes, dtype=np.int64)
    dims = tuple(p - 1 for p in primes) + tuple(primes[:m])

    def positions(rows):
        if rows[:, k + m:].any():
            raise PreconditionError("a coset product has b nonzero above level %d: "
                                    "it lies outside G_%d" % (m, m))
        return np.ravel_multi_index(tuple((rows[:, :k] - 1).T) + tuple(rows[:, k:k + m].T),
                                    dims)

    order = positions(big)
    covered = np.zeros(math.prod(dims), dtype=bool)
    small_a, small_b = small[:, :k], small[:, k:]
    reps = start = 0
    while True:
        todo = np.flatnonzero(~covered[order[start:]])
        if not todo.size:
            return reps
        rep = start + int(todo[0])
        a, b = big[rep, :k], big[rep, k:]
        coset = np.hstack([a * small_a % ps, (a * small_b + b) % ps])
        covered[positions(coset)] = True
        reps += 1
        start = rep + 1


def covolume_product(primes, m):
    """Exact rational prod_{n <= m} p_n / (p_n - 1) (empty product: 1)."""
    primes = tuple(primes)
    if m < 0 or m > len(primes):
        raise PreconditionError("need 0 <= m <= number of primes")
    out = Fraction(1)
    for p in _check_primes(primes[:m]):
        out *= Fraction(p, p - 1)
    return out


def covolume_vs_counting(primes, m):
    """Cross-check: with the compact part normalized to measure one, the
    covolume equals |G_m| / (|compact| |Gamma_m|) exactly."""
    primes = _check_primes(primes)
    compact = math.prod(p - 1 for p in primes)
    gm = group_order(primes, m)
    gamma = math.prod(p - 1 for p in primes[:m])
    return Fraction(gm, compact * gamma)


@dataclass
class LatticeCertificate:
    covolume_sequence: list
    strictly_increasing: bool
    tail_bound: float
    series_value: float
    verdict: str
    stabilizes_at: int = None


def lattice_certificate(primes, m_max=None):
    """Non-uniformity and finiteness evidence for the diagonal-style subgroup.

    The covolume sequence strictly increases (no truncation contains a
    fundamental domain), and the log of the remaining product is at most the
    series tail sum 1/(p_n - 1); a finite series value under 2 is the
    lattice-consistency verdict.
    """
    primes = _check_primes(primes)
    m_max = len(primes) if m_max is None else m_max
    series = sum(1.0 / (p - 1) for p in primes)
    seq = [covolume_product(primes, m) for m in range(m_max + 1)]
    increasing = all(b > a for a, b in zip(seq, seq[1:]))
    stabilizes = None
    for i in range(1, len(seq)):
        if seq[i] == seq[i - 1]:
            stabilizes = i
            break
    tail = sum(1.0 / (p - 1) for p in primes[m_max:])
    if len(primes) == 1 and stabilizes is None:
        # The one-prime model is complete at level 1: nothing left to grow.
        stabilizes = 1
    if series >= 2.0:
        verdict = "not a lattice candidate for this list"
    elif stabilizes is not None:
        verdict = "stabilizes at m = %d; uniform in the truncation" % stabilizes
    else:
        verdict = "consistent with non-uniform lattice"
    return LatticeCertificate(
        covolume_sequence=seq,
        strictly_increasing=increasing,
        tail_bound=tail,
        series_value=series,
        verdict=verdict,
        stabilizes_at=stabilizes,
    )


# -- the unipotent 3x3 integral lattice ------------------------------------------

@dataclass(frozen=True)
class HeisenbergElement:
    """Coordinates (x, y, z) of the unipotent matrix [[1, x, z], [0, 1, y],
    [0, 0, 1]]; exact rationals."""
    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, x, y, z):
        return cls(Fraction(x), Fraction(y), Fraction(z))

    def __mul__(self, other):
        return HeisenbergElement(self.x + other.x, self.y + other.y,
                                 self.z + other.z + self.x * other.y)


def heisenberg_reduce(g):
    """Split g = gamma r with gamma integral and r in [0,1)^3.

    Constructive fundamental-domain property: unique gamma, exact group-law
    correction z - a y_r for the integer part of z.  Under the coordinate
    Lebesgue normalization the covolume of the integral lattice is 1.
    """
    a = Fraction(math.floor(g.x))
    b = Fraction(math.floor(g.y))
    rx, ry = g.x - a, g.y - b
    c = Fraction(math.floor(g.z - a * ry))
    rz = g.z - a * ry - c
    gamma = HeisenbergElement(a, b, c)
    r = HeisenbergElement(rx, ry, rz)
    check = gamma * r
    assert (check.x, check.y, check.z) == (g.x, g.y, g.z)
    return gamma, r
