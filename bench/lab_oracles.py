"""Independent oracles for the benchmark's op checks.

Nothing here calls into latticelab.  Each function recomputes an expected
answer by another route -- combinatorial group theory, exact integer or
Fraction arithmetic, numpy brute force or a closed form -- so an op is judged
by something other than the code path that produced its verdict.
"""

from fractions import Fraction
import math

import numpy as np
from scipy.spatial import cKDTree

# Side-pairing relator of the regular octagon group in the labels word_ball
# uses (generator k is k, its inverse -k).
OCTAGON_RELATOR = (1, -2, 3, -4, -1, 2, -3, 4)


# -- words and Dehn's algorithm ------------------------------------------------

def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word):
    return tuple(-x for x in reversed(word))


def freely_reduced_words(n_gens, max_len):
    """All freely reduced words of length <= max_len, shortest first."""
    letters = [s * k for k in range(1, n_gens + 1) for s in (1, -1)]
    layer = [()]
    out = [()]
    for _ in range(max_len):
        layer = [w + (x,) for w in layer for x in letters if not w or w[-1] != -x]
        out += layer
    return out


class Dehn:
    """Dehn's algorithm for a one-relator group whose relator has no pieces
    longer than one letter (C'(1/7) for length 8, as for surface groups of
    genus >= 2): a freely reduced word is trivial iff repeatedly replacing
    more than half of a cyclic relator by the inverse of its rest empties it.
    """

    def __init__(self, relator):
        n = len(relator)
        self.rules = {}
        for r in (relator, inverse_word(relator)):
            for i in range(n):
                cyc = r[i:] + r[:i]
                for k in range(n // 2 + 1, n + 1):
                    self.rules[cyc[:k]] = inverse_word(cyc[k:])
        self.lengths = range(n, n // 2, -1)

    def reduce(self, word):
        w = free_reduce(word)
        while True:
            hit = None
            for k in self.lengths:
                for i in range(len(w) - k + 1):
                    rep = self.rules.get(w[i:i + k])
                    if rep is not None:
                        hit = (i, k, rep)
                        break
                if hit:
                    break
            if hit is None:
                return w
            i, k, rep = hit
            w = free_reduce(w[:i] + rep + w[i + k:])

    def is_trivial(self, word):
        return not self.reduce(word)


def dehn_ball_sizes(relator, n_gens, max_radius):
    """Ball sizes |B(r)|, r = 0..max_radius, in the one-relator group.

    Words are bucketed by two invariants of the element (exponent sums and
    length parity; the relator has zero exponent sums and even length), and
    within a bucket a word is new unless w v^-1 is trivial for a kept v.
    """
    dehn = Dehn(relator)
    reps = {}
    sizes = []
    count = 0
    length = 0
    for w in freely_reduced_words(n_gens, max_radius):
        if len(w) > length:
            sizes.append(count)
            length = len(w)
        exps = [0] * n_gens
        for x in w:
            exps[abs(x) - 1] += 1 if x > 0 else -1
        bucket = reps.setdefault((tuple(exps), len(w) % 2), [])
        if not any(dehn.is_trivial(w + inverse_word(v)) for v in bucket):
            bucket.append(w)
            count += 1
    sizes.append(count)
    return sizes


# -- matrices from raw entries -------------------------------------------------

def as_float_matrix(entries):
    """2x2 float array from a flat (a, b, c, d) entry tuple."""
    return np.array([[float(entries[0]), float(entries[1])],
                     [float(entries[2]), float(entries[3])]])


def word_matrices(gen_mats, words):
    """Products of generator matrices along each word (numpy, no latticelab)."""
    table = {}
    for k, g in enumerate(gen_mats, start=1):
        table[k] = g
        table[-k] = np.linalg.inv(g)
    out = []
    for w in words:
        m = np.eye(2)
        for x in w:
            m = m @ table[x]
        out.append(m)
    return np.array(out)


def is_projective_identity(m, tol=1e-8):
    return min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max()) <= tol


def h2_displacement(mats, z):
    """d(z, g z) for a stack of real 2x2 matrices with det 1, via the
    half-plane distance formula cosh d = 1 + |w - z|^2 / (2 Im z Im w)."""
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    w = (a * z + b) / (c * z + d)
    arg = 1.0 + np.abs(w - z) ** 2 / (2.0 * z.imag * w.imag)
    return np.arccosh(np.maximum(arg, 1.0)), w


def near_duplicate_pairs(mats, tol=1e-6):
    """Pairs (i, j), i < j, of a stack of real 2x2 matrices that agree up to
    sign within tol in every entry."""
    n = len(mats)
    flat = mats.reshape(n, 4)
    pairs = cKDTree(np.vstack([flat, -flat])).query_pairs(tol, p=np.inf)
    return {(min(i % n, j % n), max(i % n, j % n)) for i, j in pairs if i % n != j % n}


def distinct_points(ws, tol=1e-6):
    """The points of a complex vector, dropping any within tol of one kept."""
    kept = []
    for w in ws:
        if all(abs(w - k) > tol for k in kept):
            kept.append(w)
    return kept


def octagon_systole():
    """Shortest closed geodesic of the regular-octagon genus-2 surface: the
    side-pairing length 2 acosh(1 + sqrt 2)."""
    return 2.0 * math.acosh(1.0 + math.sqrt(2.0))


def translation_length_from_trace(tr):
    return 2.0 * math.acosh(abs(tr) / 2.0)


# -- exact SL(2, Z) --------------------------------------------------------------

def _psl_key(m):
    a, b, c, d = m
    first = next(x for x in m if x != 0)
    return m if first > 0 else (-a, -b, -c, -d)


def psl2z_ball_sizes(gens, max_radius):
    """|B(r)| for integer matrices (a, b, c, d) of determinant one, up to
    sign, by breadth-first search in exact integers."""
    sym = []
    for a, b, c, d in gens:
        for m in ((a, b, c, d), (d, -b, -c, a)):
            k = _psl_key(m)
            if k != (1, 0, 0, 1) and k not in sym:
                sym.append(k)
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    sizes = [1]
    for _ in range(max_radius):
        nxt = []
        for a, b, c, d in frontier:
            for e, f, g, h in sym:
                k = _psl_key((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def classify_integer_matrix(m):
    """Trichotomy of a nontrivial element of PSL(2, Z) by its exact trace."""
    a, b, c, d = m
    tr = abs(a + d)
    if tr < 2:
        return "elliptic"
    if tr == 2:
        return "parabolic"
    return "hyperbolic"


# -- exact arithmetic ------------------------------------------------------------

def heisenberg_mul(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def solvable_expectations(primes):
    """Indices, covolumes and verdict of the diagonal-style lattice from
    the counting formulas |G_m| = prod_all (p - 1) prod_{n<=m} p_n and
    |Gamma_m| = prod_{n<=m} (p_n - 1)."""
    covol = [Fraction(1)]
    for p in primes:
        covol.append(covol[-1] * Fraction(p, p - 1))
    series = sum(1.0 / (p - 1) for p in primes)
    if series >= 2.0:
        verdict = "not a lattice candidate for this list"
    else:
        verdict = "consistent with non-uniform lattice"
    return {
        "indices": [(p, p - 1) for p in primes],
        "covolume": covol[-1],
        "covolume_sequence": covol,
        "verdict": verdict,
    }


def presentation_count(c, v):
    """Presentations with g <= B generators and a multiset of k <= B words of
    length 1..3, B = ceil(c v), via the hockey-stick identity
    sum_{k<=B} C(w + k - 1, k) = C(w + B, B)."""
    bound = math.ceil(c * v)
    total = 1                           # g = 0: only the empty relator multiset
    for g in range(1, bound + 1):
        w = sum((2 * g) ** k for k in range(1, 4))
        total += math.comb(w + bound, bound)
    return total


def recurrence_hits(v, epsilon, horizon):
    """n <= horizon with |n v - round(n v)| < 2 eps, plus the n whose
    distance lies within 1e-9 of the threshold (either verdict accepted)."""
    n = np.arange(1, horizon + 1)
    w = n * float(v)
    dist = np.abs(w - np.round(w))
    sure = set((n[dist < 2.0 * epsilon - 1e-9]).tolist())
    either = set((n[np.abs(dist - 2.0 * epsilon) <= 1e-9]).tolist())
    return sure, either


# -- Chabauty truncations by brute force ----------------------------------------

def lattice_points(basis, radius):
    """Points of the lattice spanned by the rows of basis inside the closed
    radius-ball (same 1e-12 slack on the squared norm as a closed ball test
    in floating point needs), by a generous coefficient box."""
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    smin = np.linalg.svd(b, compute_uv=False).min()
    k = int(math.ceil(radius / smin)) + 1
    axes = [np.arange(-k, k + 1)] * b.shape[0]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, b.shape[0])
    pts = coeffs @ b
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius * radius + 1e-12]


def hausdorff_1d(a_points, b_points, radius, a_line=False, b_line=False):
    """Hausdorff distance between truncations to [-R, R] of 1-D closed
    subgroups: finite sorted point sets, or the whole line (the interval)."""
    def directed(src, src_line, dst, dst_line):
        if dst_line:
            return 0.0
        dst = np.sort(dst)
        if src_line:
            gaps = np.diff(dst) / 2.0
            ends = [dst[0] + radius, radius - dst[-1]]
            return float(max(ends + gaps.tolist()))
        if len(dst) == 1:
            return float(np.abs(src - dst[0]).max())
        i = np.clip(np.searchsorted(dst, src), 1, len(dst) - 1)
        near = np.minimum(np.abs(src - dst[i - 1]), np.abs(src - dst[i]))
        return float(near.max())
    return max(directed(a_points, a_line, b_points, b_line),
               directed(b_points, b_line, a_points, a_line))


def hausdorff_points(p, q):
    d = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def line_lattice_segments(direction, step, radius):
    """Truncation of R u + Z w (w = step * u rotated by 90 degrees) to the
    closed radius-disk: one chord per coset, as (centre, half-length)."""
    u = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    w = step * np.array([-u[1], u[0]])
    out = []
    j_max = int(math.floor(radius / step + 1e-9))
    for j in range(-j_max, j_max + 1):
        c = j * w
        r2 = radius * radius - float(c @ c)
        if r2 >= -1e-12:
            out.append((c, math.sqrt(max(r2, 0.0))))
    return u, out


def line_lattice_to_points(direction, step, points, radius, dense=801):
    """(sup over the chords of the distance to the points, sup over the points
    of the distance to the chords) for R u + Z w against a finite set."""
    u, chords = line_lattice_segments(direction, step, radius)
    t = np.linspace(-1.0, 1.0, dense)
    samples = np.concatenate([c + np.outer(t * h, u) for c, h in chords])
    d = np.sqrt(((samples[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    chords_to_points = float(d.min(axis=1).max())
    best = np.full(len(points), np.inf)
    for c, h in chords:
        s = np.clip((points - c) @ u, -h, h)
        best = np.minimum(best, np.linalg.norm(points - (c + np.outer(s, u)), axis=1))
    return chords_to_points, float(best.max()), max(h for _, h in chords)


def shortest_norm(basis):
    pts = lattice_points(basis, float(np.linalg.norm(basis, axis=1).min()) + 1e-9)
    n = np.linalg.norm(pts, axis=1)
    return float(n[n > 1e-12].min())


def same_lattice(b1, b2, tol=1e-6):
    """Rows of b1 and b2 span the same lattice: the change of basis is an
    integer matrix of determinant +-1."""
    u = np.asarray(b1, float) @ np.linalg.inv(np.asarray(b2, float))
    r = np.round(u)
    return bool(np.abs(u - r).max() <= tol and abs(abs(np.linalg.det(r)) - 1.0) <= tol)
