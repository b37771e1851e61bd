"""Closed subgroups of R^n (n <= 4) under truncation-Hausdorff convergence.

A closed subgroup of R^n is V + L: a linear subspace plus a lattice in a
complement.  Canonical form: L-generators are projected off V, reduced, and
sign/order normalized, so equal subgroups get equal data.  The convergence
metric compares intersections with the closed R-ball by Hausdorff distance
(d = R when exactly one truncation is empty, 0 when both are): a computable
proxy for the subgroup-space topology, assumed (documented, not proven here)
to induce it on this class.

Also here: Lagrange/greedy basis reduction with enumeration-certified
shortest vectors, the sup-over-packing covolume formula check, and the
bounded-covolume/short-vector compactness extraction of convergent lattice
subsequences.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import mat2
from .errors import PreconditionError


def covolume(basis):
    """|det| of a full-rank basis (rows); exact for exact entries."""
    rows = [list(r) for r in basis]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise PreconditionError("need a square, full-rank basis")
    m = mat2.mat_from(rows)
    d = abs(mat2.mat_det(m))
    if (d == 0) if mat2.mat_is_exact(m) else (d < 1e-12):
        raise PreconditionError("basis is rank deficient")
    return d


# -- reduction and enumeration ------------------------------------------------

def lagrange_reduce(basis):
    """Gauss-Lagrange reduction of a rank-2 basis: shortest possible pair."""
    u, v = (np.asarray(r, dtype=float) for r in basis)
    if u @ u > v @ v:
        u, v = v, u
    while True:
        q = round((u @ v) / (u @ u))
        v = v - q * u
        if v @ v >= u @ u:
            return np.array([u, v])
        u, v = v, u


def greedy_reduce(basis):
    """Norm-greedy reduction for rank <= 4: subtract rounded projections
    until stable, then sort by norm."""
    b = np.array(basis, dtype=float)
    m = b.shape[0]
    if m == 2:
        return lagrange_reduce(b)
    for _ in range(64):
        changed = False
        order = np.argsort(np.linalg.norm(b, axis=1))
        b = b[order]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                q = round((b[i] @ b[j]) / (b[j] @ b[j]))
                if q != 0:
                    cand = b[i] - q * b[j]
                    if cand @ cand < b[i] @ b[i] - 1e-15:
                        b[i] = cand
                        changed = True
        if not changed:
            break
    return b[np.argsort(np.linalg.norm(b, axis=1))]


def _sqnorms(p):
    """Row-wise p @ p, rounded as the one-row product is (a batched sum may
    round differently)."""
    return np.matmul(p[..., None, :], p[..., :, None])[..., 0, 0]


# Coefficient rows per block of lattice_points_in_ball's box enumeration.
_BOX_BLOCK = 1 << 16


def lattice_points_in_ball(basis, radius, cap=2_000_000):
    """All lattice points of norm <= radius as rows, by box enumeration over
    coefficients in itertools.product order (certified: the coefficient box
    contains every candidate because ||z B|| >= sigma_min ||z||).  The box
    is enumerated in blocks of whole slabs of the first coefficient, of at
    most _BOX_BLOCK rows unless one slab is longer, so memory stays bounded
    and a box of at most _BOX_BLOCK rows takes one pass."""
    b = np.array(basis, dtype=float)
    m = b.shape[0]
    smin = np.linalg.svd(b, compute_uv=False).min()
    if smin < 1e-12:
        raise PreconditionError("basis not independent")
    k = int(math.floor(radius / smin)) + 1
    side = 2 * k + 1
    if side ** m > cap:
        raise PreconditionError("enumeration box too large; reduce the basis or radius")
    step = max(1, _BOX_BLOCK // side ** (m - 1))   # first-coefficient values per block
    blocks = []
    for first in range(0, side, step):
        shape = (min(step, side - first),) + (side,) * (m - 1)
        z = np.indices(shape, dtype=float).reshape(m, -1).T - k
        if first:
            z[:, 0] += first
        p = np.matmul(z[:, None, :], b)[:, 0]    # row by row: rounded as each z @ b
        blocks.append(p[_sqnorms(p) <= radius * radius + 1e-12])
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def shortest_vector(basis):
    """Shortest nonzero vector, certified by enumeration inside the ball of
    the best reduced basis vector."""
    b = greedy_reduce(basis)
    best = b[0]
    pts = lattice_points_in_ball(b, float(np.linalg.norm(best)) + 1e-9)
    for p, n2 in zip(pts, _sqnorms(pts)):
        if 1e-18 < n2 < best @ best - 1e-15:
            best = p
    return best


def reduce_basis(basis):
    """Reduced basis (rank 2: Lagrange-optimal; rank <= 4: greedy with the
    shortest vector certified by enumeration)."""
    b = greedy_reduce(basis)
    sv = shortest_vector(b)
    if abs(np.linalg.norm(sv) - np.linalg.norm(b[0])) > 1e-9:
        b[0] = sv
        b = greedy_reduce(b)
    return _canonical_rows(b)


def _canonical_rows(b):
    rows = []
    for r in b:
        r = np.where(np.abs(r) < 1e-12, 0.0, r)
        for x in r:
            if abs(x) > 1e-9:
                if x < 0:
                    r = -r
                break
        rows.append(r)
    rows.sort(key=lambda r: (round(float(r @ r), 9),) + tuple(np.round(r, 9)))
    return np.array(rows)


# -- the closed subgroup type ----------------------------------------------------

# Rows per (rows x pieces) block of ClosedSubgroupRn.distances_to.
_BLOCK = 256


@dataclass
class ClosedSubgroupRn:
    """V + L with V a subspace (orthonormal rows) and L a lattice orthogonal
    to V (rows).  Construct via the classmethods; canonicalization is applied
    there."""
    n: int
    v_basis: np.ndarray
    lattice_basis: np.ndarray

    @classmethod
    def from_parts(cls, n, v_basis=None, lattice_basis=None):
        v = np.zeros((0, n)) if v_basis is None or len(v_basis) == 0 \
            else np.array(v_basis, dtype=float)
        if v.shape[0]:
            # Orthonormal canonical basis of the row space.
            _, s, vt = np.linalg.svd(v)
            v = _canonical_rows(vt[: int((s > 1e-9).sum())])
        lat = np.zeros((0, n)) if lattice_basis is None or len(lattice_basis) == 0 \
            else np.array(lattice_basis, dtype=float)
        if lat.shape[0]:
            if v.shape[0]:
                lat = lat - (lat @ v.T) @ v
            keep = np.linalg.norm(lat, axis=1) > 1e-9
            lat = lat[keep]
            if lat.shape[0]:
                _, s, _ = np.linalg.svd(lat)
                if (s > 1e-9).sum() < lat.shape[0]:
                    raise PreconditionError("lattice generators dependent modulo V")
                lat = reduce_basis(lat)
        return cls(n=n, v_basis=v, lattice_basis=lat)

    @classmethod
    def lattice(cls, basis):
        basis = np.atleast_2d(np.array(basis, dtype=float))
        return cls.from_parts(basis.shape[1], None, basis)

    @classmethod
    def full(cls, n):
        return cls.from_parts(n, np.eye(n), None)

    @property
    def v_dim(self):
        return self.v_basis.shape[0]

    @property
    def lattice_rank(self):
        return self.lattice_basis.shape[0]

    def truncation_pieces(self, radius):
        """The pieces of (V + L) inside the closed R-ball: one disk of V-
        directions per lattice coset reachable within the ball.  Row i is
        (base in V-perp, disk radius), shape (pieces, n + 1); V-dim 0 pieces
        are points."""
        bases = lattice_points_in_ball(self.lattice_basis, radius) if self.lattice_rank \
            else np.zeros((1, self.n))
        r2 = radius * radius - _sqnorms(bases)
        keep = r2 >= -1e-12
        return np.column_stack([bases[keep], np.sqrt(np.maximum(r2[keep], 0.0))])

    def distances_to(self, xs, pieces):
        """Euclidean distance from each row of xs to the truncation whose
        `truncation_pieces` are given; inf when it is empty."""
        xs = np.asarray(xs, dtype=float)
        if not len(pieces):
            return np.full(len(xs), math.inf)
        lam, disk_r = pieces[:, :-1], pieces[:, -1]
        if self.n == 1 and self.v_dim == 0:
            # Nearest neighbours in the sorted points: memory linear in both.
            b = np.sort(lam[:, 0])
            x = xs[:, 0]
            i = np.searchsorted(b, x)
            return np.minimum(np.abs(x - b[np.maximum(i - 1, 0)]),
                              np.abs(x - b[np.minimum(i, len(b) - 1)]))
        out = np.empty(len(xs))
        for s in range(0, len(xs), _BLOCK):
            x = xs[s:s + _BLOCK]
            p = lam[None]
            if self.v_dim:
                # Nearest point of each disk: the V-projection, clipped.
                proj = x @ self.v_basis.T
                norm_proj = np.sqrt(_sqnorms(proj))[:, None]
                over = norm_proj > disk_r
                scale = np.divide(disk_r, norm_proj, out=np.ones(over.shape), where=over)
                p = lam + (proj[:, None, :] * scale[..., None]) @ self.v_basis
            out[s:s + _BLOCK] = np.sqrt(_sqnorms(x[:, None, :] - p)).min(axis=1)
        return out

    def distance_to(self, x, radius):
        """Euclidean distance from x to (subgroup intersect closed R-ball)."""
        x = np.reshape(np.asarray(x, dtype=float), (1, self.n))
        return float(self.distances_to(x, self.truncation_pieces(radius))[0])


def chabauty_distance(h1, h2, radius):
    """Hausdorff distance between the two truncations to the closed R-ball.

    Conventions: R if exactly one truncation is empty, 0 if both are.  Exact
    for discrete truncations in any dimension and for continuous parts in
    dimension 1; higher-dimensional continuous parts are sampled (dense
    deterministic grid), which the worked examples do not need.
    """
    return _pieces_distance(h1, h1.truncation_pieces(radius), h2,
                            h2.truncation_pieces(radius), radius)


def _pieces_distance(h1, p1, h2, p2, radius):
    """`chabauty_distance` of h1 and h2 from their `truncation_pieces`."""
    if not len(p1) and not len(p2):
        return 0.0
    if not len(p1) or not len(p2):
        return float(radius)
    d12 = _directed_sup(h1, p1, h2, p2, radius)
    d21 = _directed_sup(h2, p2, h1, p1, radius)
    return max(d12, d21)


def _directed_sup(ha, pieces_a, hb, pieces_b, radius):
    lam, disk_r = pieces_a[:, :-1], pieces_a[:, -1]
    if ha.v_dim == 0:
        xs = lam
    elif ha.n == 1:
        # Pieces of A are intervals of the line; B's truncation is a finite
        # union of points/intervals.  The sup of the distance function is
        # attained at an interval endpoint or at a midpoint between
        # consecutive B-pieces: finitely many candidates, all exact.
        b = np.sort(pieces_b[:, 0])
        mids = (b[:-1] + b[1:]) / 2.0
        lo, hi = lam[:, 0] - disk_r, lam[:, 0] + disk_r
        inside = ((lo <= mids[:, None]) & (mids[:, None] <= hi)).any(axis=1)
        xs = np.concatenate([lo, hi, mids[inside]])[:, None]
    else:
        # Continuous pieces in dimension >= 2: deterministic dense sampling.
        grid = np.linspace(-1.0, 1.0, 41)
        v = ha.v_basis
        if ha.v_dim == 1:
            xs = lam[:, None, :] + (grid * disk_r[:, None])[..., None] * v[0]
        else:
            g = grid[::4]
            dirs = (g[:, None, None] * v[0] + g[None, :, None] * v[1]).reshape(-1, ha.n)
            xs = lam[:, None, :] + dirs * disk_r[:, None, None] / math.sqrt(2)
        xs = xs.reshape(-1, ha.n)
        xs = xs[_sqnorms(xs) <= radius * radius + 1e-12]
    return float(np.max(hb.distances_to(xs, pieces_b), initial=0.0))


# -- limits -------------------------------------------------------------------

@dataclass
class ChabautyLimitResult:
    limit: ClosedSubgroupRn
    converged: bool
    distances: dict = field(default_factory=dict)   # radius -> per-term distances
    witness: tuple = None                            # (radius, distances) when failed


def chabauty_limit(sequence, radii, tol=1e-3):
    """Propose and verify a truncation-Hausdorff limit of closed subgroups.

    Proposal: a direction whose reduced lattice vector is at most 2 tol long
    in each of the last three terms merges into the connected part (aZ lies
    within a/2 of the line at every radius: the midpoints); a direction
    growing past the largest radius is dropped; the remaining lattice
    vectors converge and the last term represents them.  Verification: at
    every radius, each of the last three terms must lie within tol of the
    proposal; otherwise the result carries the witness.
    """
    if len(sequence) < 3:
        raise PreconditionError("need at least three terms")
    tail = sequence[-3:]
    last = tail[-1]
    r_max = max(radii)
    merge_dirs = []
    keep_rows = []
    for i in range(last.lattice_rank):
        norms = [float(np.linalg.norm(h.lattice_basis[i])) if i < h.lattice_rank
                 else math.inf for h in tail]
        if all(n <= 2.0 * tol for n in norms):
            merge_dirs.append(last.lattice_basis[i])
        elif norms[0] < norms[1] < norms[2] and norms[2] > r_max:
            # Diverging direction: contributes nothing inside any tested
            # truncation; the finite-horizon limit drops it.
            continue
        else:
            keep_rows.append(last.lattice_basis[i])
    v_rows = [r for r in last.v_basis] + merge_dirs
    limit = ClosedSubgroupRn.from_parts(
        last.n,
        np.array(v_rows) if v_rows else None,
        np.array(keep_rows) if keep_rows else None,
    )
    distances = {}
    witness = None
    converged = True
    for r in radii:
        pieces = limit.truncation_pieces(r)
        ds = [_pieces_distance(h, h.truncation_pieces(r), limit, pieces, r) for h in sequence]
        distances[r] = ds
        # The whole tail must sit below tolerance: a sequence that merely
        # revisits the proposal while oscillating is not convergent.
        if max(ds[-3:]) > tol:
            converged = False
            witness = (r, ds)
    return ChabautyLimitResult(limit=limit, converged=converged,
                               distances=distances, witness=witness)


# -- sup-formula covolume check ---------------------------------------------------

@dataclass
class SupFormulaResult:
    best_volume: float
    best_candidate: dict
    covolume: float
    gap: float
    admissible_count: int


def sup_formula_check(lattice_basis, candidates):
    """Best volume among candidate sets K whose difference set K - K misses
    the lattice away from 0.  Always <= the covolume; the gap is reported.

    Candidates: {"kind": "box", "half_widths": [...]} or
    {"kind": "disk", "radius": r} (dimension 2), centered at the origin.
    """
    b = np.array(lattice_basis, dtype=float)
    n = b.shape[1]
    covol = covolume(lattice_basis)
    best, best_cand, count = 0.0, None, 0
    # Enumerate lattice points big enough for any candidate's difference set.
    extents = [2.0 * float(np.linalg.norm(c["half_widths"])) if c["kind"] == "box"
               else 2.0 * c["radius"] for c in candidates]
    pts = lattice_points_in_ball(b, max(extents, default=0.0) + 1e-9)
    n2 = _sqnorms(pts)
    pts, n2 = pts[n2 > 1e-18], n2[n2 > 1e-18]
    for cand in candidates:
        if cand["kind"] == "box":
            hw = np.asarray(cand["half_widths"], dtype=float)
            admissible = bool(np.all(np.any(np.abs(pts) >= 2.0 * hw - 1e-12, axis=1)))
            vol = float(np.prod(2.0 * hw))
        elif cand["kind"] == "disk":
            r = float(cand["radius"])
            admissible = bool(np.all(n2 >= (2.0 * r) ** 2 - 1e-12))
            vol = math.pi * r * r if n == 2 else (2.0 * r if n == 1 else None)
            if vol is None:
                raise PreconditionError("disk candidates only in dimensions 1 and 2")
        else:
            raise PreconditionError("unknown candidate kind %r" % (cand,))
        if admissible:
            count += 1
            if vol > best:
                best, best_cand = vol, cand
    return SupFormulaResult(best_volume=best, best_candidate=best_cand,
                            covolume=float(covol), gap=float(covol) - best,
                            admissible_count=count)


# -- compactness extraction ---------------------------------------------------------

@dataclass
class MahlerResult:
    indices: list
    limit_basis: np.ndarray
    limit_covolume: float
    limit_shortest: float


def mahler_subsequence(bases, max_covolume, min_shortest):
    """Extract a convergent subsequence from full-rank lattices with
    covolume <= v and shortest vector >= r.

    Preconditions are checked (violations name the offending index).  The
    reduced bases then live in a compact box -- each reduced vector's norm is
    at most 2^n gamma_n^{n/2} v / r^{n-1} (successive-minima bound through
    Hermite's constant, gamma_n <= 2 for n <= 4, times the greedy-reduction
    blowup) -- so bucket-and-halve pigeonholing yields a Cauchy subsequence.
    The proposed limit is verified against the same bounds.
    """
    reduced = []
    n = None
    for i, basis in enumerate(bases):
        b = np.array(basis, dtype=float)
        n = b.shape[1] if n is None else n
        if b.shape[0] != n:
            raise PreconditionError("lattice %d is not full rank" % i)
        cv = covolume(b.tolist())
        if float(cv) > max_covolume + 1e-9:
            raise PreconditionError("lattice %d has covolume %.6g > bound %.6g"
                                    % (i, float(cv), max_covolume))
        reduced.append(reduce_basis(b))    # its shortest row is a shortest vector
        sv = float(np.linalg.norm(reduced[-1], axis=1).min())
        if sv < min_shortest - 1e-9:
            raise PreconditionError("lattice %d has shortest vector %.6g < bound %.6g"
                                    % (i, sv, min_shortest))
    if not reduced:
        raise PreconditionError("need at least one lattice")
    bound = (2.0 ** n) * (2.0 ** (n / 2.0)) * max_covolume / (min_shortest ** (n - 1))
    for i, b in enumerate(reduced):
        if np.linalg.norm(b, axis=1).max() > bound + 1e-6:
            raise PreconditionError("reduced basis %d escaped the compactness box" % i)
    indices = list(range(len(reduced)))
    grid = bound
    while grid > 1e-6 / 4.0 and len(indices) > 1:
        buckets = {}
        for i in indices:
            key = tuple(np.round(reduced[i] / grid).astype(np.int64).ravel().tolist())
            buckets.setdefault(key, []).append(i)
        chosen = max(buckets.values(), key=len)
        if len(chosen) < 2:
            break
        indices = chosen
        grid /= 2.0
    limit = reduced[indices[-1]]
    return MahlerResult(
        indices=indices,
        limit_basis=limit,
        limit_covolume=float(covolume(limit.tolist())),
        limit_shortest=float(np.linalg.norm(shortest_vector(limit))),
    )
