"""Isometries of R^n: min-set decomposition, fixed points, commuting families,
and crystallographic structure detection by word-ball closure.

The min-set of x -> Ox + t is computed algebraically: its directions are the
eigenspace of O for eigenvalue 1, and a base point solves (O - I)x = -t
restricted to the orthogonal complement, where O - I is invertible.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import mat2
from .errors import CapExceededError, NotDiscreteError, PreconditionError
from .wordballs import FinitelyGeneratedGroup, _bfs

EQ_TOL = 1e-8


class EuclideanIsometry(mat2.Keyed):
    """x -> Ox + t with O orthogonal."""

    __slots__ = ("o", "t", "n")

    def __init__(self, o, t, tol=1e-9):
        o = np.asarray(o, dtype=float)
        t = np.asarray(t, dtype=float).ravel()
        if o.shape[0] != o.shape[1] or o.shape[0] != t.shape[0]:
            raise ValueError("shape mismatch between orthogonal part and translation")
        if np.linalg.norm(o.T @ o - np.eye(o.shape[0])) > tol:
            raise ValueError("matrix is not orthogonal within tolerance")
        self.o, self.t, self.n = o, t, o.shape[0]

    @classmethod
    def translation(cls, t):
        t = np.asarray(t, dtype=float)
        return cls(np.eye(t.shape[0]), t)

    @classmethod
    def rotation2(cls, theta, center=None):
        c, s = math.cos(theta), math.sin(theta)
        o = np.array([[c, -s], [s, c]])
        if center is None:
            return cls(o, np.zeros(2))
        center = np.asarray(center, dtype=float)
        return cls(o, center - o @ center)

    def apply(self, x):
        return self.o @ np.asarray(x, dtype=float) + self.t

    def __mul__(self, other):
        return EuclideanIsometry(self.o @ other.o, self.o @ other.t + self.t)

    def inverse(self):
        return EuclideanIsometry(self.o.T, -self.o.T @ self.t)

    def is_identity(self, tol=EQ_TOL):
        return (np.linalg.norm(self.o - np.eye(self.n)) <= tol
                and np.linalg.norm(self.t) <= tol)

    def key_entries(self):
        return tuple(self.o.ravel().tolist() + self.t.tolist())

    def commutes_with(self, other, tol=EQ_TOL):
        ab, ba = self * other, other * self
        return (np.abs(ab.o - ba.o).max() <= tol and np.abs(ab.t - ba.t).max() <= tol)

    def displacement(self, x):
        return float(np.linalg.norm(self.apply(x) - np.asarray(x, dtype=float)))

    def __repr__(self):
        return "EuclideanIsometry(o=%r, t=%r)" % (self.o.tolist(), self.t.tolist())


@dataclass
class AffineSubspace:
    point: np.ndarray
    basis: np.ndarray  # rows orthonormal, shape (k, n); k = 0 means a single point

    @property
    def dim(self):
        return self.basis.shape[0]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.point
        if self.dim == 0:
            return self.point.copy()
        return self.point + self.basis.T @ (self.basis @ d)

    def contains(self, x, tol=1e-8):
        return np.linalg.norm(self.project(x) - np.asarray(x, dtype=float)) <= tol


def _fixed_directions(o, tol=1e-9):
    """Orthonormal basis (rows) of ker(O - I)."""
    n = o.shape[0]
    u, s, vt = np.linalg.svd(o - np.eye(n))
    null_mask = s <= max(tol, s.max() * 1e-12) if s.size else np.array([], dtype=bool)
    basis = vt[null_mask] if null_mask.any() else np.zeros((0, n))
    return basis


def min_set(g):
    """(affine subspace on which g is a translation, that translation).

    The displacement is constant and minimal on the subspace; everywhere else
    it is strictly larger.
    """
    w = _fixed_directions(g.o)
    k, n = w.shape
    p_w = w.T @ w if k else np.zeros((n, n))
    t_par = p_w @ g.t
    t_perp = g.t - t_par
    if k == n:
        base = np.zeros(n)
    else:
        base, *_ = np.linalg.lstsq(g.o - np.eye(n), -t_perp, rcond=None)
    return AffineSubspace(point=base, basis=w), t_par


@dataclass
class FixedPointResult:
    exists: bool
    witness: np.ndarray = None
    residual: float = 0.0
    conditioning_warning: bool = False


def has_fixed_point(g, tol=1e-8):
    """Solvability of (O - I)x = -t, with witness and residual diagnostics."""
    n = g.n
    a = g.o - np.eye(n)
    x, *_ = np.linalg.lstsq(a, -g.t, rcond=None)
    residual = float(np.linalg.norm(a @ x + g.t))
    s = np.linalg.svd(a, compute_uv=False)
    nonzero = s[s > tol]
    warn = bool(nonzero.size and nonzero.min() < 1e-6 and nonzero.min() > tol)
    if residual <= tol:
        return FixedPointResult(True, witness=x, residual=residual, conditioning_warning=warn)
    return FixedPointResult(False, witness=None, residual=residual, conditioning_warning=warn)


def commuting_min_intersection(gs, tol=EQ_TOL):
    """Common invariant affine subspace inside every min-set of a commuting,
    non-elliptic family.  Always nonempty with positive dimension."""
    if not gs:
        raise PreconditionError("empty family")
    n = gs[0].n
    for i, g in enumerate(gs):
        for h in gs[i + 1:]:
            if not g.commutes_with(h, tol):
                raise PreconditionError("inputs do not commute within tolerance")
    pieces = []
    for g in gs:
        sub, tv = min_set(g)
        if np.linalg.norm(tv) <= tol:
            raise PreconditionError(
                "elliptic input (fixed point, zero translation on min-set) not allowed")
        pieces.append(sub)
    # Solve the stacked system P_i^perp (x - p_i) = 0.
    rows, rhs = [], []
    for sub in pieces:
        p_perp = np.eye(n) - (sub.basis.T @ sub.basis if sub.dim else np.zeros((n, n)))
        rows.append(p_perp)
        rhs.append(p_perp @ sub.point)
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ x - b) > 1e-6:
        raise PreconditionError("min-sets fail to intersect; inputs are inconsistent")
    # Direction space: intersection of the direction spaces.
    _, s, vt = np.linalg.svd(a)
    sv = np.zeros(n)
    sv[:s.size] = s
    basis = vt[sv <= 1e-9]
    return AffineSubspace(point=x, basis=basis)


@dataclass
class CrystallographicReport:
    translation_rank: int
    point_group_order: int
    abelian_index: int
    translations: list = field(default_factory=list)
    point_group_element_orders: list = field(default_factory=list)
    ball_size: int = 0
    cutoff: int = 0
    cap_exceeded: bool = False


def _element_order(o, cap=64, tol=1e-8):
    acc = o.copy()
    n = o.shape[0]
    for k in range(1, cap + 1):
        if np.abs(acc - np.eye(n)).max() <= tol:
            return k
        acc = acc @ o
    return None


def crystallographic_analysis(gens, word_cutoff, element_cap=10**4, point_group_cap=512):
    """Word-ball closure statistics of a discrete isometry group of R^n.

    Reports the rank of the sublattice of pure translations found, the set of
    distinct orthogonal parts (the observed point group) and the index bound
    [group : translations] as observed.  All values are lower bounds that
    stabilize as the cutoff grows.
    """
    if word_cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    group = FinitelyGeneratedGroup(gens)
    n = gens[0].n
    try:
        entries = _bfs(group.identity(), group.symmetric_generators(), radius=word_cutoff,
                       cap=element_cap)
        cap_exceeded = False
    except CapExceededError as err:
        entries, cap_exceeded = err.entries, True
    elements = [e for _, e in entries]

    translations = []
    point_parts = {}
    for e in elements:
        is_pure = np.abs(e.o - np.eye(n)).max() <= EQ_TOL
        if is_pure and np.linalg.norm(e.t) > EQ_TOL:
            translations.append(e.t)
        point_parts.setdefault(mat2.quantize(e.o.ravel().tolist()), np.eye(n) if is_pure else e.o)
        if len(point_parts) > point_group_cap:
            raise NotDiscreteError(
                "orthogonal-part closure exceeded %d elements: not discrete at this tolerance"
                % point_group_cap)

    rank = 0
    if translations:
        rank = int(np.linalg.matrix_rank(np.array(translations), tol=1e-8))
    orders = sorted(_element_order(o) or -1 for o in point_parts.values())
    return CrystallographicReport(
        translation_rank=rank,
        point_group_order=len(point_parts),
        abelian_index=len(point_parts),
        translations=[t.tolist() for t in translations[:32]],
        point_group_element_orders=orders,
        ball_size=len(elements),
        cutoff=word_cutoff,
        cap_exceeded=cap_exceeded,
    )
