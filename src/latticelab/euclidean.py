"""Isometries of R^n and crystallographic structure detection by word-ball
closure."""

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

    def __init__(self, o, t):
        o = np.asarray(o, dtype=float)
        t = np.asarray(t, dtype=float).ravel()
        if o.shape[0] != o.shape[1] or o.shape[0] != t.shape[0]:
            raise ValueError("shape mismatch between orthogonal part and translation")
        if np.linalg.norm(o.T @ o - np.eye(o.shape[0])) > 1e-9:
            raise ValueError("matrix is not orthogonal within tolerance")
        self.o, self.t, self.n = o, t, o.shape[0]

    @classmethod
    def translation(cls, t):
        t = np.asarray(t, dtype=float)
        return cls(np.eye(t.shape[0]), t)

    @classmethod
    def rotation2(cls, theta):
        c, s = math.cos(theta), math.sin(theta)
        return cls(np.array([[c, -s], [s, c]]), np.zeros(2))

    def apply(self, x):
        return self.o @ np.asarray(x, dtype=float) + self.t

    def __mul__(self, other):
        return EuclideanIsometry(self.o @ other.o, self.o @ other.t + self.t)

    def inverse(self):
        return EuclideanIsometry(self.o.T, -self.o.T @ self.t)

    def is_identity(self):
        return (np.linalg.norm(self.o - np.eye(self.n)) <= EQ_TOL
                and np.linalg.norm(self.t) <= EQ_TOL)

    def key_entries(self):
        return tuple(self.o.ravel().tolist() + self.t.tolist())

    def displacement(self, x):
        return float(np.linalg.norm(self.apply(x) - np.asarray(x, dtype=float)))

    def __repr__(self):
        return "EuclideanIsometry(o=%r, t=%r)" % (self.o.tolist(), self.t.tolist())


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


def _element_order(o):
    """The order of the orthogonal matrix o when it is at most 64, else None."""
    acc = o.copy()
    n = o.shape[0]
    for k in range(1, 65):
        if np.abs(acc - np.eye(n)).max() <= 1e-8:
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
        ball = _bfs(group.identity(), group.symmetric_generators(), radius=word_cutoff,
                    cap=element_cap)
        cap_exceeded = False
    except CapExceededError as err:
        ball, cap_exceeded = err.entries, True
    elements = ball.elements

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
