"""Commutator contraction near the identity and its consequences.

The engine: for matrices a = 1 + X, b = 1 + Y with small X, Y,
||[a,b] - 1|| <= 2 ||X|| ||Y|| ||a^-1|| ||b^-1||  (submultiplicative norm),
so iterated commutator sets contract to the identity at exponential speed
once max ||s - 1|| < 1/8 and the inverse norms stay below 2.  Downstream:
nilpotency detection for discretely generated groups, the abelian-index
bound for finite subgroups of compact groups, and the short-element subgroup
at a point of hyperbolic space.

Distance to the identity is Frobenius throughout (cheap, submultiplicative).
"""

from dataclasses import dataclass
import math

import numpy as np

from . import mat2
from .errors import PreconditionError
from .mat2 import (frobenius_norm, frobenius_to_identity, mat_dim, mat_from, mat_inv,
                   mat_is_exact, mat_is_identity, mat_mul)
from .lattice_lab import ball_geometry
from .wordballs import FinitelyGeneratedGroup, _bfs


# Commutator levels crowd toward the identity, so the ladder tells float
# matrices apart on a grid finer than the identity rule's mat2.GRID.
_LADDER_GRID = 1e-9


def mat_key(m):
    if mat_is_exact(m):
        return m
    return tuple((round(x.real / _LADDER_GRID), round(x.imag / _LADDER_GRID))
                 if isinstance(x, complex) else round(x / _LADDER_GRID) for x in _flat(m))


# -- commutators and ladders -----------------------------------------------------

def commutator(a, b):
    """a b a^-1 b^-1 (of each pair in numpy stacks), exact when the inputs are exact."""
    if len(a[-1]) != len(b[-1]):
        raise PreconditionError("dimension mismatch")
    return mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))


@dataclass
class MatrixSet:
    matrices: list
    dimension: int
    exact: bool

    @classmethod
    def from_data(cls, data):
        ms = [mat_from(m) for m in data]
        if not ms:
            raise PreconditionError("empty matrix set")
        dim = mat_dim(ms[0])
        if any(mat_dim(m) != dim for m in ms):
            raise PreconditionError("mixed dimensions")
        return cls(matrices=_dedup(ms), dimension=dim,
                   exact=all(mat_is_exact(m) for m in ms))


def _dedup(ms):
    seen, out = set(), []
    for m in ms:
        k = mat_key(m)
        if k not in seen:
            seen.add(k)
            out.append(m)
    return out


@dataclass
class CommutatorLadder:
    levels: list                 # level n: deduplicated list of matrices
    max_dists: list              # m_n = max ||s - 1|| per level
    bound_asserted: bool
    bound_violations: int = 0


def commutator_ladder(s, levels):
    """Iterated commutator sets: level 0 is S, level n is {[s, u] : s in S,
    u in level n-1}, with m_n = max distance to the identity.

    When m_0 < 1/8 and every inverse in sight has norm <= 2 (the contraction
    regime), the exponential-speed bound m_n <= m_0 (8 m_0)^n is asserted per
    level; otherwise the ladder is still computed with the flag off.
    """
    if levels < 1:
        raise PreconditionError("need at least one level")
    if isinstance(s, MatrixSet):
        base = s.matrices
    else:
        base = MatrixSet.from_data(s).matrices
    ladder = [list(base)]
    dists = [max(frobenius_to_identity(m) for m in base)]
    inv_ok = all(frobenius_norm(mat_inv(m)) <= 2.0 for m in base)
    m0 = dists[0]
    asserted = m0 < 1.0 / 8.0 and inv_ok
    violations = 0
    for n in range(1, levels + 1):
        try:
            nxt = _dedup([commutator(a, u) for a in base for u in ladder[-1]])
        except PreconditionError as exc:
            raise PreconditionError("commutator ladder level %d: %s" % (n, exc)) from None
        ladder.append(nxt)
        dists.append(max(frobenius_to_identity(m) for m in nxt))
        if asserted and dists[-1] > m0 * (8.0 * m0) ** n + 1e-12:
            violations += 1
    return CommutatorLadder(levels=ladder, max_dists=dists,
                            bound_asserted=asserted,
                            bound_violations=violations)


@dataclass
class NilpotencyVerdict:
    nilpotency_class: int = None
    exceeds_cutoff: bool = False
    exact: bool = True

    def __str__(self):
        return ("exceeds cutoff" if self.exceeds_cutoff
                else "class %d" % self.nilpotency_class)


def nilpotency_class(s, cutoff):
    """Least N <= cutoff with the level-N commutator set trivial.

    Exact entries give an exact verdict; floats decide triviality within
    1e-10 of the identity and say so in the verdict."""
    ms = s if isinstance(s, MatrixSet) else MatrixSet.from_data(s)
    exact = ms.exact
    def trivial(level):
        if exact:
            return all(mat_is_identity(m) for m in level)
        return all(frobenius_to_identity(m) <= 1e-10 for m in level)
    current = ms.matrices
    if trivial(current):
        return NilpotencyVerdict(nilpotency_class=0, exact=exact)
    for n in range(1, cutoff + 1):
        current = _dedup([commutator(a, u) for a in ms.matrices for u in current])
        if trivial(current):
            return NilpotencyVerdict(nilpotency_class=n, exact=exact)
    return NilpotencyVerdict(exceeds_cutoff=True, exact=exact)


# -- finite groups: closure, Jordan bound, brute-force oracle ----------------------

def _flat(m):
    if mat_is_exact(m):
        return tuple(x for r in m for x in r)
    return tuple(np.asarray(m).ravel().tolist())


def _closure(gens, cap, label):
    """The finite group generated by `gens`, as the BFS from gens[0] by right
    multiplication by `gens` (gens[0] times the group is the group)."""
    steps = list(enumerate(gens))
    return _bfs(gens[0], steps, product=mat_mul, entries=_flat, cap=cap, label=label).elements


def close_under_multiplication(generators, cap=10**5):
    """Multiplicative closure of matrix generators (finite groups only)."""
    gens = [mat_from(g) if not (mat_is_exact(g) or isinstance(g, np.ndarray)) else g
            for g in generators]
    return _closure(gens, cap, "closure")


def _row_keys(stack):
    """Identity-rule keys of an (N, d, d) stack, one per matrix: exact rows as tuples,
    float and complex parts as bytes of multiples of GRID rounded as `mat2.quantize` does."""
    if stack.dtype.kind not in "fc":
        return map(tuple, stack.reshape(len(stack), -1).tolist())
    rows = stack.astype(np.promote_types(stack.dtype, float)).view(float).reshape(len(stack), -1)
    rows = np.rint(rows / mat2.GRID) + 0.0          # + 0.0 folds -0.0 into 0.0
    return rows.view(np.dtype((np.void, rows[0].nbytes))).ravel().tolist()


def _cayley_table(elements):
    """The (n, n) indices of elements[i] elements[j] under the identity rule, from
    one broadcast product; raises when a product falls outside the set."""
    n = len(elements)
    stack = np.array([np.asarray(m) for m in elements])
    index = {k: i for i, k in enumerate(_row_keys(stack))}
    products = (stack[:, None] @ stack[None]).reshape(n * n, *stack.shape[1:])
    table = [index.get(k) for k in _row_keys(products)]
    if None in table:
        raise PreconditionError("set is not closed under multiplication")
    return np.array(table).reshape(n, n)


@dataclass
class JordanReport:
    index: int
    subgroup_size: int
    abelian_verified: bool
    group_size: int
    epsilon: float


def jordan_abelian_index(elements, epsilon):
    """Index of the subgroup generated by the elements within Frobenius
    distance epsilon of the identity in a finite matrix group.

    Small generators land in a commutator-contraction neighborhood, so the
    subgroup they generate is abelian; the report verifies commutativity
    outright.  Cross-check against `max_abelian_index_bruteforce`, which can
    only do better; both decide over one Cayley table (`_cayley_table`).
    """
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    # The identity is at distance 0, so it is a seed whenever it is present.
    seeds = [m for m in elements if frobenius_to_identity(m) <= epsilon]
    if not seeds:
        raise PreconditionError("identity missing from the group")
    _cayley_table(elements)
    sub = _closure(seeds, len(elements), "subgroup closure")
    abelian = True
    for i, a in enumerate(sub):
        for b in sub[i + 1:]:
            if frobenius_norm(np.asarray(mat_mul(a, b)) - np.asarray(mat_mul(b, a))) > 1e-9:
                abelian = False
    if len(elements) % len(sub) != 0:
        raise PreconditionError("subgroup size does not divide the group size")
    return JordanReport(index=len(elements) // len(sub),
                        subgroup_size=len(sub),
                        abelian_verified=abelian,
                        group_size=len(elements),
                        epsilon=epsilon)


def max_abelian_index_bruteforce(elements):
    """Exhaustive search for the largest abelian subgroup; returns
    (best index, best size).  Feasible for desk-scale groups (|F| <= a few
    hundred): grow each cyclic subgroup by every commuting element, closing
    as we go, and deduplicate subgroups by their element sets, reading
    products and commutation off the Cayley table Jordan decides over."""
    n = len(elements)
    cayley = _cayley_table(elements)
    table, commute = cayley.tolist(), (cayley == cayley.T).tolist()

    def close_idx(idx_set):
        out = set(idx_set)
        frontier = list(out)
        while frontier:
            nxt = []
            for i in frontier:
                for j in list(out):
                    for k in (table[i][j], table[j][i]):
                        if k not in out:
                            out.add(k)
                            nxt.append(k)
            frontier = nxt
        return frozenset(out)

    best_size = 1
    seen = set()
    stack = [close_idx({i}) for i in range(n)]
    while stack:
        sub = stack.pop()
        if sub in seen:
            continue
        seen.add(sub)
        if any(not commute[i][j] for i in sub for j in sub):
            continue
        best_size = max(best_size, len(sub))
        for h in range(n):
            if h in sub:
                continue
            if all(commute[h][i] for i in sub):
                stack.append(close_idx(sub | {h}))
    return n // best_size if n % best_size == 0 else math.ceil(n / best_size), best_size


# -- example finite groups ----------------------------------------------------------

def _rodrigues(axis, theta):
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + math.sin(theta) * k + (1 - math.cos(theta)) * (k @ k)


def icosahedral_rotation_group():
    """The 60 rotations of the icosahedron, generated by two 5-fold axes."""
    phi = (1 + math.sqrt(5)) / 2
    g1 = _rodrigues([0.0, 1.0, phi], 2 * math.pi / 5)
    g2 = _rodrigues([0.0, 1.0, -phi], 2 * math.pi / 5)
    return close_under_multiplication([g1, g2], cap=200)


def quaternion_group_su2():
    """The order-8 quaternion subgroup of SU(2)."""
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0.0 + 0j, 1.0], [-1.0, 0.0]])
    return close_under_multiplication([i, j], cap=32)


# -- short-element subgroups at a point -----------------------------------------------

@dataclass
class ShortSubgroupReport:
    kind: str                  # trivial / elementary-parabolic / elementary-hyperbolic /
                               # elementary-elliptic / not-elementary-within-cutoff
    short_words: list
    epsilon: float
    cutoff: int
    axis: tuple = None
    fixed_boundary: complex = None
    fixed_interior: object = None


# Report kind and data field of each component kind of the thick-thin rule
_ELEMENTARY = {"tube": ("elementary-hyperbolic", "axis"),
               "cusp": ("elementary-parabolic", "fixed_boundary"),
               "cone": ("elementary-elliptic", "fixed_interior")}


def margulis_short_subgroup(group, x, epsilon, word_cutoff):
    """Word-ball elements displacing x by at most epsilon, classified as an
    elementary group when they form one component of the thick-thin rule
    (`BallGeometry.components`): a shared axis (tube type), a shared
    boundary fixed point (cusp type) or a shared interior fixed point (cone
    type, torsion).

    Borderline classification of a short element propagates as an error.
    """
    if word_cutoff < 1:
        raise PreconditionError("word cutoff must be >= 1")
    if not isinstance(group, FinitelyGeneratedGroup):
        group = FinitelyGeneratedGroup(list(group))
    bg = ball_geometry(group, word_cutoff)
    idx = np.nonzero(bg.displacements(x) <= epsilon)[0].tolist()
    groups = []
    bg.components(idx, groups)
    report = dict(short_words=[bg.word(i) for i in idx], epsilon=epsilon, cutoff=word_cutoff)
    if len(groups) != 1:
        kind = "not-elementary-within-cutoff" if groups else "trivial"
        return ShortSubgroupReport(kind=kind, **report)
    (kind, data), = groups
    name, data_field = _ELEMENTARY[kind]
    return ShortSubgroupReport(kind=name, **report, **{data_field: data})
