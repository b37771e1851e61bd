"""Finitely generated isometry groups, their word balls, and `_bfs`, the one
breadth-first core behind every group enumeration in the package (word
balls, pruned orbit balls, the crystallographic closure, finite-group
closures).  Each report over an infinite group carries its finite horizon.

Identity rule: an element is named by its flat entries (`key_entries()`).
Exact entries key exactly, floats by their nearest multiples of `mat2.GRID`.
A float within rounding error of a half-cell boundary may round either way,
so a missed lookup also probes the adjacent cell (margin `mat2.STRADDLE`,
scaled by the entry's magnitude).

Cap rule: every distinct element keyed, kept or pruned, counts towards the
cap; past it CapExceededError carries the entries kept so far.
"""

from dataclasses import dataclass
import itertools
import operator

import numpy as np

from . import hyperbolic, mat2
from .errors import CapExceededError, PreconditionError

WORD_BALL_CAP = 10**6


class FinitelyGeneratedGroup:
    """Generator list plus bookkeeping; inverse closure is added on demand.

    Generators may be Moebius, Lorentz or Euclidean isometries; any
    `mat2.Keyed` element with __mul__, inverse() and is_identity() works.
    Its elements are told apart by the identity rule, and enumerations of
    them stop under the cap rule (module docstring).
    """

    def __init__(self, generators, name=None):
        if not generators:
            raise PreconditionError("need at least one generator")
        self.generators = list(generators)
        self.name = name or "group"

    def identity(self):
        first = self.generators[0]
        return first * first.inverse()

    def symmetric_generators(self):
        """Generators and their inverses, deduplicated under the identity
        rule, identity dropped."""
        out, seen = [], set()
        for i, g in enumerate(self.generators):
            for h, label in ((g, i + 1), (g.inverse(), -(i + 1))):
                if not h.is_identity() and _add_new(seen, h.key_entries()):
                    out.append((label, h))
        return out

    def conjugated(self, h):
        return FinitelyGeneratedGroup([h * g * h.inverse() for g in self.generators],
                                      name=self.name + "^h")

    def __repr__(self):
        return "FinitelyGeneratedGroup(%s, %d generators)" % (self.name, len(self.generators))


# -- the enumeration core ---------------------------------------------------

# Straddle margin in cells per unit of |x| (see mat2.STRADDLE).
_MARGIN = mat2.STRADDLE / mat2.GRID


def _cells(x, q):
    """Cells the entry x in cell q may round to: q, and for a float within
    the straddle margin of a boundary the neighbour across it."""
    if type(x) is complex:
        return tuple(itertools.product(_cells(x.real, q[0]), _cells(x.imag, q[1])))
    if type(x) is float:
        f = x / mat2.GRID - q
        if 0.5 - abs(f) <= _MARGIN * (1.0 + abs(x)):
            return (q, q + 1 if f > 0 else q - 1)
    return (q,)


def _straddle_keys(xs, k):
    """Keys other than k that the entries xs may round to: none unless a
    complex entry, or a float entry near a cell boundary, is present."""
    # Scan first: most new elements have no entry near a boundary.
    for x, q in zip(xs, k):
        if type(x) is float:
            if 0.5 - abs(x / mat2.GRID - q) > _MARGIN * (1.0 + abs(x)):
                continue
        elif type(x) is not complex:
            continue
        return [c for c in itertools.product(*map(_cells, xs, k)) if c != k]
    return ()


def _add_new(seen, xs):
    """Add the key of the entries xs to `seen` and return True, unless the
    key, or a key xs may round to across a cell boundary, is already there."""
    k = mat2.quantize(xs)
    if k in seen or not seen.isdisjoint(_straddle_keys(xs, k)):
        return False
    seen.add(k)
    return True


def _bfs(start, steps, cap, product=operator.mul, entries=operator.methodcaller("key_entries"),
         radius=None, test=None, label="enumeration", words=False):
    """Kept (word, element) pairs in BFS order from `start` (empty word) by
    right multiplication product(e, s) over `steps`, a list of (label, s).

    Stops after `radius` layers, or when the frontier empties.  `test(w) ->
    (expand, keep)` runs once per newly keyed element (default: both); an
    element not expanded is not kept.  Words stay empty unless `words`.
    """
    seen = {mat2.quantize(entries(start))}
    kept = [((), start)]
    frontier = kept[:]
    layer = 0
    while frontier and (radius is None or layer < radius):
        layer += 1
        nxt = []
        for word, e in frontier:
            for lab, s in steps:
                w = product(e, s)
                if not _add_new(seen, entries(w)):
                    continue
                expand, keep = test(w) if test else (True, True)
                if expand:
                    item = (word + (lab,) if words else word, w)
                    nxt.append(item)
                    if keep:
                        kept.append(item)
                if len(seen) > cap:
                    raise CapExceededError("%s exceeded %d elements" % (label, cap),
                                           entries=kept)
        frontier = nxt
    return kept


@dataclass
class WordBall:
    radius: int
    entries: list     # list of (word, element); word = tuple of signed generator labels

    @property
    def elements(self):
        return [e for _, e in self.entries]

    def nontrivial(self):
        return [(w, e) for w, e in self.entries if w]

    def __len__(self):
        return len(self.entries)


def word_ball(group, radius, cap=WORD_BALL_CAP):
    """All elements of word length <= radius over the symmetric generating
    set, each present exactly once (identity included, empty word)."""
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    entries = _bfs(group.identity(), group.symmetric_generators(), radius=radius, cap=cap,
                   label="word ball", words=True)
    return WordBall(radius=radius, entries=entries)


# -- batched displacement -------------------------------------------------

def stack_moebius(elements):
    m = np.array([[complex(e.m[0]), complex(e.m[1]), complex(e.m[2]), complex(e.m[3])]
                  for e in elements])
    return m[:, 0], m[:, 1], m[:, 2], m[:, 3]


def moebius_apply_h2(stacked, z):
    a, b, c, d = stacked
    return (a * z + b) / (c * z + d)


def distances_h2(z, w):
    """H^2 distances from the half-plane point z to the array of points w."""
    num = np.abs(w - z) ** 2
    arg = 1.0 + num / (2.0 * z.imag * np.maximum(w.imag, 1e-300))
    return np.arccosh(np.maximum(arg, 1.0))


def displacements_h2(stacked, point):
    """Vector of displacements of stacked real Moebius elements at an H^2 point."""
    return distances_h2(point.z, moebius_apply_h2(stacked, point.z))


def displacements_h3(stacked, point):
    a, b, c, d = stacked
    z, t = point.z, point.t
    den = np.abs(c * z + d) ** 2 + np.abs(c) ** 2 * t * t
    w = ((a * z + b) * np.conj(c * z + d) + a * np.conj(c) * t * t) / den
    tt = t / den
    num = np.abs(w - z) ** 2 + (tt - t) ** 2
    arg = 1.0 + num / (2.0 * t * tt)
    return np.arccosh(np.maximum(arg, 1.0))


def displacements_at(elements, point, stacked=None):
    """Displacement of every element at the given point (H^2/H^3/Euclidean);
    `stacked`, when given, is stack_moebius(elements) computed earlier."""
    if isinstance(point, hyperbolic.HPoint):
        stacked = stack_moebius(elements) if stacked is None else stacked
        if point.dim == 2:
            return displacements_h2(stacked, point)
        return displacements_h3(stacked, point)
    x = np.asarray(point, dtype=float)
    return np.array([e.displacement(x) for e in elements])


def displacement_pruned_ball(group, base, keep, slack=None, cap=200000):
    """Elements g with d(base, g base) <= keep, found by BFS over the orbit.

    BFS expands through elements up to displacement keep + slack before
    pruning, so orbit points reachable only through detours are not lost; the
    default slack is twice the generator displacement, enough for cell
    adjacency paths in cocompact tilings.  Completeness at a given slack is a
    heuristic: callers should check stability under a larger slack (tested).
    The displacement is computed once per newly keyed element, and every
    keyed element, pruned or not, counts towards `cap`.
    """
    sym = group.symmetric_generators()
    if slack is None:
        gen_disp = max(hyperbolic.displacement(g, base) for _, g in sym)
        slack = 2.0 * gen_disp
    explore = keep + slack

    def test(w):
        d = hyperbolic.displacement(w, base)
        return d <= explore, d <= keep

    entries = _bfs(group.identity(), sym, test=test, cap=cap, label="pruned orbit ball")
    return [e for _, e in entries]
