"""Finitely generated isometry groups, their word balls, and `_bfs`, the one
breadth-first core behind every group enumeration in the package (word
balls, pruned orbit balls, the crystallographic closure, finite-group
closures).  Each report over an infinite group carries its finite horizon.

Identity rule: an element is named by its flat entries (`key_entries()`).
Exact entries key exactly, floats by their nearest multiples of `mat2.GRID`.
A float within rounding error of a half-cell boundary may round either way,
so a missed lookup also probes the adjacent cell (margin `mat2.STRADDLE`,
scaled by the entry's magnitude).

Cap rule: every element the BFS keys, kept or pruned, counts towards the
cap; past it CapExceededError carries the entries kept so far.  A candidate
dropped by a reach (below) is never keyed, so it does not count.

`_bfs` holds its frontier and kept elements as a kernel's rows, and a
kernel turns each `CHUNK`-row slice of the frontier into its candidates: the
products by every step in (frontier, step) order, as rows, with their keys.
One loop dedups and caps them, then tests the new ones.  Real Moebius
groups with all float, or all Python int, entries use a numpy kernel whose
rows are (N, 4) entry arrays (products, sign choice and keys bit for bit
what the scalar path computes).  Its float branch also normalizes
determinants; its integer branch works in int64, and a slice whose products
might reach 2^62 goes to the scalar kernel, whose Python ints carry on
exactly as object rows.  Other groups use the scalar kernel, whose rows are
product objects.  The `WordBall` of the kept rows builds elements and words
only when read.  Under a reach (an H^2 point and a radius), both kernels
drop every product that displaces the point beyond the radius before
building or keying it, computing the displacements as one array (`_within`).
"""

from functools import cached_property, partial
import itertools
import operator

import numpy as np

from . import hyperbolic, mat2
from .errors import CapExceededError, PreconditionError

WORD_BALL_CAP = 10**6


class FinitelyGeneratedGroup:
    """Generator tuple plus bookkeeping; inverse closure is added on demand.

    Generators may be Moebius or Euclidean isometries; any
    `mat2.Keyed` element with __mul__, inverse() and is_identity() works.
    Its elements are told apart by the identity rule, and enumerations of
    them stop under the cap rule (module docstring).  Moebius generators
    mixing exact, real float and complex entries are all taken in the widest
    of these, since the identity rule keys 1, 1.0 and 1+0j apart.
    """

    def __init__(self, generators, name=None):
        if not generators:
            raise PreconditionError("need at least one generator")
        self.generators = tuple(_one_arithmetic(list(generators)))
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


def _arithmetic(g):
    return 2 if g.is_complex else 0 if g.exact else 1


def _one_arithmetic(gens):
    """Moebius generators recast to the widest arithmetic among them (exact,
    then real float, then complex): a product of mixed kinds takes the wider
    kind, so a ball would otherwise keep it beside its narrower twin."""
    if not all(type(g) is hyperbolic.MoebiusIsometry for g in gens):
        return gens
    widest = max(map(_arithmetic, gens))
    cast = complex if widest == 2 else float
    return [g if _arithmetic(g) == widest else hyperbolic.MoebiusIsometry(tuple(map(cast, g.m)))
            for g in gens]


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


# Frontier rows per kernel call.  A layer of a large ball holds tens of
# thousands of elements; taking it in chunks bounds the candidate arrays at
# CHUNK * len(steps) rows instead of growing them with the layer.
CHUNK = 256

_KEY_ENTRIES = operator.methodcaller("key_entries")

# Float entries below _KEY_BOUND have cells of magnitude at most 2^53, exact
# in float64 and, with their straddle neighbours, below _PACK_LIMIT; a chunk
# with a larger entry goes to the scalar kernel.  Integer chunks go there
# when a product entry might reach _PACK_LIMIT.
_KEY_BOUND = 2.0 ** 53 * mat2.GRID
_PACK_LIMIT = 2 ** 62

# Straddle corners: _CORNERS[c] moves entry j across its boundary when bit
# 3 - j of c is set.  An element whose near entries have bits b probes the
# corners c != 0 inside b.
_CORNERS = np.array(list(itertools.product((0, 1), repeat=4)))
_BITS = np.array([8, 4, 2, 1])


def _pack(k):
    """A real float Moebius key (four cells) as the bytes of four int64s,
    when every cell fits, else the tuple itself.  Packing depends on k alone,
    so packed keys are equal exactly when the tuples are, at a third of
    their memory."""
    fits = all(abs(c) < _PACK_LIMIT for c in k)
    return np.array(k, dtype=np.int64).tobytes() if fits else k


def _packed_keys(q):
    """The rows of the (..., 4) int64 array q as packed keys (`_pack`)."""
    return np.ascontiguousarray(q).view("V32")[..., 0].tolist()


def _within(m, reach):
    """Indices of the rows of m, the float entries (a, b, c, d) of real
    Moebius elements, that displace the H^2 point of reach = (point, radius)
    by at most radius.  The margin of 1e-9, relative and absolute, is far
    above the float error between this array displacement and
    `hyperbolic.displacement`, so a row it drops is beyond the radius."""
    point, radius = reach
    with np.errstate(all="ignore"):
        d = distances_h2(point.z, moebius_apply_h2(m.T, point.z))
    return np.flatnonzero(d <= radius * (1.0 + 1e-9) + 1e-9)


def _scalar_kernel(steps, product, entries, reach):
    """Kernel building one product object per candidate; its rows are 1-D
    object arrays of elements.  A chunk's products are all made before any
    is keyed, so a product that raises stops the enumeration even where the
    cap would have stopped it a few candidates earlier.  Under a reach, only
    products within it become elements: `_within` reads the raw `mat2.mul`
    entries (scale moves no point), so one beyond it is never normalized."""
    rows_of = partial(np.fromiter, dtype=object)

    def candidates(chunk):
        pairs = [(e, s) for e in chunk for _, s in steps]
        if reach is not None:
            m = np.array([mat2.mul(e.m, s.m) for e, s in pairs], dtype=float).reshape(-1, 4)
            pairs = [pairs[i] for i in _within(m, reach).tolist()]
        made = [product(e, s) for e, s in pairs]
        xs = [entries(w) for w in made]
        keys = [mat2.quantize(x) for x in xs]
        near = {i: alt for i, alt in enumerate(map(_straddle_keys, xs, keys)) if alt}
        return keys, rows_of(made), near
    return (lambda x: mat2.quantize(entries(x))), rows_of, candidates, list


def _moebius_kernel(steps, reach, exact):
    """Kernel for real Moebius steps, float or integer: the chunk's products,
    reach filter, sign choice (as `mat2.canonicalize_sign`) and packed keys
    (`_pack`) as arrays, rows of float, int64 or (past 2^62) Python int
    entries.  The reach filter reads the raw products, as the scalar kernel
    does, so the rest runs on its survivors only.  Float products are
    normalized to determinant one in the float operations of
    MoebiusIsometry.__init__ and also carry straddle alternates; integer
    products of determinant-one steps have determinant exactly one and no
    cells.  A float chunk with a candidate within reach that the scalar
    path would reject, or with a cell beyond int64, goes to the scalar
    kernel, which raises or keys it; so does an integer chunk whose products
    might reach 2^62 (2 X Y >= _PACK_LIMIT for the largest chunk and step
    entries X and Y)."""
    step_m = [s.m for _, s in steps]
    y = max((abs(x) for m in step_m for x in m), default=0) if exact else 0
    if 2 * y >= _PACK_LIMIT:    # every chunk would overflow
        return _scalar_kernel(steps, operator.mul, _KEY_ENTRIES, reach)
    _, _, scalar, _ = _scalar_kernel(steps, operator.mul, _KEY_ENTRIES, reach)
    dtype, tol = (np.int64, 0) if exact else (float, mat2.SIGN_TOL)
    e, f, g, h = np.array(step_m, dtype=dtype).reshape(-1, 4).T

    def rows_of(xs):
        m = np.array([x.m for x in xs], dtype=object if exact else float).reshape(-1, 4)
        return m.astype(np.int64) if exact and not (np.abs(m) >= _PACK_LIMIT).any() else m

    def elements_of(m):
        return [hyperbolic.MoebiusIsometry.from_canonical(tuple(r), exact) for r in m.tolist()]

    def candidates(chunk):
        if exact and 2 * int(np.abs(chunk).max()) * y >= _PACK_LIMIT:
            return fallback(chunk)
        a, b, c, d = chunk.astype(dtype).T[:, :, None]
        m = np.stack((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                     axis=-1).reshape(-1, 4)
        if reach is not None:
            m = m[_within(m.astype(float, copy=False), reach)]
        if exact:
            big = np.abs(m)
        else:
            with np.errstate(all="ignore"):
                det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
                m = m * (1.0 / np.sqrt(det))[:, None]
                big = np.abs(m)
                ok = ((det >= mat2.SINGULAR)
                      & (np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2] - 1) <= mat2.DET_DRIFT)
                      & (big.max(axis=1) < _KEY_BOUND))
            if not ok.all():
                return fallback(chunk)
        lead = big > tol
        first = m[np.arange(len(m)), lead.argmax(axis=1)]
        m = np.where((lead.any(axis=1) & ~(first > 0))[:, None], -m, m)
        q, near = (m, {}) if exact else _straddle(m, big)
        return _packed_keys(q), m, near

    def fallback(chunk):
        keys, made, near = scalar(elements_of(chunk))
        return (list(map(_pack, keys)), rows_of(made),
                {i: list(map(_pack, alt)) for i, alt in near.items()})

    return (lambda x: _pack(mat2.quantize(x.m))), rows_of, candidates, elements_of


def _straddle(m, big):
    """(cells, near) of the float rows m with magnitudes big: the int64 cells
    of their entries, and {i: the packed keys row i may round to across a
    cell boundary} over the rows with any (as `_straddle_keys` finds them)."""
    x = m / mat2.GRID
    q = np.rint(x)
    off = x - q
    # The cell across the boundary from each entry within the straddle
    # margin of one, as _cells chooses it.
    turn = np.where((0.5 - np.abs(off)) <= _MARGIN * (1.0 + big), np.where(off > 0, 1, -1), 0)
    q = q.astype(np.int64)
    mask = (turn != 0) @ _BITS
    rows = np.flatnonzero(mask)
    # Probe j is corner c[j] + 1 of row rows[r[j]]; each row's probes are a run.
    r, c = np.nonzero((np.arange(1, 16) & ~mask[rows, None]) == 0)
    probes = _packed_keys(q[rows[r]] + _CORNERS[c + 1] * turn[rows[r]])
    runs = np.flatnonzero(np.diff(r, prepend=-1)).tolist() + [len(r)]
    return q, {i: probes[a:b] for i, a, b in zip(rows.tolist(), runs, runs[1:])}


def _kernel(start, steps, product, entries, reach):
    """(key, rows_of, candidates, elements_of): the array kernel when start
    and steps are real Moebius isometries under the default product and
    entries, all float or all with Python int entries, else the scalar one.
    key(x) keys one element; rows_of(xs) turns elements into the kernel's
    rows and elements_of(rows) rows into elements.  candidates(rows) gives
    the keys of the rows' products in (row, step) order, less those a reach
    drops (`_within`), the products as rows, and {i: alternates of key i}
    for the straddle probe."""
    xs = [start] + [s for _, s in steps]
    if (product is operator.mul and entries is _KEY_ENTRIES
            and all(type(x) is hyperbolic.MoebiusIsometry for x in xs)):
        kinds = {type(v) for x in xs for v in x.m}
        if kinds in ({float}, {int}):
            return _moebius_kernel(steps, reach, kinds == {int})
    return _scalar_kernel(steps, product, entries, reach)


def _bfs(start, steps, cap, product=operator.mul, entries=_KEY_ENTRIES, radius=None,
         test=None, label="enumeration", reach=None):
    """The WordBall of the elements kept in BFS order from `start` (empty
    word) by right multiplication product(e, s) over `steps`, a list of
    (label, s).  Stops after `radius` layers, or when the frontier empties.

    `test(w) -> (expand, keep)` runs once per newly keyed element (default:
    both); an element not expanded is not kept.  `reach` = (an H^2 point, a
    radius), for real Moebius steps, drops every product that displaces the
    point beyond the radius before it is keyed, so it is neither tested nor
    counted towards `cap`; `test` must expand no such element.  Words are
    tracked unless there is a test or a reach.

    The kernel (`_kernel`) takes the frontier CHUNK rows at a time, so its
    arrays stay the same size however wide a layer grows; one loop keys
    the candidates in (frontier, step) order, as an element-by-element BFS
    would.  Then `test` runs, in keying order, on the chunk's new elements,
    built in one `elements_of` call.  Past the cap, the error carries the
    partial ball and, under a radius, names the word length being built and
    the last complete radius.
    """
    key, rows_of, candidates, elements_of = _kernel(start, steps, product, entries, reach)
    n, words = len(steps), test is None and reach is None
    seen = {key(start)}
    kept, parent, step = [rows_of([start])], [np.zeros(1, np.intp)], [np.zeros(1, np.intp)]
    frontier, layer = kept[0], 0

    def ball():
        return WordBall(np.concatenate(kept), elements_of, words and (
            np.concatenate(parent), np.concatenate(step), [lab for lab, _ in steps]))

    while len(frontier) and (radius is None or layer < radius):
        layer += 1
        complete = sum(map(len, kept))    # rows kept within radius layer - 1
        nxt = []
        for lo in range(0, len(frontier), CHUNK):
            try:
                keys, made, near = candidates(frontier[lo:lo + CHUNK])
            except ValueError as exc:    # e.g. a float product off determinant one
                raise PreconditionError("%s: a product of word length %d failed: %s"
                                        % (label, layer, exc)) from None
            grow, over = [], False
            for i, k in enumerate(keys):
                if k in seen or i in near and not seen.isdisjoint(near[i]):
                    continue
                seen.add(k)
                grow.append(i)
                over = len(seen) > cap
                if over:
                    break
            if test:
                verdicts = list(map(test, elements_of(made[grow])))
                keep = [i for i, (expand, keeps) in zip(grow, verdicts) if expand and keeps]
                grow = [i for i, (expand, _) in zip(grow, verdicts) if expand]
            nxt.append(made[grow])
            kept.append(made[keep] if test else nxt[-1])
            if words:
                sel = np.array(grow, dtype=np.intp)
                parent.append(complete - len(frontier) + lo + sel // n)
                step.append(sel % n)
            if over:
                at = (" at word length %d; radius %d is complete with %d elements"
                      % (layer, layer - 1, complete) if radius is not None else "")
                raise CapExceededError("%s exceeded %d elements%s" % (label, cap, at),
                                       entries=ball())
        frontier = np.concatenate(nxt)
    return ball()


class WordBall:
    """The elements a BFS kept, in BFS order, as its kernel's rows.  Elements
    and words are built from the rows when first read; `len()` counts rows.
    Row i > 0 has its parent row's word and then its step's label; untracked
    words are empty.  Iterating a ball gives its (word, element) entries."""

    def __init__(self, rows, elements_of, words):
        self.rows, self._elements_of, self._words = rows, elements_of, words

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.entries)

    def element(self, i):
        return self._elements_of(self.rows[i:i + 1])[0]

    def word(self, i):
        out = []
        while i and self._words:
            parent, step, labels = self._words
            out.append(labels[step[i]])
            i = parent[i]
        return tuple(reversed(out))

    @cached_property
    def elements(self):
        return self._elements_of(self.rows)

    @cached_property
    def words(self):
        if not self._words:
            return [()] * len(self)
        parent, step, labels = self._words
        out = [()]
        for p, s in zip(parent[1:].tolist(), step[1:].tolist()):
            out.append(out[p] + (labels[s],))
        return out

    @cached_property
    def entries(self):
        """(word, element) pairs; word = tuple of signed generator labels."""
        return list(zip(self.words, self.elements))

    def nontrivial(self):
        return [(w, e) for w, e in self.entries if w]


def word_ball(group, radius, cap=WORD_BALL_CAP):
    """All elements of word length <= radius over the symmetric generating
    set, each present exactly once (identity included, empty word)."""
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    return _bfs(group.identity(), group.symmetric_generators(), radius=radius, cap=cap,
                label="word ball of radius %d" % radius)


# -- batched displacement -------------------------------------------------

def stack_moebius(elements):
    m = np.array([[complex(e.m[0]), complex(e.m[1]), complex(e.m[2]), complex(e.m[3])]
                  for e in elements])
    return m[:, 0], m[:, 1], m[:, 2], m[:, 3]


def moebius_apply_h2(stacked, z):
    a, b, c, d = stacked
    return (a * z + b) / (c * z + d)


def cosh_distances_h2(z, w):
    """cosh of the H^2 distances from points z to points w, unclamped."""
    return 1.0 + np.abs(w - z) ** 2 / (2.0 * z.imag * np.maximum(w.imag, 1e-300))


def distances_h2(z, w):
    """H^2 distances from the half-plane point z to the array of points w."""
    return np.arccosh(np.maximum(cosh_distances_h2(z, w), 1.0))


def displacements_h2(stacked, z):
    """Displacements of stacked real Moebius elements at H^2 points z, one or (P, 1)."""
    return distances_h2(z, moebius_apply_h2(stacked, z))


def displacements_h3(stacked, z, t):
    """Displacements at the H^3 point (z, t), or at (P, 1) columns z and t."""
    a, b, c, d = stacked
    den = np.abs(c * z + d) ** 2 + np.abs(c) ** 2 * t * t
    w = ((a * z + b) * np.conj(c * z + d) + a * np.conj(c) * t * t) / den
    tt = t / den
    num = np.abs(w - z) ** 2 + (tt - t) ** 2
    arg = 1.0 + num / (2.0 * t * tt)
    return np.arccosh(np.maximum(arg, 1.0))


def displacements_at(elements, point):
    """Displacement of every element at the given point (H^2/H^3/Euclidean)."""
    if isinstance(point, hyperbolic.HPoint):
        stacked = stack_moebius(elements)
        if point.dim == 2:
            return displacements_h2(stacked, point.z)
        return displacements_h3(stacked, point.z, point.t)
    x = np.asarray(point, dtype=float)
    return np.array([e.displacement(x) for e in elements])


def displacement_pruned_ball(group, base, keep, slack, cap=200000):
    """Elements g with d(base, g base) <= keep, found by BFS over the orbit.

    BFS expands through elements up to displacement keep + slack before
    pruning, so orbit points reachable only through detours are not lost.
    The caller chooses the slack; this certificate gives one.  Let the
    symmetric generators be the side pairings of a fundamental polygon D
    that contains base, and let every point of D lie within rho of base.
    The geodesic from base to g base crosses a chain of edge-adjacent tiles
    h D, from D to g D.  Neighbouring tiles differ by a side pairing (on the
    right), and each tile meets the geodesic, so its center h base lies
    within keep + rho of base.  So slack rho finds every g (the octagon's
    side pairings about its center with rho its circumradius, as the
    `presentation` command uses them).

    For a real group at an H^2 base, the BFS drops candidates beyond
    keep + slack before keying them (a reach, see `_bfs`), and the scalar
    displacement decides for each newly keyed element.  So `cap` counts the
    identity and the elements within keep + slack (up to a float margin),
    not the candidates pruned beyond it.
    """
    sym = group.symmetric_generators()
    explore = keep + slack
    real_h2 = base.dim == 2 and not any(g.is_complex for _, g in sym)

    def test(w):
        d = hyperbolic.displacement(w, base)
        return d <= explore, d <= keep

    return _bfs(group.identity(), sym, test=test, cap=cap, label="pruned orbit ball",
                reach=(base, explore) if real_h2 else None).elements
