"""Discrete-group experiments over the geometric modules.

Everything quantified over an infinite group is computed on a word ball and
reports the radius used.  The experiments: injectivity radius, thick-thin
scans, the displacement Morse function and its gradient-vanishing check,
hyperbolic covolumes, recurrence searches, and the matrix-span check.  The
scans of one group object at one radius share a `BallGeometry`, dropped
with the group (`ball_geometry`).
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math
import weakref

import numpy as np

from . import hyperbolic, mat2
from .errors import DomainError, PreconditionError
from .hyperbolic import HYPERBOLIC, PARABOLIC, HPoint
from .wordballs import (displacements_at, displacements_h2, displacements_h3,
                        stack_moebius, word_ball)

BLOCK_ENTRIES = 2 ** 15


class BallGeometry:
    """A word ball with the precomputation the scan-style experiments share:
    batched displacements in blocks, each element's class (computed on first
    use, at most once), the translation lengths, and the short-element
    component rule of the thick-thin decomposition and the Margulis lemma.
    Element i is the ball's row i + 1, built only to be classified or read.
    A ball with no nontrivial element is a PreconditionError.  The caches
    depend on the ball alone, so one geometry serves a (group, radius)
    for the group's lifetime (`ball_geometry`)."""

    def __init__(self, group, radius):
        self.radius = radius
        self.ball = word_ball(group, radius)
        if len(self.ball) < 2:
            raise PreconditionError("empty nontrivial ball")
        self._classes = {}

    def __len__(self):
        return len(self.ball) - 1

    def word(self, i):
        return self.ball.word(i + 1)

    @cached_property
    def elements(self):
        return self.ball.elements[1:]

    @cached_property
    def stacked(self):
        rows = self.ball.rows[1:]
        return tuple(rows.astype(complex).T) if rows.ndim == 2 else stack_moebius(rows)

    def classify(self, i):
        """hyperbolic.classify of the i-th element."""
        cls = self._classes.get(i)
        if cls is None:
            cls = self._classes[i] = hyperbolic.classify(self.ball.element(i + 1))
        return cls

    @cached_property
    def translation_lengths(self):
        return np.array([self.classify(i).translation_length for i in range(len(self))])

    def displacement_blocks(self, coords, columns=slice(None)):
        """(start, block) pairs, blocks of at most BLOCK_ENTRIES entries or one
        row, over P rows of HPoint coordinates: block[k, j] is the displacement
        of element columns[j] (default: all) at row start + k, bit-equal to
        `displacements_at`."""
        coords = np.asarray(coords, dtype=float)
        stacked = tuple(s[columns] for s in self.stacked)
        rows = max(1, BLOCK_ENTRIES // max(1, len(stacked[0])))
        for start in range(0, len(coords), rows):
            block = coords[start:start + rows]
            z = np.ascontiguousarray(block[:, :2]).view(complex)
            if block.shape[1] == 2:
                yield start, displacements_h2(stacked, z)
            else:
                yield start, displacements_h3(stacked, z, block[:, 2:])

    def displacements(self, point):
        """Every element's displacement at an HPoint or a Euclidean array."""
        if isinstance(point, HPoint):
            return next(self.displacement_blocks([point.coords]))[1][0]
        return displacements_at(self.elements, point)

    def components(self, indices, groups):
        """The component of each element in `indices`, as an index into
        `groups`: a list of (kind, data) that gains an entry for each new
        component.  Tubes share an axis, cusps a boundary fixed point and
        cones an interior fixed point."""
        return [_match_component(groups, *_component_signature(self.classify(i)))
                for i in indices]


_GEOMETRIES = weakref.WeakKeyDictionary()    # group -> {radius: BallGeometry}


def ball_geometry(group, radius):
    """The BallGeometry of (group, radius), built on first request and kept
    until the group (its generators a tuple) is collected; a failed build
    stores nothing."""
    bg = _GEOMETRIES.get(group, {}).get(radius)
    if bg is None:
        bg = BallGeometry(group, radius)
        _GEOMETRIES.setdefault(group, {})[radius] = bg
    return bg


# -- injectivity radius ----------------------------------------------------

@dataclass
class InjectivityRadius:
    value: float
    minimizer_word: tuple
    stabilized: bool
    radius_used: int


def injectivity_radius(group, x, radius):
    """Half the least displacement at x over nontrivial ball elements.

    Nonincreasing in the ball radius; `stabilized` flags a minimizer strictly
    inside the ball (heuristic evidence the truncation already saw the true
    minimum).
    """
    if radius < 1:
        raise PreconditionError("ball radius must be >= 1")
    bg = ball_geometry(group, radius)
    disp = bg.displacements(x)
    i = int(np.argmin(disp))
    word = bg.word(i)
    return InjectivityRadius(
        value=0.5 * float(disp[i]),
        minimizer_word=word,
        stabilized=len(word) < radius,
        radius_used=radius,
    )


# -- thick-thin scan ---------------------------------------------------------

@dataclass
class ThinComponentReport:
    kind: str                    # "tube" or "cusp"
    witnesses: list              # words of the short elements
    samples: list                # points observed inside the component
    core_length: float = None    # tubes: least translation length of a witness
    axis: tuple = None           # tubes: boundary endpoints
    fixed_point: complex = None  # cusps: shared boundary fixed point


@dataclass
class ConeComponentReport:
    """Orbifold locus: short elliptic elements around their fixed point.

    Kept apart from tubes and cusps, which the torsion-free theory describes."""
    fixed_point: HPoint
    witnesses: list
    samples: list


@dataclass
class ThickThinResult:
    epsilon: float
    radius_used: int
    thin_components: list
    cone_components: list
    thick_samples: list
    unresolved_samples: list

    @property
    def component_count(self):
        return len(self.thin_components)


def _component_signature(cls):
    if cls.kind == HYPERBOLIC:
        return ("tube", cls.axis)
    if cls.kind == PARABOLIC:
        return ("cusp", cls.fixed_boundary)
    return ("cone", cls.fixed_interior)


def _match_component(groups, sig_kind, data):
    for idx, (kind, ref) in enumerate(groups):
        if kind != sig_kind:
            continue
        if kind == "tube" and hyperbolic.same_axis(ref, data):
            return idx
        if kind == "cusp" and hyperbolic.same_boundary_point(ref, data):
            return idx
        if kind == "cone" and ref.close_to(data, 1e-6):
            return idx
    groups.append((sig_kind, data))
    return len(groups) - 1


def thick_thin_scan(group, epsilon, samples, radius):
    """Mark samples thin where 2 InjRad < epsilon and group the short
    elements by shared axis (tubes) or shared boundary fixed point (cusps).

    Short elliptic elements are grouped separately by fixed point as cone
    components (only torsion-free groups have a pure tube/cusp thin part).
    A sample whose witnesses straddle two different groups is reported
    unresolved ("increase the ball radius").
    Only the short entries of each displacement block are kept, and only
    samples with a short element are walked.
    """
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive, got %g" % epsilon)
    bg = ball_geometry(group, radius)
    groups = []                     # (kind, identifying data) per component
    witnesses = defaultdict(set)    # component -> indices of its short elements
    held = defaultdict(list)        # component -> samples inside it
    unresolved = []
    shorts = defaultdict(list)      # sample index -> indices of its short elements
    for start, disp in bg.displacement_blocks([p.coords for p in samples]):
        rows, cols = np.nonzero(disp < epsilon)
        for k, i in zip((rows + start).tolist(), cols.tolist()):
            shorts[k].append(i)
    thick = [p for k, p in enumerate(samples) if k not in shorts]
    for k, short in shorts.items():
        ids = bg.components(short, groups)
        for cid, i in zip(ids, short):
            witnesses[cid].add(i)
        if len(set(ids)) > 1:
            unresolved.append(samples[k])
        else:
            held[ids[0]].append(samples[k])

    thin_components, cone_components = [], []
    for cid, (kind, data) in enumerate(groups):
        widx = sorted(witnesses[cid])
        words = [bg.word(i) for i in widx]
        if kind == "tube":
            core = min(bg.classify(i).translation_length for i in widx)
            thin_components.append(ThinComponentReport(
                kind="tube", witnesses=words, samples=held[cid],
                core_length=core, axis=data))
        elif kind == "cusp":
            thin_components.append(ThinComponentReport(
                kind="cusp", witnesses=words, samples=held[cid],
                fixed_point=data))
        else:
            cone_components.append(ConeComponentReport(
                fixed_point=data, witnesses=words, samples=held[cid]))
    return ThickThinResult(
        epsilon=epsilon,
        radius_used=bg.radius,
        thin_components=thin_components,
        cone_components=cone_components,
        thick_samples=thick,
        unresolved_samples=unresolved,
    )


# -- the displacement Morse function ----------------------------------------

def standard_bump(epsilon):
    """f(t) = ((eps - t)_+)^2 / t on t > 0: blows up at 0, strictly decreasing
    on (0, eps], vanishes on [eps, infinity).  C^1, which is all the
    finite-difference gradient checks need."""
    def f(t):
        if t >= epsilon:
            return 0.0
        return (epsilon - t) ** 2 / t
    return f


def _psi_rows(bg, coords, epsilon, bump):
    """The displacement Morse function at each row x of HPoint coordinates:
    the sum of f(d_gamma(x) - |gamma|) over the ball's nontrivial elements
    with |gamma| <= epsilon, f the bump (default `standard_bump`), which must
    vanish on [epsilon, infinity): only arguments up to max(epsilon, 1e-9)
    reach it, in column order.  Returns (values, None), or, when a row lies
    on the min-set of a semisimple element (an argument within 1e-9 of 0),
    the values of the rows before the first such row and its DomainError.
    Parabolic elements have empty min-sets and may give arbitrarily large
    summands instead."""
    f = bump or standard_bump(epsilon)
    short = np.flatnonzero(bg.translation_lengths <= epsilon).tolist()
    values = []
    for _, disp in bg.displacement_blocks(coords, short):
        t = disp - bg.translation_lengths[short]
        rows, cols = np.nonzero(t <= max(epsilon, 1e-9))
        block = [0.0] * len(t)
        for r, c, tc in zip(rows.tolist(), cols.tolist(), t[rows, cols].tolist()):
            i = short[c]
            if tc <= 1e-9 and bg.classify(i).attained:
                return values + block[:r], DomainError(
                    "point lies on the min-set of a short element (word %r)" % (bg.word(i),))
            block[r] += f(tc)
        values += block
    return values, None


def _psi(bg, x, epsilon, bump):
    """`_psi_rows` at the HPoint x, raising its DomainError."""
    values, error = _psi_rows(bg, [x.coords], epsilon, bump)
    if error:
        raise error
    return values[0]


def _stencil(coords, h):
    """The (P, 2 dim, dim) central-difference points +h e_0, -h e_0, +h e_1,
    ... around P rows of coordinates, for 0 < h < every row's height."""
    if not h > 0:
        raise PreconditionError("finite-difference step must be positive, got %g" % h)
    if len(coords) and coords[:, -1].min() <= h:
        raise PreconditionError("finite-difference step %g is not below the lowest sample %r; "
                                "lower --step" % (h, HPoint(*min(coords, key=lambda c: c[-1]))))
    eye = h * np.eye(coords.shape[1])
    return coords[:, None, :] + np.stack([eye, 0.0 - eye], axis=1).reshape(-1, len(eye))


def _gradients(bg, stencil, epsilon, h, bump):
    """The gradient at each point of a `_stencil`, raising `_psi_rows`'s error."""
    p, _, dim = stencil.shape
    values, error = _psi_rows(bg, stencil.reshape(-1, dim), epsilon, bump)
    if error:
        raise error
    v = np.array(values).reshape(p, dim, 2)
    return (v[..., 0] - v[..., 1]) / (2.0 * h)


def _psi_gradient(bg, x, epsilon, h, bump):
    """Central-difference gradient of the displacement Morse function."""
    return _gradients(bg, _stencil(np.array([x.coords]), h), epsilon, h, bump)[0]


@dataclass
class GradientLemmaResult:
    violations: list           # (point, psi, grad_norm)
    borderline: int
    checked: int


def gradient_lemma_check(group, epsilon, samples, radius, h, bump=None):
    """Empty violation list iff at every sample the gradient vanishes exactly
    where the function does: (psi <= tol and |grad| <= grad_tol) or
    (psi > tol and |grad| > grad_tol), with tol = 1e-9 and grad_tol = 1e-6.
    Samples with psi in (tol, 2 tol] are borderline: excluded and counted.
    The central-difference step h must be positive and below every
    sample's height (checked up front).  One word ball serves two batches of
    psi: the samples, then the stencils of those not borderline.  The
    DomainError raised is the first met sample by sample, stencils after."""
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive, got %g" % epsilon)
    tol, grad_tol = 1e-9, 1e-6
    coords = np.array([p.coords for p in samples] or np.empty((0, 2)))
    stencil = _stencil(coords, h)
    bg = ball_geometry(group, radius)
    values, error = _psi_rows(bg, coords, epsilon, bump)
    keep = [k for k, value in enumerate(values) if not tol < value <= 2.0 * tol]
    norms = [float(np.linalg.norm(g)) for g in _gradients(bg, stencil[keep], epsilon, h, bump)]
    if error:
        raise error
    violations = [(samples[k], values[k], g) for k, g in zip(keep, norms)
                  if (values[k] <= tol) != (g <= grad_tol)]
    return GradientLemmaResult(violations=violations, borderline=len(values) - len(keep),
                               checked=len(keep))


# -- hyperbolic covolumes ----------------------------------------------------

def covolume_h2(domain):
    """Hyperbolic area of a fundamental domain.

    `domain` is "sl2z" (pi / 3, the closed form of the integral of
    dx dy / y^2 over the standard modular domain), "ideal-triangle",
    {"kind": "polygon", "angles": [...]} (angle defect (n-2) pi - sum), or
    {"kind": "genus", "genus": g} (2 pi (2g - 2)).
    """
    if domain == "sl2z":
        # Inner dy/y^2 integrates to 1/sqrt(1 - x^2), and its integral over
        # [-1/2, 1/2] is asin(1/2) - asin(-1/2) = pi / 3.
        return math.pi / 3.0
    if domain == "ideal-triangle":
        domain = {"kind": "polygon", "angles": [0.0, 0.0, 0.0]}
    kind = domain.get("kind")
    if kind == "polygon":
        angles = domain["angles"]
        n = len(angles)
        if n < 3:
            raise PreconditionError("polygon needs at least 3 vertices")
        defect = (n - 2) * math.pi - sum(angles)
        if defect <= 0:
            raise PreconditionError(
                "angle sum %.6f exceeds (n-2) pi: not a hyperbolic polygon" % sum(angles))
        return defect
    if kind == "genus":
        g = domain["genus"]
        if g < 2:
            raise PreconditionError("closed hyperbolic surfaces need genus >= 2")
        return 2.0 * math.pi * (2 * g - 2)
    raise PreconditionError("unknown domain spec %r" % (domain,))


def covolume_h2_exact(angle_pi_fractions):
    """Angle-defect area of a polygon with angles given as exact fractions of
    pi; returns the rational coefficient of pi."""
    fracs = [Fraction(a) for a in angle_pi_fractions]
    n = len(fracs)
    if n < 3:
        raise PreconditionError("polygon needs at least 3 vertices")
    defect = Fraction(n - 2) - sum(fracs)
    if defect <= 0:
        raise PreconditionError("angle sum exceeds (n-2) pi: not a hyperbolic polygon")
    return defect


def genus_area_exact(genus):
    """Coefficient of pi in 2 pi (2g - 2)."""
    if genus < 2:
        raise PreconditionError("closed hyperbolic surfaces need genus >= 2")
    return Fraction(2 * (2 * genus - 2))


# -- recurrence --------------------------------------------------------------

# Rows per array pass over a loop's items, so memory stays flat in its length.
ROW_BLOCK = 1024


def row_norms(rows):
    """np.linalg.norm of each row, bit for bit: the same dot product, stacked."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())


def recurrence_search_real(v, epsilon, horizon):
    """All n <= horizon whose multiple n v returns within 2 eps of the integer
    lattice (the eps-ball pigeonhole witness in R^k / Z^k)."""
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    hits = []
    for start in range(1, horizon + 1, ROW_BLOCK):
        ns = np.arange(start, min(start + ROW_BLOCK, horizon + 1))
        w = ns[:, None] * v
        hits += ns[row_norms(w - np.round(w)) < 2.0 * epsilon].tolist()
    return hits


def recurrence_search_sl2z(g, epsilon, horizon):
    """Powers g^n admitting a nearby integral unimodular matrix.

    A hit at n records the integer candidate M = round(g^n) whenever M has
    exact determinant one and ||g^n - M||_F < 2 eps ||g^n||_F, the scale at
    which g^n lies in an eps-ball sandwich around a group element.
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    acc = (1.0, 0.0, 0.0, 1.0)
    gm = tuple(float(x) for x in g.m)
    hits = []
    for n in range(1, horizon + 1):
        acc = mat2.mul(acc, gm)
        acc = tuple(x / math.sqrt(abs(mat2.det(acc))) for x in acc)
        cand = tuple(int(round(x)) for x in acc)
        if cand[0] * cand[3] - cand[1] * cand[2] != 1:
            continue
        err = math.sqrt(sum((x - m) ** 2 for x, m in zip(acc, cand)))
        norm = math.sqrt(sum(x * x for x in acc))
        if err < 2.0 * epsilon * norm:
            hits.append((n, ((cand[0], cand[1]), (cand[2], cand[3]))))
    return hits


# -- matrix span -------------------------------------------------------------

@dataclass
class SpanReport:
    dimension: int
    regular_witness_word: tuple = None
    regular_witness: tuple = None


def span_check(group, radius):
    """Dimension of the linear span of ball elements in matrix space, plus a
    regular (distinct-eigenvalue) element when one exists."""
    if radius < 1:
        raise PreconditionError("ball radius must be >= 1")
    ball = word_ball(group, radius)
    m = np.array([[complex(x) for x in e.m] for e in ball.elements])
    if any(e.is_complex for e in ball.elements):
        m = np.hstack([m.real, m.imag])
    dim = int(np.linalg.matrix_rank(m.real, tol=1e-9))
    witness_word, witness = None, None
    for word, e in ball.nontrivial():
        t = complex(e.trace())
        if abs(t * t - 4.0) > 1e-8:
            witness_word, witness = word, e.m
            break
    return SpanReport(dimension=dim, regular_witness_word=witness_word,
                      regular_witness=witness)
