"""Upper half-plane / half-space models of hyperbolic 2- and 3-space.

Isometries are projectivized 2x2 matrices over the reals (dimension 2) or
complexes (dimension 3), normalized to determinant one and defined up to a
global sign.  Exact integer / rational entries are kept exact, which makes
word-ball deduplication and trace classification certain for groups like the
modular group; float entries fall back to tolerance arithmetic with an
explicit borderline band around the parabolic locus.

Dimensions >= 4 live in the hyperboloid model (see `hyperboloid`).
"""

from dataclasses import dataclass
import cmath
import math

from . import mat2
from .errors import (
    BorderlineClassificationError,
    DimensionMismatchError,
    InvalidPointError,
)

IDENTITY = "identity"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"

INFINITY = complex("inf")

# Half-width of the band around |tr| = 2 in which float classification refuses
# to guess.  Parabolic/elliptic/hyperbolic boundaries are not decidable in
# floating point.
TRACE_BAND = 1e-7


class HPoint:
    """Point of H^2 or H^3 in upper half coordinates.

    H^2: (x, y) with y > 0, stored as the complex number x + iy.
    H^3: (x1, x2, y) with y > 0, stored as (x1 + i x2, y).
    """

    __slots__ = ("z", "t", "dim")

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) == 1 and isinstance(coords[0], complex):
            coords = (coords[0].real, coords[0].imag)
        if len(coords) == 2:
            x, y = coords
            self.z = complex(x, y)
            self.t = float(y)
            self.dim = 2
        elif len(coords) == 3:
            x1, x2, y = coords
            self.z = complex(x1, x2)
            self.t = float(y)
            self.dim = 3
        else:
            raise InvalidPointError("expected 2 or 3 coordinates, got %r" % (coords,))
        if not self.t > 0:
            raise InvalidPointError("height coordinate must be positive, got %r" % (self.t,))

    @classmethod
    def from_h2(cls, z):
        """The H^2 point z, a complex number, as HPoint(z.real, z.imag)."""
        p = object.__new__(cls)
        p.z, p.t, p.dim = z, z.imag, 2
        if not p.t > 0:
            raise InvalidPointError("height coordinate must be positive, got %r" % (p.t,))
        return p

    @property
    def coords(self):
        if self.dim == 2:
            return (self.z.real, self.z.imag)
        return (self.z.real, self.z.imag, self.t)

    def __repr__(self):
        return "HPoint%r" % (self.coords,)

    def close_to(self, other, tol=1e-9):
        return self.dim == other.dim and abs(self.z - other.z) <= tol and abs(self.t - other.t) <= tol


def distance(p, q):
    """Hyperbolic distance in the upper half model (any dimension 2 or 3)."""
    if p.dim != q.dim:
        raise DimensionMismatchError("points of H^%d and H^%d" % (p.dim, q.dim))
    if p.dim == 2:
        num = abs(p.z - q.z) ** 2
        arg = 1.0 + num / (2.0 * p.z.imag * q.z.imag)
    else:
        num = abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2
        arg = 1.0 + num / (2.0 * p.t * q.t)
    return math.acosh(max(arg, 1.0))


class MoebiusIsometry(mat2.Keyed):
    """Projectivized determinant-one 2x2 matrix acting on H^2 (real entries)
    or H^3 (complex entries; real matrices embed as isometries fixing the
    vertical plane)."""

    __slots__ = ("m", "exact")

    def __init__(self, entries):
        m = mat2.as_tuple(entries)
        self.exact = exact = mat2.is_exact(m)
        if not exact:
            m = tuple(complex(x) if isinstance(x, complex) else float(x) for x in m)
        m = mat2.normalize_det1(m, exact)
        if not exact and abs(mat2.det(m) - 1) > mat2.DET_DRIFT:
            raise ValueError("normalization failed, |det - 1| = %g" % abs(mat2.det(m) - 1))
        self.m = mat2.canonicalize_sign(m, exact)

    @classmethod
    def from_canonical(cls, m, exact):
        """The element with flat entries m, already of determinant one and
        sign-canonical (as __init__ would leave them), taken as they are:
        floats, or Python ints when `exact` (the rows of the `wordballs`
        array kernel, turned into elements when a ball is read)."""
        g = object.__new__(cls)
        g.m, g.exact = m, exact
        return g

    # -- algebra ----------------------------------------------------------
    def __mul__(self, other):
        return MoebiusIsometry(mat2.mul(self.m, other.m))

    def inverse(self):
        return MoebiusIsometry(mat2.inv_det1(self.m))

    def __repr__(self):
        return "MoebiusIsometry(%r)" % (self.m,)

    @property
    def is_complex(self):
        return complex in map(type, self.m)

    def trace(self):
        return mat2.tr(self.m)

    def is_identity(self):
        if self.exact:
            return self.m in ((1, 0, 0, 1), (-1, 0, 0, -1))
        return mat2.frobenius_dist_to_identity(self.m) <= 1e-9    # m is sign-canonical

    def key_entries(self):
        return self.m    # sign-canonical since __init__

    # -- action -----------------------------------------------------------
    def apply(self, p):
        a, b, c, d = map(complex, self.m)
        if p.dim == 2:
            if self.is_complex:
                raise DimensionMismatchError("complex matrix cannot act on H^2")
            return HPoint.from_h2((a * p.z + b) / (c * p.z + d))
        den = abs(c * p.z + d) ** 2 + abs(c) ** 2 * p.t ** 2
        z = ((a * p.z + b) * (c * p.z + d).conjugate() + a * c.conjugate() * p.t ** 2) / den
        return HPoint(z.real, z.imag, p.t / den)


def displacement(g, p):
    """d(g p, p), the displacement of g at p.  A real g (exact, or float
    entries, which __init__ leaves all float or all complex) at an H^2 point
    takes one pass in the float operations of g.apply(p) and distance():
    a real entry meets the complex z as complex(entry) would."""
    if p.dim == 2 and (g.exact or type(g.m[0]) is float):
        a, b, c, d = g.m
        z = p.z
        w = (a * z + b) / (c * z + d)
        if not w.imag > 0:
            raise InvalidPointError("height coordinate must be positive, got %r" % (w.imag,))
        return math.acosh(max(1.0 + abs(w - z) ** 2 / (2.0 * w.imag * z.imag), 1.0))
    return distance(g.apply(p), p)


def conjugate(g, h):
    """h g h^-1."""
    return h * g * h.inverse()


@dataclass
class ContractionWitness:
    norms: list
    escaping: bool


def sequence_contraction_witness(g_seq, gamma):
    """Frobenius distances ||g_n gamma g_n^-1 - 1|| along the sequence.

    Flags `escaping` when the norms are positive, nonincreasing, and end
    below 1e-2: the conjugates crush gamma into the identity, which
    certifies that the g_n leave every compact set of the quotient.
    """
    norms = []
    for g in g_seq:
        c = conjugate(gamma, g)
        norms.append(mat2.frobenius_dist_to_identity(
            mat2.canonicalize_sign(tuple(complex(x) for x in c.m), exact=False)))
    esc = (
        len(norms) >= 2
        and all(n > 0 for n in norms)
        and all(norms[i + 1] <= norms[i] + 1e-15 for i in range(len(norms) - 1))
        and norms[-1] < 1e-2
    )
    return ContractionWitness(norms=norms, escaping=esc)


@dataclass
class IsometryClass:
    kind: str
    translation_length: float = 0.0
    attained: bool = True            # False for parabolic: inf not attained
    axis: tuple = None               # boundary endpoints (repelling, attracting)
    fixed_boundary: complex = None   # parabolic fixed point
    fixed_interior: HPoint = None    # a fixed point for elliptic / identity
    certified: bool = True           # False for purely numerical verdicts

    def __str__(self):
        return self.kind


def _boundary_fixed_points(m):
    """Roots of c z^2 + (d - a) z - b = 0 on the boundary sphere."""
    a, b, c, d = (complex(x) for x in m)
    if abs(c) == 0:
        if abs(d - a) == 0:
            return (INFINITY,)
        return (INFINITY, b / (d - a))
    disc = (a - d) ** 2 + 4 * b * c
    s = cmath.sqrt(disc)
    return (((a - d) + s) / (2 * c), ((a - d) - s) / (2 * c))


def _derivative_magnitude(m, z):
    a, b, c, d = (complex(x) for x in m)
    if z == INFINITY:
        # In the chart w = 1/z, g'(infinity) = d/a when c = 0 (squared: same side of 1).
        if c == 0:
            return abs(d / a) ** 2
        return math.inf
    return 1.0 / abs(c * z + d) ** 2


def _order_axis(m, fp):
    """Order hyperbolic fixed points as (repelling, attracting)."""
    p, q = fp
    dp = _derivative_magnitude(m, p)
    return (q, p) if dp < 1 else (p, q)


def classify(g):
    """Isometry trichotomy with attached geometric data.

    Real trace in (-2, 2) is elliptic (fixed interior point), trace +-2 is
    parabolic (unless the element is the identity), anything else attains a
    positive minimal displacement along an invariant axis.  Float verdicts
    within TRACE_BAND of the parabolic locus raise
    BorderlineClassificationError carrying the candidate classes.
    """
    if g.is_identity():
        fixed = HPoint(0, 0, 1) if g.is_complex else HPoint(0, 1)
        return IsometryClass(kind=IDENTITY, fixed_interior=fixed)
    t = g.trace()

    if g.exact:
        abs_t = abs(t)
        if abs_t == 2:
            kind = PARABOLIC
        elif abs_t < 2:
            kind = ELLIPTIC
        else:
            kind = HYPERBOLIC
        return _finish_classification(g, kind)

    t = complex(t)
    off_real = abs(t.imag)
    gap = abs(abs(t.real) - 2.0)
    if off_real <= TRACE_BAND:
        if gap <= TRACE_BAND:
            raise BorderlineClassificationError(
                (PARABOLIC, ELLIPTIC if abs(t.real) < 2 else HYPERBOLIC),
                detail="| |tr| - 2 | = %.3g" % gap,
            )
        kind = ELLIPTIC if abs(t.real) < 2 else HYPERBOLIC
    else:
        # Nonreal trace: loxodromic, except right at tr^2 = 4 which the band
        # above already caught through |Im tr| when tr is near +-2.
        kind = HYPERBOLIC
    return _finish_classification(g, kind)


def _finish_classification(g, kind):
    m = g.m
    if kind == PARABOLIC:
        fp = _boundary_fixed_points(m)
        return IsometryClass(
            kind=PARABOLIC,
            translation_length=0.0,
            attained=False,
            fixed_boundary=fp[0],
        )
    if kind == ELLIPTIC:
        fp = _boundary_fixed_points(m)
        if g.is_complex:
            # Rotation about the geodesic joining the two boundary fixed
            # points; report the summit of that geodesic.
            p, q = fp
            if p == INFINITY or q == INFINITY:
                base = q if p == INFINITY else p
                # Vertical axis: every (base, t) is fixed.
                interior = HPoint(base.real, base.imag, 1.0)
            else:
                mid = (p + q) / 2
                interior = HPoint(mid.real, mid.imag, abs(p - q) / 2)
        else:
            zs = [z for z in fp if z != INFINITY and z.imag > 1e-15]
            if not zs:
                raise BorderlineClassificationError(
                    (ELLIPTIC, PARABOLIC), detail="fixed point degenerated to the boundary")
            interior = HPoint(zs[0].real, zs[0].imag)
        return IsometryClass(kind=ELLIPTIC, fixed_interior=interior)

    # Hyperbolic (loxodromic): translation length from the eigenvalue of
    # largest modulus, lam + 1/lam = tr.
    t = complex(g.trace())
    tt = t * t
    if cmath.isfinite(tt):
        s = cmath.sqrt(tt - 4)
        lam = (t + s) / 2
        if abs(lam) < 1:
            lam = (t - s) / 2
    else:    # |tr| beyond about 1.3e154: the larger root without squaring tr
        lam = t / 2 * (1 + cmath.sqrt(1 - (2 / t) ** 2))
    length = 2.0 * math.log(abs(lam))
    axis = _order_axis(m, _boundary_fixed_points(m))
    return IsometryClass(kind=HYPERBOLIC, translation_length=length, axis=axis)


def same_boundary_point(p, q, tol=1e-7):
    if p == INFINITY or q == INFINITY:
        if p == q:
            return True
        other = q if p == INFINITY else p
        return abs(other) > 1.0 / tol
    return abs(p - q) <= tol


def same_axis(axis1, axis2):
    p1, q1 = axis1
    p2, q2 = axis2
    return (
        (same_boundary_point(p1, p2) and same_boundary_point(q1, q2))
        or (same_boundary_point(p1, q2) and same_boundary_point(q1, p2))
    )
