"""Entry-generic matrix helpers: the one place that decides what is exact.

Moebius elements are stored as flat 4-tuples (a, b, c, d) so the same code
path serves exact entries (int / Fraction), floats and complexes.  Heavier
batch work converts to numpy arrays at the call site; these helpers stay
scalar on purpose.  Square n x n matrices (`mat_*`) are Fraction row tuples
when every entry is exact and numpy arrays otherwise; their inverse and
determinant share one Fraction elimination.  The identity rule of every
group element (`GRID`, `quantize`, `Keyed`) lives here too, below every
isometry module.
"""

from fractions import Fraction
import math

import numpy as np

from .errors import DimensionMismatchError, PreconditionError

# The identity rule: float elements are the same element when their entries
# round to the same multiples of GRID; exact entries compare exactly.  Distinct
# elements of the groups enumerated here differ by far more than GRID.
GRID = 1e-6

# A float entry within STRADDLE * (1 + |x|) of a half-cell boundary may round
# either way under float error, so enumeration lookups probe both cells.
STRADDLE = 1e-9

# Float Moebius normalization, which the array kernel in `wordballs` repeats
# bit for bit: entries of magnitude at most SIGN_TOL count as zero when the
# sign is chosen, a determinant below SINGULAR is singular, and a normalized
# element whose determinant is off one by more than DET_DRIFT is rejected.
SIGN_TOL = 1e-7
SINGULAR = 1e-9
DET_DRIFT = 1e-9


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv_det1(m):
    """Inverse of a determinant-one matrix (exact when entries are exact)."""
    a, b, c, d = m
    return (d, -b, -c, a)


def det(m):
    a, b, c, d = m
    return a * d - b * c


def tr(m):
    return m[0] + m[3]


def is_exact(xs):
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _sign_key(x):
    # Order on reals; on complexes: real part, ties by imaginary part.
    if isinstance(x, complex):
        if x.real != 0:
            return x.real
        return x.imag
    return x


def canonicalize_sign(m, exact):
    """Flip the global sign so the first nonzero entry is positive.

    Resolves the +-m ambiguity of projectivized matrices.  For complex
    entries "positive" means positive real part (ties: positive imaginary
    part).  `exact` says whether m's entries are exact; float entries of
    magnitude at most SIGN_TOL count as zero.
    """
    tol = 0 if exact else SIGN_TOL
    for x in m:
        if abs(x) > tol:
            return m if _sign_key(x) > 0 else tuple(-y for y in m)
    return m


def normalize_det1(m, exact):
    """Scale to determinant one.  Exact inputs must already have det +-1."""
    d = det(m)
    if exact:
        if d == 1:
            return m
        if d == -1:
            raise ValueError("determinant -1 is not a Moebius isometry of the upper half space")
        raise ValueError("exact entries must have determinant 1, got %s" % (d,))
    if abs(d) < SINGULAR:
        raise ValueError("matrix is singular")
    if isinstance(d, complex) or any(isinstance(x, complex) for x in m):
        s = complex(d) ** (-0.5)
    else:
        if d < 0:
            raise ValueError("determinant -1 is not a Moebius isometry of the upper half space")
        s = 1.0 / math.sqrt(d)
    return tuple(x * s for x in m)


def frobenius_dist_to_identity(m):
    a, b, c, d = m
    return math.hypot(abs(a - 1), abs(b), abs(c), abs(d - 1))    # no overflow in squares


def quantize(xs):
    """Dedup key of a flat entry sequence under the identity rule: exact
    entries stay as they are, floats (and both parts of complexes) become
    their nearest multiples of GRID."""
    out = []
    for x in xs:
        if isinstance(x, float):
            out.append(round(x / GRID))
        elif isinstance(x, complex):
            out.append((round(x.real / GRID), round(x.imag / GRID)))
        else:
            out.append(x)
    return tuple(out)


class Keyed:
    """Equality and hashing under the identity rule for elements that define
    key_entries(), their flat identifying entries; equal elements hash equal."""

    __slots__ = ()

    def dedup_key(self):
        return quantize(self.key_entries())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dedup_key() == other.dedup_key()

    def __hash__(self):
        return hash(self.dedup_key())


def as_tuple(mat):
    """Accept a 2x2 nested sequence or a flat 4-sequence."""
    try:
        if len(mat) == 2:
            (a, b), (c, d) = mat
            return (a, b, c, d)
        if len(mat) == 4:
            a, b, c, d = mat
            return (a, b, c, d)
    except (TypeError, ValueError):
        pass
    raise DimensionMismatchError("expected a 2x2 matrix, got %r" % (mat,))


def parse_entry(text):
    """Parse one matrix entry from structured text.

    Accepts integers, "p/q" rationals (exact), floats, and complex
    literals like "1+2j".
    """
    text = text.strip()
    if "/" in text and "j" not in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return complex(text.replace(" ", ""))


# -- square n x n matrices ------------------------------------------------------

def mat_from(data):
    """Exact matrices become Fraction tuples; anything else numpy."""
    rows = [list(r) for r in data]
    if is_exact(x for r in rows for x in r):
        return tuple(tuple(Fraction(x) for x in r) for r in rows)
    return np.array(rows, dtype=complex if any(isinstance(x, complex)
                                               for r in rows for x in r) else float)


def mat_is_exact(m):
    return isinstance(m, tuple)


def mat_dim(m):
    return len(m) if mat_is_exact(m) else m.shape[0]


def mat_mul(a, b):
    if mat_is_exact(a) and mat_is_exact(b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n))
    return np.asarray(a) @ np.asarray(b)


def _gauss_jordan(m, right):
    """Reduce the exact rows [m | right] to [1 | m^-1 right] with Fraction
    pivots; returns (det m, m^-1 right), or (0, None) when m is singular."""
    n = len(m)
    rows = [list(r) + list(s) for r, s in zip(m, right)]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            d = -d
        pv = rows[col][col]
        d *= pv
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return d, tuple(tuple(r[n:]) for r in rows)


def mat_inv(m):
    if not mat_is_exact(m):
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise PreconditionError("singular matrix") from None
    _, inv = _gauss_jordan(m, mat_identity(len(m)))
    if inv is None:
        raise PreconditionError("singular matrix")
    return inv


def mat_det(m):
    """Determinant: a Fraction for exact matrices, a Python scalar otherwise."""
    if not mat_is_exact(m):
        return np.linalg.det(m).item()
    return _gauss_jordan(m, [()] * len(m))[0]


def mat_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_is_identity(m):
    if mat_is_exact(m):
        n = len(m)
        return all(m[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    return np.abs(np.asarray(m) - np.eye(mat_dim(m))).max() <= 1e-12


def frobenius_to_identity(m):
    if mat_is_exact(m):
        n = len(m)
        return math.sqrt(sum(float(m[i][j] - (1 if i == j else 0)) ** 2
                             for i in range(n) for j in range(n)))
    d = np.asarray(m) - np.eye(mat_dim(m))
    return float(np.sqrt((np.abs(d) ** 2).sum()))


def frobenius_norm(m):
    if mat_is_exact(m):
        return math.sqrt(sum(float(x) ** 2 for r in m for x in r))
    return float(np.sqrt((np.abs(np.asarray(m)) ** 2).sum()))

