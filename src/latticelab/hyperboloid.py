"""Hyperboloid model of H^n for arbitrary n.

Points are vectors x in R^{n+1} with Q(x, x) = -1 and x_0 > 0, where
Q = diag(-1, 1, ..., 1).  Isometries are plain (n+1) x (n+1) arrays that
preserve Q and the upper sheet, O(n,1)^+.  `classify_lorentz` decides the
trichotomy from the eigenvalues alone (Ratcliffe, Foundations of Hyperbolic
Manifolds, section 4.7).  Floating point cannot tell a defective unit
eigenvalue from a nearby split pair, so the parabolic verdict is flagged as
numerical, not certified.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import hyperbolic
from .errors import InvalidPointError


def minkowski_form(n):
    q = np.eye(n + 1)
    q[0, 0] = -1.0
    return q


def q_inner(u, v):
    return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)


def basepoint(n):
    e0 = np.zeros(n + 1)
    e0[0] = 1.0
    return e0


def normalize_point(x):
    """Rescale a timelike vector, or each row of an array, onto the upper sheet."""
    x = np.asarray(x, dtype=float)
    s = -q_inner(x, x)
    if np.any(s <= 0):
        raise InvalidPointError("vector is not timelike")
    x = x / np.sqrt(s)[..., None]
    return np.where(x[..., :1] > 0, x, -x)


def hdistance(x, y):
    """Hyperbolic distances between hyperboloid points, or between the rows
    of two arrays of them."""
    return np.arccosh(np.maximum(-q_inner(x, y), 1.0))


_SYM_BASIS = (
    np.array([[1.0, 0.0], [0.0, 1.0]]),   # t: (p + r)/2
    np.array([[1.0, 0.0], [0.0, -1.0]]),  # a: (p - r)/2
    np.array([[0.0, 1.0], [1.0, 0.0]]),   # b: q
)


def _sym_to_coords(s):
    return np.array([(s[0, 0] + s[1, 1]) / 2.0, (s[0, 0] - s[1, 1]) / 2.0, s[0, 1]])


def from_moebius_h2(g):
    """SO(2,1) matrix, a plain 3 x 3 array, of a real Moebius isometry.

    Uses the equivariant map z -> S_z = (1/y) [[x^2+y^2, x], [x, 1]] between
    the half-plane and unit-determinant positive matrices, on which g acts by
    S -> g S g^T.
    """
    m = np.array([[float(g.m[0]), float(g.m[1])], [float(g.m[2]), float(g.m[3])]])
    cols = [_sym_to_coords(m @ e @ m.T) for e in _SYM_BASIS]
    return np.column_stack(cols)


def h2_to_hyperboloid(z):
    """Hyperboloid points of the half-plane points z, stacked on a last axis."""
    x, y = np.real(z), np.imag(z)
    s = x * x + y * y
    return np.stack([(s + 1) / (2 * y), (s - 1) / (2 * y), x / y], axis=-1)


@dataclass
class LorentzClass:
    kind: str
    translation_length: float = 0.0
    attained: bool = True
    axis_directions: tuple = None      # pair of null eigenvectors for hyperbolic
    fixed_point: np.ndarray = None     # on the hyperboloid, for elliptic/identity
    certified: bool = True


# Gate on the hyperbolic branch of classify_lorentz: defective parabolic
# matrices scatter their unit eigenvalues by about the cube root of machine
# epsilon, so translation lengths below the gate are indistinguishable from
# zero and classify as parabolic or elliptic instead.
_EIG_GATE = 1e-4


def classify_lorentz(a):
    """Trichotomy of the (n+1) x (n+1) array a in the hyperboloid model.

    a must preserve Q (Frobenius residual of a^T Q a - Q at most 1e-8) and
    the upper sheet (a[0, 0] > 0), else ValueError.  Eigenvalue structure
    decides: a real eigenvalue lambda > 1 (with its inverse) on null
    eigenvectors gives the translation length log lambda; a fixed timelike
    eigenvector gives an interior fixed point; spectral radius one without a
    timelike fixed vector is parabolic, reported attained=False and
    certified=False (floating point cannot certify an unattained zero
    infimum).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0] - 1
    q = minkowski_form(n)
    err = np.linalg.norm(a.T @ q @ a - q)
    if err > 1e-8:
        raise ValueError("matrix does not preserve the Minkowski form (residual %g)" % err)
    if a[0, 0] <= 0:
        raise ValueError("matrix swaps the hyperboloid sheets")
    if np.linalg.norm(a - np.eye(n + 1)) <= 1e-9:
        return LorentzClass(kind=hyperbolic.IDENTITY, fixed_point=basepoint(n))
    evals, evecs = np.linalg.eig(a)
    lam_idx = int(np.argmax(np.abs(evals)))
    lam = evals[lam_idx]
    if abs(lam) > 1 + _EIG_GATE and abs(lam.imag) <= _EIG_GATE * abs(lam):
        # Top eigenvalue of a Lorentz element is real and positive with a
        # null eigenvector; its inverse pairs with the other end of the axis.
        length = math.log(abs(lam))
        v_plus = np.real(evecs[:, lam_idx])
        inv_idx = int(np.argmin(np.abs(evals)))
        v_minus = np.real(evecs[:, inv_idx])
        v_plus = v_plus if v_plus[0] > 0 else -v_plus
        v_minus = v_minus if v_minus[0] > 0 else -v_minus
        return LorentzClass(kind=hyperbolic.HYPERBOLIC, translation_length=length,
                            axis_directions=(v_minus, v_plus))
    # Spectral radius 1: elliptic iff some eigenvalue-1 eigenvector is timelike.
    for i in np.flatnonzero(np.abs(evals - 1) <= 1e-6).tolist():
        v = np.real(evecs[:, i])
        if q_inner(v, v) < -1e-10:
            return LorentzClass(kind=hyperbolic.ELLIPTIC, fixed_point=normalize_point(v))
    return LorentzClass(kind=hyperbolic.PARABOLIC, attained=False, certified=False)
