"""Named example groups and deterministic region samplers.

Presets are the concrete inputs the experiments run on:

* ``sl2z``            -- integral Moebius group generated by z -> -1/z and
                         z -> z + 1, exact integer entries.
* ``cusp-model``      -- cyclic parabolic group generated by z -> z + 1.
* ``cyclic-hyperbolic`` -- one diagonal hyperbolic of prescribed translation
                         length.
* ``octagon-genus2``  -- the four side-pairing translations of the regular
                         hyperbolic octagon with vertex angles pi/4 (opposite
                         sides identified; quotient a closed genus-2 surface).
                         Each has translation length 2 acosh(1 + sqrt 2) along
                         an axis through i, axes rotated in steps of pi/4.
                         Validated in the tests by the length-8 side-pairing
                         relation and the angle-sum check.
* ``z2`` / ``p2`` / ``screw-pi`` -- Euclidean crystallographic examples.

Samplers use an unscrambled Halton sequence, computed here in numpy, so every
region sample is a pure function of (count, parameters) and reports are
reproducible byte for byte.
"""

import math

import numpy as np

from . import mat2
from .errors import PreconditionError
from .euclidean import EuclideanIsometry
from .hyperbolic import HPoint, MoebiusIsometry
from .wordballs import FinitelyGeneratedGroup


def sl2z():
    s = MoebiusIsometry(((0, -1), (1, 0)))
    t = MoebiusIsometry(((1, 1), (0, 1)))
    return FinitelyGeneratedGroup([s, t], name="sl2z")


def cusp_model():
    t = MoebiusIsometry(((1, 1), (0, 1)))
    return FinitelyGeneratedGroup([t], name="cusp-model")


def cyclic_hyperbolic(length=0.05):
    lam = math.exp(length / 2.0)
    g = MoebiusIsometry(((lam, 0.0), (0.0, 1.0 / lam)))
    return FinitelyGeneratedGroup([g], name="cyclic-hyperbolic")


def _rotation_about_i(phi):
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return MoebiusIsometry(((c, s), (-s, c)))


def octagon_genus2():
    a = 1.0 + math.sqrt(2.0)                 # cosh of half the side-pairing length
    b = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    t = MoebiusIsometry(((a, b), (b, a)))    # translation along the geodesic (-1, 1)
    gens = []
    for k in range(4):
        r = _rotation_about_i(k * math.pi / 4.0)
        gens.append(r * t * r.inverse())
    return FinitelyGeneratedGroup(gens, name="octagon-genus2")


def octagon_center():
    return HPoint(0.0, 1.0)


def octagon_circumradius():
    # Distance from the center to a vertex of the regular octagon with vertex
    # angle pi/4: cosh = cot(pi/8)^2.
    return math.acosh(1.0 / math.tan(math.pi / 8.0) ** 2)


def z2_translations():
    return FinitelyGeneratedGroup(
        [EuclideanIsometry.translation([1.0, 0.0]),
         EuclideanIsometry.translation([0.0, 1.0])],
        name="z2")


def p2_wallpaper():
    return FinitelyGeneratedGroup(
        [EuclideanIsometry.translation([1.0, 0.0]),
         EuclideanIsometry.translation([0.0, 1.0]),
         EuclideanIsometry.rotation2(math.pi)],
        name="p2")


def screw_pi():
    o = np.array([[math.cos(math.pi), -math.sin(math.pi), 0.0],
                  [math.sin(math.pi), math.cos(math.pi), 0.0],
                  [0.0, 0.0, 1.0]])
    return FinitelyGeneratedGroup(
        [EuclideanIsometry(o, [0.0, 0.0, 1.0])], name="screw-pi")


GROUP_PRESETS = {
    "sl2z": sl2z,
    "cusp-model": cusp_model,
    "cyclic-hyperbolic": cyclic_hyperbolic,
    "octagon-genus2": octagon_genus2,
    "z2": z2_translations,
    "p2": p2_wallpaper,
    "screw-pi": screw_pi,
}


def lookup(table, name, what):
    """table[name], or a PreconditionError naming the unknown `what` and the
    known names."""
    try:
        return table[name]
    except KeyError:
        raise PreconditionError("unknown %s %r; known: %s"
                                % (what, name, ", ".join(sorted(table)))) from None


def get_group(name, **params):
    return lookup(GROUP_PRESETS, name, "preset")(**params)


# -- deterministic samplers ------------------------------------------------

def _first_primes(n):
    primes, k = [], 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton(count, dim=2, skip=20):
    """Points skip .. skip + count - 1 of the unscrambled Halton sequence in
    [0, 1)^dim, as a (count, dim) array (Halton 1960).

    Coordinate j is the radical inverse of the point's index in the j-th
    prime base.  The digits accumulate as v += r * f, with f divided by the
    base once per digit; the tests hold this order to an independent Halton
    sampler bit for bit, which an integer-ratio or Horner evaluation misses
    in the last bit.
    """
    pts = np.zeros((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        i = np.arange(skip, skip + count)
        f = 1.0
        while i.any():
            i, r = np.divmod(i, base)
            f /= base
            pts[:, j] += r * f
    return pts


def sample_sl2z_domain(count):
    """Points of the standard modular domain {|x| <= 1/2, |z| >= 1, y <= 20}.

    Halton points in the strip, rejected below the unit circle; heights drawn
    from the hyperbolic area density dy/y^2 so the cusp is not oversampled.
    """
    u = halton(4 * count)
    y0 = math.sqrt(3.0) / 2.0
    x = u[:, 0] - 0.5
    # y with density 1/y^2 on [y0, 20]: invert the CDF.
    y = 1.0 / (1.0 / y0 - u[:, 1] * (1.0 / y0 - 1.0 / 20.0))
    inside = np.flatnonzero(x * x + y * y >= 1.0)[:count]
    return [HPoint(p, q) for p, q in zip(x[inside].tolist(), y[inside].tolist())]


def _det1(m):
    """The real flat matrix m as `MoebiusIsometry(m)` keeps it: scaled to
    determinant one, sign-canonical."""
    return mat2.canonicalize_sign(mat2.normalize_det1(m, False), False)


def sample_hyperbolic_disk(center, radius, count):
    """Area-uniform Halton sample of the hyperbolic disk about a point of H^2:
    i e^r turned by theta about i, then moved to the center.  Each point
    repeats, inline, the float operations of the MoebiusIsometry product
    move * turn and its action: determinant, 1/sqrt scaling, the sign
    choice of `mat2.canonicalize_sign` (entries up to SIGN_TOL count as
    zero), then (a z + b) / (c z + d) in complex arithmetic (tested)."""
    y = center.z.imag
    e, f, g, h = _det1((math.sqrt(y), center.z.real / math.sqrt(y), 0.0, 1.0 / math.sqrt(y)))
    tol, top = mat2.SIGN_TOL, math.cosh(radius) - 1.0
    pts = []
    for u, v in halton(count).tolist():
        r = math.acosh(1.0 + u * top)
        theta = 2.0 * math.pi * v
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        k = 1.0 / math.sqrt(c * c - s * -s)
        p, q, t = c * k, s * k, -s * k    # the turn (p, q, t, p)
        lead = p if abs(p) > tol else q if abs(q) > tol else t
        if abs(lead) > tol and not lead > 0:
            p, q, t = -p, -q, -t
        # move * (p, q, t, p), scaled to determinant one and sign-canonical.
        a, b, c, d = e * p + f * t, e * q + f * p, g * p + h * t, g * q + h * p
        k = 1.0 / math.sqrt(a * d - b * c)
        a, b, c, d = a * k, b * k, c * k, d * k
        lead = a if abs(a) > tol else b if abs(b) > tol else c if abs(c) > tol else d
        if abs(lead) > tol and not lead > 0:
            a, b, c, d = -a, -b, -c, -d
        z = complex(0.0, math.exp(r))
        pts.append(HPoint.from_h2((complex(a) * z + complex(b)) / (complex(c) * z + complex(d))))
    return pts


def sample_box_h2(count, x_range, y_range):
    out = []
    for u, v in halton(count):
        x = x_range[0] + u * (x_range[1] - x_range[0])
        y = y_range[0] + v * (y_range[1] - y_range[0])
        out.append(HPoint(x, y))
    return out


def sample_torus(count):
    return list(halton(count))


def default_region(preset_name, count=1000):
    if preset_name == "sl2z":
        return sample_sl2z_domain(count)
    if preset_name == "cusp-model":
        return sample_box_h2(count, (-0.5, 0.5), (0.5, 20.0))
    if preset_name == "cyclic-hyperbolic":
        return sample_box_h2(count, (-2.0, 2.0), (0.25, 4.0))
    if preset_name == "octagon-genus2":
        return sample_hyperbolic_disk(octagon_center(), octagon_circumradius(), count)
    raise PreconditionError("no default region for preset %r; regions exist for sl2z, "
                            "cusp-model, cyclic-hyperbolic, octagon-genus2" % preset_name)
