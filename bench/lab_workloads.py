"""Seeded workloads of lab experiments, one op per experiment.

An op is one CLI subcommand run in-process through `latticelab.cli.main`, or
one call chain through the public functions a subcommand uses, for inputs the
CLI cannot express.  `build_round(workload, seed, index)` makes the ops of
one round: every round of a workload has the same op kinds in the same order,
with inputs drawn from an RNG keyed by (workload, seed, round index), so the
same seed gives the same op list.  The program receives only the generated
inputs.  Building a round constructs its groups, presets and sample sets;
running an op is the experiment; checking compares the result with an oracle
from `lab_oracles`, which never calls into latticelab.
"""

import contextlib
from dataclasses import dataclass
from fractions import Fraction
import io
import json
import math
import re
import zlib

import numpy as np

from latticelab import chabauty, cli, hyperbolic, hyperboloid, lattice_lab, nerve, presets
from latticelab import smallness, wordballs
from latticelab.hyperbolic import HPoint, MoebiusIsometry

import lab_oracles as oracle

WORKLOADS = ("moebius-orbits", "exact-groups", "nerve-presentations", "chabauty-limits")

# Default-config CLI reports whose sha256 is kept in golden.json.
GOLDEN_ARGV = {
    "classify": ["classify"],
    "thickthin": ["thickthin"],
    "psi-check": ["psi-check"],
    "presentation": ["presentation"],
    "count-presentations": ["count-presentations"],
    "chabauty": ["chabauty"],
    "mahler": ["mahler"],
    "solvable": ["solvable"],
    "heisenberg": ["heisenberg"],
    "zassenhaus": ["zassenhaus"],
    "jordan": ["jordan"],
    "crystallo": ["crystallo"],
    "recurrence": ["recurrence"],
    "span": ["span"],
    "presentation-octagon-genus2": ["presentation", "--preset", "octagon-genus2"],
}

# Failures present at the first baseline, keyed by (workload, op kind, a
# pattern the whole failure reason must match).  They stay in the workloads
# and count as failed ops; `correct` turns false for any other failure.
WRONG_LINE_LIMIT = r"wrong limit: v_dim 0, lattice rank 1 \(the limit of \(1/n\)Z is R: .*\)"
KNOWN_DEFECTS = {
    ("moebius-orbits", "cli:presentation-octagon-genus2",
     r"exit code 2: error: pruned orbit ball exceeded 200000 elements"):
        "pruned orbit ball hits its 200000-element cap at the default slack",
    ("chabauty-limits", "cli:chabauty", WRONG_LINE_LIMIT):
        "chabauty_limit proposes the last term (1/50)Z instead of the line R",
    ("chabauty-limits", "chabauty_limit:one-over-n", WRONG_LINE_LIMIT):
        "chabauty_limit proposes the last term (1/n)Z instead of the line R",
    ("moebius-orbits", "word_ball:conjugate",
     r"duplicate elements: ball size \d+, expected \d+; each extra one is within "
     r"1e-6 of another"):
        "float dedup keys on an absolute 1e-6 grid, so one element whose entries "
        "straddle a cell boundary is kept twice",
    ("exact-groups", "gradient_lemma_check",
     r"gradient-lemma violations: \d+, each with psi <= tol and \|grad\| > grad_tol"):
        "just inside the bump's support psi <= tol while the finite-difference "
        "gradient exceeds grad_tol (psi ~ s^2, |grad| ~ s); the borderline band "
        "covers only psi in (tol, 2 tol]",
}


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def expect(cond, reason, *args):
    if not cond:
        raise Mismatch(reason % args if args else reason)


@dataclass
class Op:
    kind: str
    params: dict
    run: object                  # () -> output
    check: object                # output -> None, raises Mismatch
    golden: str = None           # name in GOLDEN_ARGV for a default CLI report

    def describe(self):
        return json.dumps([self.kind, self.params], sort_keys=True, default=str)


def known_defect(workload, kind, reason):
    for (w, k, pattern), why in KNOWN_DEFECTS.items():
        if (w, k) == (workload, kind) and re.fullmatch(pattern, reason):
            return why
    return None


def rng_for(workload, seed, index):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, index])


# -- CLI ops ---------------------------------------------------------------------

def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_result(output):
    code, stdout, stderr = output
    if code != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        raise Mismatch("exit code %s: %s" % (code, last))
    return json.loads(stdout)["result"]


def cli_op(argv, check, name=None, golden=None):
    kind = "cli:" + (name or argv[0])
    return Op(kind, {"argv": list(argv)}, lambda: run_cli(argv),
              lambda out: check(cli_result(out)), golden)


def default_op(name, check):
    return cli_op(GOLDEN_ARGV[name], check, name=name, golden=name)


# -- shared oracle state -----------------------------------------------------------

# |B(5)| of the octagon group; Dehn's algorithm takes seconds at r = 5, so
# the self-test recomputes it instead of every run.
OCTAGON_BALL_5 = 22289


class Oracles:
    """Expected values that do not depend on the seed, computed once per run
    (outside the timed phase)."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def octagon_ball_sizes(self):
        sizes = self._get("dehn", lambda: oracle.dehn_ball_sizes(oracle.OCTAGON_RELATOR, 4, 4))
        return sizes + [OCTAGON_BALL_5]

    def octagon_words(self):
        """Matrices of all freely reduced words of length <= 4 in the
        octagon generators (numpy products of the raw entries)."""
        def make():
            gens = [oracle.as_float_matrix(g.m) for g in presets.octagon_genus2().generators]
            rel = oracle.word_matrices(gens, [oracle.OCTAGON_RELATOR])[0]
            assert oracle.is_projective_identity(rel), "octagon relator is not trivial"
            return oracle.word_matrices(gens, oracle.freely_reduced_words(4, 4))
        return self._get("words", make)

    def psl2z_sizes(self):
        return self._get("psl2z", lambda: oracle.psl2z_ball_sizes(
            [(0, -1, 1, 0), (1, 1, 0, 1)], 12))


# -- moebius-orbits ----------------------------------------------------------------

def _rotation(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return MoebiusIsometry(((c, s), (-s, c)))


def _small_translation(rng):
    """A hyperbolic element of translation length 0.05..0.5 along a random
    geodesic through i."""
    rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
    lam = math.exp(rng.uniform(0.05, 0.5) / 2.0)
    return rot * MoebiusIsometry(((lam, 0.0), (0.0, 1.0 / lam))) * rot.inverse()


def _disk_point(rng, radius):
    """A point at hyperbolic distance <= radius from i, uniform in angle."""
    r = rng.uniform(0.0, radius)
    return _rotation(rng.uniform(0.0, 2.0 * math.pi)).apply(HPoint(0.0, math.exp(r)))


def _ball_size_check(expected):
    """expected() is the oracle's ball size, evaluated after the op ran."""
    def check(ball):
        want = expected()
        if len(ball) > want:
            mats = np.array([oracle.as_float_matrix(e.m) for e in ball.elements])
            near = oracle.near_duplicate_pairs(mats)
            expect(len(near) < len(ball) - want, "duplicate elements: ball size %d, expected "
                   "%d; each extra one is within 1e-6 of another", len(ball), want)
            expect(False, "duplicate elements: ball size %d, expected %d", len(ball), want)
        expect(len(ball) == want, "missing elements: ball size %d, expected %d",
               len(ball), want)
    return check


def _pruned_check(base, keep, oracles):
    def check(kept):
        words = oracles.octagon_words()
        mats = np.array([oracle.as_float_matrix(e.m) for e in kept])
        disp, pts = oracle.h2_displacement(mats, base.z)
        expect(np.any(disp < 1e-9), "identity missing from the pruned ball")
        expect(disp.max() <= keep + 1e-9, "kept element displaced %.6g > keep %.6g",
               disp.max(), keep)
        expect(len(oracle.distinct_points(pts)) == len(kept), "repeated orbit points")
        want_d, want_pts = oracle.h2_displacement(words, base.z)
        inside = oracle.distinct_points(want_pts[want_d <= keep - 1e-9])
        missing = [w for w in inside if np.min(np.abs(pts - w)) > 1e-6]
        expect(not missing, "%d orbit points within keep missing", len(missing))
    return check


def _surface_presentation(group, points):
    def run():
        metric = nerve.SurfaceMetric(group, presets.octagon_center(),
                                     region_radius=presets.octagon_circumradius(),
                                     interaction_radius=1.1, slack=5.0)
        net = nerve.build_eps_net(points, 0.5, metric)
        cx = nerve.nerve(net, 0.55, metric)
        return nerve.abelianization(nerve.presentation_from_nerve(cx))
    return run


def _abelianization_check(expected):
    def check(ab):
        expect(tuple(ab) == expected, "abelianization %s, expected %s", ab, expected)
    return check


def _report_abelianization_check(expected):
    """For a `presentation` CLI report."""
    def check(r):
        _abelianization_check(expected)((r["abelianization_rank"], r["torsion"]))
    return check


def _injectivity_check(group, x):
    def check(inj):
        gens = [oracle.as_float_matrix(g.m) for g in group.generators]
        sym = np.array(gens + [np.linalg.inv(g) for g in gens])
        upper = 0.5 * oracle.h2_displacement(sym, x.z)[0].min()
        expect(inj.value >= 0.5 * oracle.octagon_systole() - 1e-9,
               "injectivity radius %.9g below half the systole", inj.value)
        expect(inj.value <= upper + 1e-9, "injectivity radius %.9g above the generator bound %.9g",
               inj.value, upper)
        m = oracle.word_matrices(gens, [inj.minimizer_word])
        d = oracle.h2_displacement(m, x.z)[0][0]
        expect(abs(d - 2.0 * inj.value) <= 1e-7, "minimizer word displaces %.9g, not %.9g",
               d, 2.0 * inj.value)
    return check


def _all_thick_check(n):
    def check(res):
        expect(res.component_count == 0 and not res.cone_components,
               "thin components below the systole")
        expect(len(res.thick_samples) == n and not res.unresolved_samples,
               "%d of %d samples thick", len(res.thick_samples), n)
    return check


def _classify_elements(elements):
    def run():
        out = []
        for e in elements:
            lor = hyperboloid.classify_lorentz(hyperboloid.from_moebius_h2(e))
            cls = hyperbolic.classify(e)
            out.append((lor.kind, lor.translation_length, cls.kind, cls.translation_length))
        return out
    return run


def _classify_elements_check(elements):
    def check(out):
        lengths = [oracle.translation_length_from_trace(float(e.m[0]) + float(e.m[3]))
                   for e in elements]
        for (lk, ll, hk, hl), want in zip(out, lengths):
            expect(lk == hk == hyperbolic.HYPERBOLIC, "class %s / %s, expected hyperbolic", lk, hk)
            expect(abs(ll - want) <= 1e-6 and abs(hl - want) <= 1e-6,
                   "translation lengths %.9g / %.9g, trace gives %.9g", ll, hl, want)
    return check


# Each round is composed so that the median and the 90th percentile of its
# op latencies fall well inside a block of ops of one kind and similar cost
# (moebius-orbits: injectivity radii and radius-4 conjugate word balls), so
# that they do not jump between kinds from seed to seed.  Injectivity radii
# slow down with the calibration kernel when the VM does; thick-thin scans
# slow down less, so their scaled latencies move with the VM's speed.

def moebius_round(rng, oracles):
    group = presets.get_group("octagon-genus2")
    disk = presets.default_region("octagon-genus2", 1500)
    ball3 = wordballs.word_ball(group, 3).nontrivial()
    ops = [default_op("presentation-octagon-genus2", _report_abelianization_check((4, [])))]
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = _rotation(theta)
    ops.append(Op("surface_presentation", {"theta": theta},
                  _surface_presentation(group, [rot.apply(p) for p in disk]),
                  _abelianization_check((4, []))))
    for r in (4, 5):
        ops.append(Op("word_ball", {"group": "octagon-genus2", "radius": r},
                      lambda r=r: wordballs.word_ball(group, r),
                      _ball_size_check(lambda r=r: oracles.octagon_ball_sizes()[r])))
    for r in (4,) * 52 + (5,):
        h = _small_translation(rng)
        conj = group.conjugated(h)
        ops.append(Op("word_ball:conjugate", {"h": h.m, "radius": r},
                      lambda g=conj, r=r: wordballs.word_ball(g, r),
                      _ball_size_check(lambda r=r: oracles.octagon_ball_sizes()[r])))
    for _ in range(3):
        base = _disk_point(rng, 0.3)
        keep, slack = rng.uniform(4.0, 5.0), rng.uniform(4.0, 5.0)
        ops.append(Op("displacement_pruned_ball",
                      {"base": base.coords, "keep": keep, "slack": slack},
                      lambda b=base, k=keep, s=slack: wordballs.displacement_pruned_ball(
                          group, b, k, slack=s),
                      _pruned_check(base, keep, oracles)))
    for _ in range(110):
        x = _disk_point(rng, 0.9 * presets.octagon_circumradius())
        ops.append(Op("injectivity_radius", {"x": x.coords},
                      lambda x=x: lattice_lab.injectivity_radius(group, x, 3),
                      _injectivity_check(group, x)))
    for _ in range(20):
        eps = rng.uniform(0.5, 2.5)
        idx = rng.choice(len(disk), size=200, replace=False)
        samples = [disk[int(i)] for i in idx]
        ops.append(Op("thick_thin_scan", {"epsilon": eps, "samples": idx.tolist()},
                      lambda e=eps, s=samples: lattice_lab.thick_thin_scan(group, e, s, 3),
                      _all_thick_check(len(samples))))
    for _ in range(80):
        idx = rng.choice(len(ball3), size=60, replace=False)
        elements = [ball3[int(i)][1] for i in idx]
        ops.append(Op("classify_lorentz", {"elements": idx.tolist()},
                      _classify_elements(elements), _classify_elements_check(elements)))
    return ops


# -- exact-groups -------------------------------------------------------------------

SL2Z_S = ((0, -1), (1, 0))
SL2Z_T = ((1, 1), (0, 1))


def _int_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _random_sl2z(rng, length):
    """A product of S and powers T^k, |k| <= 3, that is not +-identity."""
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(length):
            k = int(rng.integers(-3, 4)) or 1
            m = _int_mul(_int_mul(m, SL2Z_S), ((1, k), (0, 1)))
        if m not in (((1, 0), (0, 1)), ((-1, 0), (0, -1))):
            return m


def _word_matrix_sl2z(word):
    table = {1: SL2Z_S, -1: ((0, 1), (-1, 0)), 2: SL2Z_T, -2: ((1, -1), (0, 1))}
    m = ((1, 0), (0, 1))
    for x in word:
        m = _int_mul(m, table[x])
    return m


def _classify_check(m):
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    kind = oracle.classify_integer_matrix(flat)

    def check(r):
        expect(r["class"] == kind, "class %s, exact trace gives %s", r["class"], kind)
        want = oracle.translation_length_from_trace(flat[0] + flat[3]) if kind == "hyperbolic" else 0.0
        expect(abs(r["translation_length"] - want) <= 1e-9 * max(1.0, want),
               "translation length %.12g, trace gives %.12g", r["translation_length"], want)
    return check


def _expect_cusp(samples, eps, kinds, counts, unresolved):
    """The thin part of the modular surface below eps < 1.9 is the cusp
    alone: a sample is thin iff translation by 1 moves it less than eps,
    2 asinh(1 / 2y) < eps.  Samples within 1e-9 of the threshold may go
    either way."""
    heights = np.array([p.z.imag for p in samples])
    disp = 2.0 * np.arcsinh(1.0 / (2.0 * heights))
    sure = int(np.sum(disp < eps - 1e-9))
    either = int(np.sum(np.abs(disp - eps) <= 1e-9))
    expect(all(k == "cusp" for k in kinds), "thin components %s, expected one cusp", kinds)
    expect(len(kinds) == (1 if sure + either else 0), "%d thin components", len(kinds))
    expect(sure <= sum(counts) <= sure + either, "%d cusp samples, translation T gives %d",
           sum(counts), sure)
    expect(unresolved == 0, "%d unresolved samples", unresolved)


def _cusp_check(samples, eps):
    def check(res):
        comps = res.thin_components
        _expect_cusp(samples, eps, [c.kind for c in comps], [len(c.samples) for c in comps],
                     len(res.unresolved_samples))
    return check


def _cli_cusp_check(eps, count):
    def check(r):
        comps = r["thin_components"]
        _expect_cusp(presets.default_region("sl2z", count=count), eps,
                     [c["kind"] for c in comps], [c["sample_count"] for c in comps],
                     r["unresolved_sample_count"])
    return check


def _psi_check(n, tol=1e-9, grad_tol=1e-6):
    def check(r):
        violations = r["violations"] if isinstance(r, dict) else len(r.violations)
        checked = r["checked"] if isinstance(r, dict) else r.checked
        borderline = r["borderline"] if isinstance(r, dict) else r.borderline
        if violations and not isinstance(r, dict):
            flat = [psi <= tol and g > grad_tol for _, psi, g in r.violations]
            expect(not all(flat), "gradient-lemma violations: %d, each with psi <= tol and "
                   "|grad| > grad_tol", violations)
        expect(violations == 0, "gradient-lemma violations: %d", violations)
        expect(checked + borderline == n, "%d + %d of %d samples checked", checked, borderline, n)
    return check


def _solvable_check(primes):
    def check(r):
        want = oracle.solvable_expectations(primes)
        got = [(i["group_index"], i["gamma_index"]) for i in r["indices"]]
        expect(got == want["indices"], "indices %s, counting gives %s", got, want["indices"])
        expect(Fraction(r["covolume"]) == want["covolume"], "covolume %s", r["covolume"])
        expect(Fraction(r["covolume_vs_counting"]) == want["covolume"], "covolume by counting %s",
               r["covolume_vs_counting"])
        seq = [Fraction(x) for x in r["certificate"]["covolume_sequence"]]
        expect(seq == want["covolume_sequence"], "covolume sequence %s", seq)
        expect(r["certificate"]["verdict"] == want["verdict"], "verdict %r",
               r["certificate"]["verdict"])
        expect(r["closure_check"] is True, "closure check failed")
    return check


def _heisenberg_check(g):
    def check(r):
        lat = tuple(Fraction(x) for x in r["lattice_part"])
        rem = tuple(Fraction(x) for x in r["remainder"])
        expect(all(x.denominator == 1 for x in lat), "lattice part %s not integral", lat)
        expect(all(0 <= x < 1 for x in rem), "remainder %s outside [0, 1)^3", rem)
        expect(oracle.heisenberg_mul(lat, rem) == g, "lattice part * remainder != g")
    return check


JORDAN_BEST = {"a5": (60, 12), "q8": (8, 2)}     # order, index of a largest abelian subgroup


def _jordan_check(group):
    order, best = JORDAN_BEST[group]

    def check(r):
        expect(r["group_size"] == order, "group size %d", r["group_size"])
        expect(r["bruteforce_best_index"] == best, "brute force index %d, expected %d",
               r["bruteforce_best_index"], best)
        expect(r["abelian_verified"] and r["index"] >= best, "jordan index %d beats brute force %d",
               r["index"], best)
        expect(r["index"] * r["subgroup_size"] == order, "index times subgroup size != order")
    return check


CRYSTALLO = {"z2": (2, 1), "p2": (2, 2), "screw-pi": (1, 2)}   # translation rank, point group


def _crystallo_check(preset):
    rank, point = CRYSTALLO[preset]

    def check(r):
        expect((r["translation_rank"], r["point_group_order"]) == (rank, point),
               "rank %d point group %d, expected %d %d", r["translation_rank"],
               r["point_group_order"], rank, point)
    return check


def _zassenhaus_check(r):
    expect(r["violations"] == 0, "%d commutator bound violations", r["violations"])
    expect(r["ladder_bound_violations"] == 0, "%d ladder violations", r["ladder_bound_violations"])


def _commutators(pairs):
    def run():
        return [smallness.frobenius_to_identity(
            smallness.commutator(np.eye(2) + x, np.eye(2) + y)) for x, y in pairs]
    return run


def _commutators_check(pairs):
    def check(got):
        want = []
        for x, y in pairs:
            a, b = np.eye(2) + x, np.eye(2) + y
            c = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
            want.append((np.linalg.norm(c - np.eye(2)),
                         8.0 * np.linalg.norm(x) * np.linalg.norm(y)))
        for g, (w, bound) in zip(got, want):
            expect(abs(g - w) <= 1e-12, "commutator distance %.15g, numpy gives %.15g", g, w)
            expect(g <= bound, "commutator distance %.6g above 8|x||y| = %.6g", g, bound)
    return check


def _span_check(r):
    expect(r["dimension"] == 4, "span dimension %d", r["dimension"])
    a, b, c, d = r["regular_witness"]
    expect(abs((a + d) ** 2 - 4) > 1e-8, "witness trace %s is not regular", a + d)
    m = _word_matrix_sl2z(r["regular_witness_word"])
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    expect(flat in ((a, b, c, d), (-a, -b, -c, -d)), "witness word evaluates to %s", flat)


def _recurrence_check(v, eps, n_max):
    def check(r):
        sure, either = oracle.recurrence_hits(v, eps, n_max)
        hits = set(r["hits"])
        expect(r["hit_count"] >= len(sure) and r["hit_count"] <= len(sure) + len(either),
               "hit count %d, brute force %d", r["hit_count"], len(sure))
        shown = set(h for h in sure if h <= max(r["hits"], default=0))
        expect(shown <= hits and hits <= sure | either, "hits differ from brute force")
    return check


def exact_round(rng, oracles):
    sl2z = presets.get_group("sl2z")
    cusp = presets.get_group("cusp-model")
    ops = [
        default_op("classify", lambda r: expect(r["class"] == "parabolic", "class %s", r["class"])),
        default_op("thickthin", _cli_cusp_check(0.2, 1000)),
        default_op("psi-check", _psi_check(1000)),
        default_op("solvable", _solvable_check((5, 7, 11))),
        default_op("heisenberg", _heisenberg_check(
            (Fraction(5, 2), Fraction(-3, 4), Fraction(13, 4)))),
        default_op("zassenhaus", _zassenhaus_check),
        default_op("jordan", _jordan_check("a5")),
        default_op("crystallo", _crystallo_check("p2")),
        default_op("recurrence", _recurrence_check(0.5, 0.2, 100)),
        default_op("span", _span_check),
    ]
    # The median falls among the cheap CLI runs, the 90th percentile among
    # the radius-12 word balls.
    for r in (10, 11, 12, 12):
        ops.append(Op("word_ball", {"group": "sl2z", "radius": r},
                      lambda r=r: wordballs.word_ball(sl2z, r),
                      _ball_size_check(lambda r=r: oracles.psl2z_sizes()[r])))
    for r in (10, 11) + (12,) * 8:
        h = _random_sl2z(rng, int(rng.integers(2, 5)))
        conj = sl2z.conjugated(MoebiusIsometry(h))
        ops.append(Op("word_ball:sl2z-conjugate", {"h": h, "radius": r},
                      lambda g=conj, r=r: wordballs.word_ball(g, r),
                      _ball_size_check(lambda r=r: oracles.psl2z_sizes()[r])))
    for _ in range(20):
        m = _random_sl2z(rng, int(rng.integers(1, 5)))
        ops.append(cli_op(["classify", "--matrix", json.dumps([list(row) for row in m])],
                          _classify_check(m)))
    for _ in range(3):
        eps = rng.uniform(0.15, 0.35)
        count = int(rng.integers(300, 601))
        samples = presets.default_region("sl2z", count=count)
        ops.append(Op("thick_thin_scan", {"group": "sl2z", "epsilon": eps, "count": count},
                      lambda e=eps, s=samples: lattice_lab.thick_thin_scan(sl2z, e, s, 6),
                      _cusp_check(samples, eps)))
    for _ in range(3):
        eps = rng.uniform(0.15, 0.4)
        x0 = rng.uniform(-0.5, 0.5)
        n = int(rng.integers(100, 201))
        samples = [HPoint(x0, float(y)) for y in np.linspace(0.5, 10.0, n)]
        ops.append(Op("gradient_lemma_check", {"epsilon": eps, "x0": x0, "n": n},
                      lambda e=eps, s=samples: lattice_lab.gradient_lemma_check(cusp, e, s, 6, 1e-4),
                      _psi_check(n)))
    primes = tuple(int(p) for p in rng.permutation([5, 7, 11]))
    ops.append(cli_op(["solvable", "--primes", ",".join(map(str, primes))],
                      _solvable_check(primes)))
    for _ in range(2):
        small = tuple(int(p) for p in rng.choice([2, 3, 5, 7], size=3, replace=False))
        ops.append(cli_op(["solvable", "--primes", ",".join(map(str, small))],
                          _solvable_check(small)))
    for _ in range(16):
        g = tuple(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13))) for _ in range(3))
        coords = ",".join("%d/%d" % (x.numerator, x.denominator) for x in g)
        ops.append(cli_op(["heisenberg", "--coords=" + coords], _heisenberg_check(g)))
    for _ in range(2):
        eps = rng.uniform(0.05, 1.9)
        ops.append(cli_op(["jordan", "--group", "q8", "--epsilon", repr(eps)],
                          _jordan_check("q8")))
    for preset in ("z2", "p2", "screw-pi"):
        cutoff = int(rng.integers(3, 7))
        ops.append(cli_op(["crystallo", "--preset", preset, "--cutoff", str(cutoff)],
                          _crystallo_check(preset)))
    for _ in range(8):
        pairs = []
        for _ in range(200):
            eps = rng.uniform(0.02, 0.3)
            x, y = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            pairs.append((x * eps / np.linalg.norm(x), y * eps / np.linalg.norm(y)))
        ops.append(Op("commutator", {"pairs": len(pairs)}, _commutators(pairs),
                      _commutators_check(pairs)))
    for _ in range(8):
        radius = int(rng.integers(2, 7))
        ops.append(cli_op(["span", "--word-ball", str(radius)], _span_check))
    for _ in range(12):
        v, eps, n_max = rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.1), int(rng.integers(100, 401))
        ops.append(cli_op(["recurrence", "--g", repr(v), "--epsilon", repr(eps),
                           "--n-max", str(n_max)], _recurrence_check(v, eps, n_max)))
    return ops


# -- nerve-presentations ----------------------------------------------------------------

def _torus_presentation(points, eps):
    def run():
        metric = nerve.TorusMetric()
        net = nerve.build_eps_net(points, eps, metric)
        cx = nerve.nerve(net, round(1.1 * eps, 6), metric)
        return nerve.abelianization(nerve.presentation_from_nerve(cx))
    return run


def _count_check(c, vs):
    def check(r):
        expect([row["v"] for row in r] == vs, "v list %s", [row["v"] for row in r])
        for row in r:
            n = oracle.presentation_count(c, row["v"])
            expect(row["digits"] == len(str(n)), "v=%d: %d digits, closed form has %d",
                   row["v"], row["digits"], len(str(n)))
            want = math.log(n) / (row["v"] * math.log(row["v"]))
            expect(abs(row["ratio"] - want) <= 1e-12 * want, "v=%d: ratio %.15g, closed form %.15g",
                   row["v"], row["ratio"], want)
    return check




def nerve_round(rng, oracles):
    ops = [
        default_op("presentation", _report_abelianization_check((2, []))),
        default_op("count-presentations", _count_check(1.0, [4, 8, 16, 32])),
    ]
    # Fixed epsilon slots and a seeded translation of one Halton set: a
    # translation is an isometry of the torus, so each slot's net and nerve,
    # and hence its cost, is the same for every seed while the inputs differ.
    base = np.array(presets.sample_torus(2000))
    for eps in (0.19, 0.195, 0.2, 0.205, 0.21, 0.215):
        shift = rng.uniform(0.0, 1.0, size=2)
        points = list(np.mod(base + shift, 1.0))
        ops.append(Op("torus_presentation", {"epsilon": eps, "shift": shift.tolist()},
                      _torus_presentation(points, eps), _abelianization_check((2, []))))
    for _ in range(2):
        c = round(rng.uniform(0.5, 2.0), 3)
        vs = sorted(int(v) for v in rng.choice(np.arange(2, 49), size=4, replace=False))
        ops.append(cli_op(["count-presentations", "--c", repr(c),
                           "--v-list", ",".join(map(str, vs))], _count_check(c, vs)))
    return ops


# -- chabauty-limits -----------------------------------------------------------------------

def _limit_check(family, count):
    def check(res):
        v, rank = res.limit.v_dim, res.limit.lattice_rank
        if family == "one-over-n":
            expect((v, rank) == (1, 0), "wrong limit: v_dim %d, lattice rank %d "
                   "(the limit of (1/n)Z is R: v_dim 1, rank 0)", v, rank)
        elif family == "n-z":
            expect((v, rank) == (0, 0), "wrong limit: v_dim %d, lattice rank %d "
                   "(nZ escapes every ball: the trivial group)", v, rank)
        else:
            expect((v, rank) == (0, 1), "wrong limit: v_dim %d, lattice rank %d "
                   "(rotating Z converges to Z e1)", v, rank)
            u = res.limit.lattice_basis[0]
            expect(abs(np.linalg.norm(u) - 1.0) <= 1e-9, "limit generator has norm %.12g",
                   np.linalg.norm(u))
            expect(abs(u[1]) <= math.sin(1.0 / count) + 1e-9, "limit generator %s is not "
                   "within 1/%d of e1", u, count)
        expect(res.converged, "not converged")
    return check


def _limit_family(family, count):
    if family == "one-over-n":
        bases = [[[1.0 / k]] for k in range(1, count + 1)]
    elif family == "n-z":
        bases = [[[float(k)]] for k in range(1, count + 1)]
    else:
        bases = [[[math.cos(1.0 / k), math.sin(1.0 / k)]] for k in range(1, count + 1)]
    return [chabauty.ClosedSubgroupRn.lattice(b) for b in bases]


def _cli_chabauty_check(r):
    v, rank = r["limit_v_dim"], r["limit_lattice_rank"]
    expect((v, rank) == (1, 0), "wrong limit: v_dim %d, lattice rank %d "
           "(the limit of (1/n)Z is R: v_dim 1, rank 0)", v, rank)
    expect(r["converged"], "not converged")


def _mahler_check(r):
    expect(abs(r["limit_covolume"] - 1.0) <= 1e-9, "limit covolume %.12g, rotations keep 1",
           r["limit_covolume"])
    expect(abs(r["limit_shortest"] - 1.0) <= 1e-9, "limit shortest vector %.12g",
           r["limit_shortest"])
    expect(r["subsequence_length"] >= 2, "subsequence of length %d", r["subsequence_length"])


def _distance_check(expected, lo=0.0, hi=0.0):
    """Pass if want - lo - 1e-9 <= d <= want + hi + 1e-9, want = expected()."""
    def check(d):
        want = expected()
        expect(want - lo - 1e-9 <= d <= want + hi + 1e-9,
               "distance %.12g, brute force %.12g", d, want)
    return check


def _line_lattice_check(u, step, basis, radius):
    def check(d):
        fwd, back, hmax = oracle.line_lattice_to_points(
            u, step, oracle.lattice_points(basis, radius), radius)
        # chabauty samples each chord at 41 points, so it may miss up to
        # hmax / 40 of the chord-to-points supremum; the oracle's 801 points
        # may miss hmax / 800 of it.
        _distance_check(lambda: max(fwd, back), lo=hmax / 40.0, hi=hmax / 800.0)(d)
    return check


def _random_basis(rng, dim, covolume):
    while True:
        b = rng.normal(size=(dim, dim))
        s = np.linalg.svd(b, compute_uv=False)
        if s.min() > 0.35 * s.max():
            return b * (covolume / abs(np.linalg.det(b))) ** (1.0 / dim)


def _unimodular(rng, dim):
    u = np.eye(dim, dtype=int)
    for _ in range(2 * dim):
        i, j = rng.choice(dim, size=2, replace=False)
        u[i] += int(rng.choice([-1, 1])) * u[j]
    return u


def _reduce_check(basis):
    def check(red):
        shortest = oracle.shortest_norm(basis)
        expect(oracle.same_lattice(red, basis), "reduced basis spans another lattice")
        n0 = float(np.linalg.norm(red, axis=1).min())
        expect(abs(n0 - shortest) <= 1e-9, "shortest reduced vector %.12g, brute force %.12g",
               n0, shortest)
    return check


def _points_check(basis, radius):
    def check(pts):
        want = len(oracle.lattice_points(basis, radius))
        expect(len(pts) == want, "%d lattice points, brute force %d", len(pts), want)
    return check


def _rotations_check(res):
    _mahler_check({"limit_covolume": res.limit_covolume, "limit_shortest": res.limit_shortest,
                   "subsequence_length": len(res.indices)})


def chabauty_round(rng, oracles):
    C = chabauty.ClosedSubgroupRn
    ops = [
        default_op("chabauty", _cli_chabauty_check),
        default_op("mahler", _mahler_check),
    ]
    for family, lo, hi in (("one-over-n", 8, 12), ("n-z", 8, 12), ("rotating-z1", 25, 35)):
        count = int(rng.integers(lo, hi + 1))
        seq = _limit_family(family, count)
        ops.append(Op("chabauty_limit:" + family, {"count": count},
                      lambda s=seq: chabauty.chabauty_limit(s, [1.0, 2.0, 4.0], tol=2e-2),
                      _limit_check(family, count)))
    # Ranges keep (2aR + 1)(2bR + 1) near 80^2, so the 1-D distances form one
    # block of similar cost around the median; the 2-D distances form the
    # block around the 90th percentile.
    for radius, lo, hi in ((1.0, 36, 44), (2.0, 18, 22), (4.0, 9, 11)):
        for _ in range(15):
            a, b = (int(x) for x in rng.integers(lo, hi + 1, size=2))
            h1, h2 = C.lattice([[1.0 / a]]), C.lattice([[1.0 / b]])
            want = (lambda a=a, b=b, r=radius: oracle.hausdorff_1d(
                oracle.lattice_points([[1.0 / a]], r)[:, 0],
                oracle.lattice_points([[1.0 / b]], r)[:, 0], r))
            ops.append(Op("chabauty_distance:1d", {"a": a, "b": b, "radius": radius},
                          lambda h1=h1, h2=h2, r=radius: chabauty.chabauty_distance(h1, h2, r),
                          _distance_check(want)))
    for _ in range(8):
        a = int(rng.integers(5, 41))
        radius = float(rng.choice([1.0, 2.0, 4.0]))
        h1, line = C.lattice([[1.0 / a]]), C.full(1)
        want = (lambda a=a, r=radius: oracle.hausdorff_1d(
            oracle.lattice_points([[1.0 / a]], r)[:, 0], None, r, b_line=True))
        ops.append(Op("chabauty_distance:1d-line", {"a": a, "radius": radius},
                      lambda h1=h1, r=radius: chabauty.chabauty_distance(h1, line, r),
                      _distance_check(want)))
    for _ in range(12):
        radius = 2.0
        b1 = _random_basis(rng, 2, rng.uniform(0.09, 0.11))
        b2 = b1 + rng.normal(scale=0.01, size=(2, 2))
        h1, h2 = C.lattice(b1), C.lattice(b2)
        want = (lambda b1=b1, b2=b2, r=radius: oracle.hausdorff_points(
            oracle.lattice_points(b1, r), oracle.lattice_points(b2, r)))
        ops.append(Op("chabauty_distance:2d", {"b1": b1.tolist(), "b2": b2.tolist(),
                                               "radius": radius},
                      lambda h1=h1, h2=h2, r=radius: chabauty.chabauty_distance(h1, h2, r),
                      _distance_check(want)))
    for _ in range(10):
        radius = 2.0
        phi = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(phi), math.sin(phi)])
        step = rng.uniform(0.4, 0.5)
        b = _random_basis(rng, 2, rng.uniform(0.13, 0.16))
        h1 = C.from_parts(2, [u], [step * np.array([-u[1], u[0]])])
        h2 = C.lattice(b)
        ops.append(Op("chabauty_distance:line-lattice",
                      {"phi": phi, "step": step, "b": b.tolist(), "radius": radius},
                      lambda h1=h1, h2=h2, r=radius: chabauty.chabauty_distance(h1, h2, r),
                      _line_lattice_check(u, step, b, radius)))
    for _ in range(10):
        dim = int(rng.choice([2, 3]))
        basis = _unimodular(rng, dim) @ _random_basis(rng, dim, 1.0)
        ops.append(Op("reduce_basis", {"basis": basis.tolist()},
                      lambda b=basis: chabauty.reduce_basis(b), _reduce_check(basis)))
    for _ in range(5):
        basis = _random_basis(rng, 2, rng.uniform(0.2, 1.0))
        radius = rng.uniform(1.0, 3.0)
        ops.append(Op("lattice_points_in_ball", {"basis": basis.tolist(), "radius": radius},
                      lambda b=basis, r=radius: chabauty.lattice_points_in_ball(b, r),
                      _points_check(basis, radius)))
    for _ in range(4):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=int(rng.integers(20, 41)))
        bases = [np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
                 for t in angles]
        ops.append(Op("mahler_subsequence", {"angles": angles.tolist()},
                      lambda bs=bases: chabauty.mahler_subsequence(bs, 1.5, 0.9),
                      _rotations_check))
    return ops


ROUNDS = {
    "moebius-orbits": moebius_round,
    "exact-groups": exact_round,
    "nerve-presentations": nerve_round,
    "chabauty-limits": chabauty_round,
}


# Busy seconds of one round on the reference machine (2-core x86_64 VM,
# Python 3.11).  A run measures round(seconds / ROUND_SECONDS), at least one,
# whole rounds, so both sides of a comparison do the same work.
ROUND_SECONDS = {
    "moebius-orbits": 12.5,
    "exact-groups": 2.9,
    "nerve-presentations": 8.0,
    "chabauty-limits": 33.0,
}


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build_round(workload, seed, index, oracles):
    return ROUNDS[workload](rng_for(workload, seed, index), oracles)
