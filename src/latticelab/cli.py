"""Experiment runner: every module behind one deterministic subcommand each.

Reports are JSON (sorted keys, no timestamps) so identical (config, seed)
pairs produce byte-identical files; wall-clock time goes to stderr only.
Exit codes: 0 success, 2 precondition violation, 3 numerically borderline
outcome.

Input contract: flags and `--config` entries are parsed by the same table
(`COMMANDS` beside `SHARED`).  A config line `key = value`, key spelled as
the flag or its dest, is the token `--key=value` after the flags, so entries
override flags.  Every bad input exits 2 with `precondition violated:` on
stderr and writes no report.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import chabauty, lattice_lab, nerve, presets, smallness, solvable
from .errors import (
    BorderlineClassificationError,
    DimensionMismatchError,
    LatticeLabError,
    PreconditionError,
)
from .euclidean import EuclideanIsometry, crystallographic_analysis
from .hyperbolic import HPoint, MoebiusIsometry, classify
from .mat2 import as_tuple, parse_entry
from .wordballs import word_ball


def to_jsonable(obj):
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, complex):
        if obj == complex("inf"):
            return "inf"
        return [obj.real, obj.imag]
    if isinstance(obj, HPoint):
        return list(obj.coords)
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    return obj


def _emit(args, result):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "out"}
    report = {
        "config": to_jsonable(config),
        "verifies": COMMANDS[args.subcommand].verifies,
        "result": to_jsonable(result),
    }
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rows = result if isinstance(result, list) else [result]
        rows = [to_jsonable(r) for r in rows]
        if rows and isinstance(rows[0], dict):
            cols = sorted(rows[0])
            lines = [",".join(cols)]
            lines += [",".join(str(r.get(c, "")) for c in cols) for r in rows]
        else:
            lines = [str(r) for r in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError("--out %r: %s" % (args.out, exc.strerror)) from None
    else:
        sys.stdout.write(text)


def _parse_matrix(text):
    """The --matrix flag: a JSON 2x2 array of determinant 1 (or of positive
    determinant, for float entries), each entry read by `parse_entry`."""
    try:
        return MoebiusIsometry([parse_entry(str(x)) for x in as_tuple(json.loads(text))])
    except (ValueError, ZeroDivisionError, DimensionMismatchError) as exc:
        raise PreconditionError(
            "--matrix %r: %s; expected a JSON 2x2 array of determinant 1, "
            "e.g. [[0,-1],[1,0]]" % (text, exc)) from None


def _parse_list(text, convert, flag):
    """A comma-separated flag value, each item through `convert`."""
    try:
        return [convert(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError("%s %r: %s" % (flag, text, exc)) from None


def _preset_group(name, kind, subcommand):
    """The named preset group; the subcommand reads its generators as `kind`."""
    group = presets.get_group(name)
    if not all(isinstance(g, kind) for g in group.generators):
        raise PreconditionError("%s needs a group of %s; preset %r is not one"
                                % (subcommand, kind.__name__, name))
    return group


def cmd_classify(args):
    if args.matrix:
        g = _parse_matrix(args.matrix)
    else:
        matrices = {"sl2z-T": ((1, 1), (0, 1)), "sl2z-S": ((0, -1), (1, 0)),
                    "hyperbolic-2": ((2, 0), (0, Fraction(1, 2)))}
        g = MoebiusIsometry(presets.lookup(matrices, args.preset or "sl2z-T", "classify preset"))
    cls = classify(g)
    return {
        "class": cls.kind,
        "translation_length": cls.translation_length,
        "attained": cls.attained,
        "axis": cls.axis,
        "fixed_boundary": cls.fixed_boundary,
        "fixed_interior": cls.fixed_interior,
    }


def cmd_thickthin(args):
    name = args.preset or "sl2z"
    params = {"length": args.length} if name == "cyclic-hyperbolic" else {}
    group = presets.get_group(name, **params)
    samples = presets.default_region(name, count=args.samples)
    res = lattice_lab.thick_thin_scan(group, args.epsilon, samples, args.word_ball)
    return {
        "thin_component_count": res.component_count,
        "thin_components": [
            {"kind": c.kind, "core_length": c.core_length,
             "fixed_point": c.fixed_point, "witness_count": len(c.witnesses),
             "sample_count": len(c.samples)}
            for c in res.thin_components
        ],
        "cone_component_count": len(res.cone_components),
        "thick_sample_count": len(res.thick_samples),
        "unresolved_sample_count": len(res.unresolved_samples),
    }


def cmd_psi_check(args):
    group = _preset_group(args.preset or "cusp-model", MoebiusIsometry, "psi-check")
    ys = np.linspace(0.5, 10.0, args.samples)
    samples = [HPoint(0.0, float(y)) for y in ys]
    res = lattice_lab.gradient_lemma_check(
        group, args.epsilon, samples, args.word_ball, args.step)
    return {
        "violations": len(res.violations),
        "borderline": res.borderline,
        "checked": res.checked,
    }


def cmd_presentation(args):
    name = args.preset or "torus"
    default_epsilon = presets.lookup({"torus": 0.2, "octagon-genus2": 0.5}, name,
                                     "presentation preset")
    # Cover balls a hair above the net parameter: maximality holds only on
    # the sample stream, so radius-eps balls can leave slivers uncovered.
    # Both flags are positive when given, so `or` replaces only None; the
    # resolved values go back on args, so the report echoes them.
    eps = args.epsilon = args.epsilon or default_epsilon
    radius = args.radius = args.radius or round(1.1 * eps, 6)
    if name == "torus":
        if radius > 0.25:
            raise PreconditionError(
                "torus nerve radius %g is above 1/4, where nearest-lift minimax radii are "
                "not exact; lower --radius, or --epsilon (default radius 1.1 * epsilon)" % radius)
        metric = nerve.TorusMetric()
        pts = presets.sample_torus(args.samples)
    else:
        # Certified slack: the octagon's circumradius (`displacement_pruned_ball`).
        rho = presets.octagon_circumradius()
        metric = nerve.SurfaceMetric(presets.get_group(name), presets.octagon_center(),
                                     region_radius=rho, interaction_radius=2.0 * radius,
                                     slack=rho)
        pts = presets.default_region(name, count=args.samples)
    net = nerve.build_eps_net(pts, eps, metric)
    complex_ = nerve.nerve(net, radius, metric)
    pres = nerve.presentation_from_nerve(complex_)
    rank, torsion = nerve.abelianization(pres)
    return {
        "net_size": len(net.centers),
        "edges": len(complex_.edges),
        "triangles": len(complex_.triangles),
        "generators": pres.generator_count,
        "relators": len(pres.relators),
        "max_relator_length": pres.max_relator_length(),
        "abelianization_rank": rank,
        "torsion": torsion,
        "max_degree": complex_.max_degree,
        "degree_bound_formula": complex_.degree_bound_formula,
    }


def cmd_count_presentations(args):
    return nerve.growth_profile(args.c, _parse_list(args.v_list, int, "--v-list"))


def cmd_chabauty(args):
    families = {  # family -> basis of its k-th lattice
        "one-over-n": lambda k: [[1.0 / k]],
        "n-z": lambda k: [[float(k)]],
        "rotating-z1": lambda k: [[math.cos(1.0 / k), math.sin(1.0 / k)]],
    }
    basis = presets.lookup(families, args.family or "one-over-n", "chabauty family")
    radii = _parse_list(args.radius_list, float, "--radius-list")
    seq = [chabauty.ClosedSubgroupRn.lattice(basis(k)) for k in range(1, args.count + 1)]
    res = chabauty.chabauty_limit(seq, radii, tol=args.tol)
    return {
        "converged": res.converged,
        "limit_v_dim": res.limit.v_dim,
        "limit_lattice_rank": res.limit.lattice_rank,
        "final_distances": {str(r): ds[-1] for r, ds in res.distances.items()},
        "witness": res.witness,
    }


def cmd_mahler(args):
    families = {  # family -> basis of its k-th lattice
        "rotating": lambda k: np.array([[math.cos(1.0 / k), math.sin(1.0 / k)],
                                        [-math.sin(1.0 / k), math.cos(1.0 / k)]]),
        "diagonal": lambda k: np.diag([1.0 / k, float(k)]),
    }
    basis = presets.lookup(families, args.family or "rotating", "mahler family")
    bases = [basis(k) for k in range(1, args.count + 1)]
    res = chabauty.mahler_subsequence(bases, args.covolume_bound, args.shortest_bound)
    return {
        "subsequence_length": len(res.indices),
        "limit_basis": res.limit_basis,
        "limit_covolume": res.limit_covolume,
        "limit_shortest": res.limit_shortest,
    }


def cmd_solvable(args):
    primes = tuple(_parse_list(args.primes, int, "--primes"))
    m = args.m if args.m is not None else len(primes)
    cert = solvable.lattice_certificate(primes, m_max=m)
    return {
        "covolume": solvable.covolume_product(primes, m),
        "covolume_vs_counting": solvable.covolume_vs_counting(primes, m),
        "indices": [solvable.indices(primes, k) for k in range(1, m + 1)],
        "certificate": cert,
        "closure_check": solvable.gamma_closure_check(primes),
    }


def cmd_heisenberg(args):
    coords = _parse_list(args.coords, parse_entry, "--coords")
    if len(coords) != 3:
        raise PreconditionError("--coords %r: expected three entries x,y,z" % args.coords)
    g = solvable.HeisenbergElement.of(*coords)
    gamma, r = solvable.heisenberg_reduce(g)
    return {
        "lattice_part": [gamma.x, gamma.y, gamma.z],
        "remainder": [r.x, r.y, r.z],
    }


def cmd_zassenhaus(args):
    rng = np.random.default_rng(args.seed)
    dim = args.dim
    violations = 0
    worst_ratio = 0.0
    for done in range(0, args.pairs, lattice_lab.ROW_BLOCK):
        # Per pair, in draw order: x, y (as normal() draws them), their scales.
        k = min(lattice_lab.ROW_BLOCK, args.pairs - done)
        xy, scale = np.empty((k, 2, dim, dim)), np.empty((k, 2))
        for i in range(k):
            rng.standard_normal(out=xy[i])
            scale[i] = rng.uniform(0.2, 1.0, size=2)
        rows = xy.reshape(2 * k, -1)             # x and y of each pair, flattened
        rows *= (args.epsilon * scale.ravel() / lattice_lab.row_norms(rows))[:, None]
        norms = lattice_lab.row_norms(rows).reshape(k, 2)
        c = smallness.commutator(np.eye(dim) + xy[:, 0], np.eye(dim) + xy[:, 1]) - np.eye(dim)
        lhs = np.sqrt((np.abs(c) ** 2).reshape(k, -1).sum(axis=1))   # frobenius_to_identity's sum
        rhs = 8.0 * norms[:, 0] * norms[:, 1]
        ratio = np.divide(lhs, rhs, out=np.zeros(k), where=rhs != 0)
        worst_ratio = max(worst_ratio, np.fmax.reduce(ratio))
        violations += int((lhs > rhs).sum())
    try:
        ladder = smallness.commutator_ladder(
            [np.eye(2) + args.epsilon / 2.0 * np.array([[0.0, 1.0], [0.0, 0.0]]),
             np.eye(2) + args.epsilon / 2.0 * np.array([[0.0, 0.0], [1.0, 0.0]])],
            levels=args.levels)
    except PreconditionError as exc:
        raise PreconditionError("%s at --epsilon %g; lower --epsilon or --levels"
                                % (exc, args.epsilon)) from None
    return {
        "pairs": args.pairs,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "ladder_max_dists": ladder.max_dists,
        "ladder_bound_asserted": ladder.bound_asserted,
        "ladder_bound_violations": ladder.bound_violations,
    }


def cmd_jordan(args):
    groups = {"a5": smallness.icosahedral_rotation_group, "q8": smallness.quaternion_group_su2}
    elements = presets.lookup(groups, args.group or "a5", "jordan group")()
    rep = smallness.jordan_abelian_index(elements, args.epsilon)
    oracle_index, oracle_size = smallness.max_abelian_index_bruteforce(elements)
    return {
        "group_size": rep.group_size,
        "index": rep.index,
        "subgroup_size": rep.subgroup_size,
        "abelian_verified": rep.abelian_verified,
        "bruteforce_best_index": oracle_index,
        "bruteforce_best_size": oracle_size,
    }


def cmd_crystallo(args):
    group = _preset_group(args.preset or "p2", EuclideanIsometry, "crystallo")
    return crystallographic_analysis(group.generators, args.cutoff)


def cmd_recurrence(args):
    family = args.family or "real"
    shown = presets.lookup({"real": 200, "sl2z": 50}, family, "recurrence family")
    if family == "real":
        hits = lattice_lab.recurrence_search_real(args.g, args.epsilon, args.n_max)
    else:
        c, s = math.cos(args.g / 2.0), math.sin(args.g / 2.0)
        hits = lattice_lab.recurrence_search_sl2z(
            MoebiusIsometry(((c, s), (-s, c))), args.epsilon, args.n_max)
    return {"hits": hits[:shown], "hit_count": len(hits)}


def cmd_span(args):
    group = _preset_group(args.preset or "sl2z", MoebiusIsometry, "span")
    return lattice_lab.span_check(group, args.word_ball)


def _positive(convert, default):
    """The flag spec of a value read by `convert` that must be above zero."""
    def parse(text):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("%r is not positive" % text)
        return value
    parse.__name__ = convert.__name__
    return {"type": parse, "default": default}


# The flags of every subcommand.  Every report echoes their values, so a
# change here changes every golden report.
SHARED = {
    "--preset": {},
    "--epsilon": _positive(float, 0.2),
    "--word-ball": _positive(int, 6),
    "--radius": _positive(float, 0.6),
    "--seed": {"type": int, "default": 0},
    "--out": {},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--samples": _positive(int, 1000),
}


class Command(NamedTuple):
    run: Callable       # args -> result
    verifies: str       # the claim its report checks
    flags: dict = {}    # its own flags, beside SHARED
    defaults: dict = {}  # its overrides of SHARED defaults


COMMANDS = {
    "classify": Command(
        cmd_classify,
        "isometry trichotomy: elliptic / parabolic / hyperbolic with axis and length",
        {"--matrix": {}}),
    "thickthin": Command(
        cmd_thickthin, "thick-thin decomposition: thin components are tubes or cusps",
        {"--length": _positive(float, 0.05)}),
    "psi-check": Command(
        cmd_psi_check,
        "displacement Morse function: gradient vanishes exactly where the function does",
        {"--step": _positive(float, 1e-4)}),
    "presentation": Command(
        cmd_presentation, "nerve presentations with relators of length at most 3",
        defaults={"epsilon": None, "radius": None, "samples": 1500}),
    "count-presentations": Command(
        cmd_count_presentations, "super-exponential window for counting bounded presentations",
        {"--c": _positive(float, 1.0), "--v-list": {"default": "4,8,16,32"}}),
    "chabauty": Command(
        cmd_chabauty, "convergence of closed subgroups under the truncation metric",
        {"--family": {}, "--count": _positive(int, 50), "--radius-list": {"default": "1,2,4"},
         "--tol": _positive(float, 2e-2)}),
    "mahler": Command(
        cmd_mahler, "compactness of bounded-covolume, short-vector-bounded lattice families",
        {"--family": {}, "--count": _positive(int, 40),
         "--covolume-bound": _positive(float, 1.5), "--shortest-bound": _positive(float, 0.9)}),
    "solvable": Command(
        cmd_solvable, "non-uniform lattice in a metabelian group: exact indices and covolume",
        {"--primes": {"default": "5,7,11"}, "--m": {"type": int}}),
    "heisenberg": Command(
        cmd_heisenberg, "unipotent integral lattice: constructive fundamental domain",
        {"--coords": {"default": "5/2,-3/4,13/4"}}),
    "zassenhaus": Command(
        cmd_zassenhaus, "commutator contraction near the identity",
        {"--pairs": _positive(int, 1000), "--levels": _positive(int, 5),
         "--dim": _positive(int, 2)}),
    "jordan": Command(
        cmd_jordan, "finite subgroups of compact groups: bounded abelian index", {"--group": {}}),
    "crystallo": Command(
        cmd_crystallo, "crystallographic structure: translation lattice and point group",
        {"--cutoff": _positive(int, 6)}),
    "recurrence": Command(
        cmd_recurrence, "recurrence of powers through a fixed window, witnessed in the lattice",
        {"--family": {}, "--g": {"type": float, "default": 0.5}, "--n-max": _positive(int, 100)}),
    "span": Command(cmd_span, "weak density: regular elements and full matrix span"),
}


class _Parser(argparse.ArgumentParser):
    """Reports bad input as a PreconditionError instead of exiting."""

    def error(self, message):
        raise PreconditionError("%s: %s" % (self.prog, message))


@functools.cache
def build_parser():
    """The parser of `COMMANDS`; the table is static, so one per process."""
    parser = _Parser(prog="latticelab", description="desk-scale discrete-group experiments")
    parser.add_argument("--config", help="key=value file; entries override flags")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.verifies)
        for flag, spec in {**SHARED, **command.flags}.items():
            sp.add_argument(flag, **spec)
        sp.set_defaults(**command.defaults)
    return parser


def _config_tokens(path):
    """The `key = value` lines of a --config file as `--key=value` tokens;
    blank lines and lines starting with # are skipped."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise PreconditionError("--config %r: %s" % (path, exc.strerror)) from None
    pairs = [line.partition("=") for line in lines if line and not line.startswith("#")]
    return ["--%s=%s" % (k.strip().replace("_", "-"), v.strip()) for k, _, v in pairs]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(argv + _config_tokens(args.config))
        start = time.monotonic()
        result = COMMANDS[args.subcommand].run(args)
        elapsed = time.monotonic() - start
        _emit(args, result)
        print("elapsed: %.3fs" % elapsed, file=sys.stderr)
        return 0
    except BorderlineClassificationError as exc:
        print("borderline: %s" % exc, file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 2
    except LatticeLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
