"""Experiment runner: every module behind one deterministic subcommand each.

Reports are JSON (sorted keys, no timestamps) so identical (config, seed)
pairs produce byte-identical files; wall-clock time goes to stderr only.
Exit codes: 0 success, 2 precondition violation, 3 numerically borderline
outcome.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

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

VERIFIES = {
    "classify": "isometry trichotomy: elliptic / parabolic / hyperbolic with axis and length",
    "thickthin": "thick-thin decomposition: thin components are tubes or cusps",
    "psi-check": "displacement Morse function: gradient vanishes exactly where the function does",
    "presentation": "nerve presentations with relators of length at most 3",
    "count-presentations": "super-exponential window for counting bounded presentations",
    "chabauty": "convergence of closed subgroups under the truncation metric",
    "mahler": "compactness of bounded-covolume, short-vector-bounded lattice families",
    "solvable": "non-uniform lattice in a metabelian group: exact indices and covolume",
    "heisenberg": "unipotent integral lattice: constructive fundamental domain",
    "zassenhaus": "commutator contraction near the identity",
    "jordan": "finite subgroups of compact groups: bounded abelian index",
    "crystallo": "crystallographic structure: translation lattice and point group",
    "recurrence": "recurrence of powers through a fixed window, witnessed in the lattice",
    "span": "weak density: regular elements and full matrix span",
}


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


def _emit(args, config, result):
    report = {
        "config": to_jsonable(config),
        "verifies": VERIFIES[config["subcommand"]],
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
        with open(args.out, "w") as fh:
            fh.write(text)
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


CLASSIFY_PRESETS = {
    "sl2z-T": ((1, 1), (0, 1)),
    "sl2z-S": ((0, -1), (1, 0)),
    "hyperbolic-2": ((2, 0), (0, Fraction(1, 2))),
}


def _preset_group(name, kind, subcommand):
    """The named preset group; the subcommand reads its generators as `kind`."""
    group = presets.get_group(name)
    if not all(isinstance(g, kind) for g in group.generators):
        raise PreconditionError("%s needs a group of %s; preset %r is not one"
                                % (subcommand, kind.__name__, name))
    return group


def cmd_classify(args, config):
    if args.matrix:
        g = _parse_matrix(args.matrix)
    else:
        m = CLASSIFY_PRESETS.get(args.preset or "sl2z-T")
        if m is None:
            raise PreconditionError("unknown classify preset %r" % args.preset)
        g = MoebiusIsometry(m)
    cls = classify(g)
    return {
        "class": cls.kind,
        "translation_length": cls.translation_length,
        "attained": cls.attained,
        "axis": cls.axis,
        "fixed_boundary": cls.fixed_boundary,
        "fixed_interior": cls.fixed_interior,
    }


def cmd_thickthin(args, config):
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


def cmd_psi_check(args, config):
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


def cmd_presentation(args, config):
    name = args.preset or "torus"
    # Cover balls a hair above the net parameter: maximality holds only on
    # the sample stream, so radius-eps balls can leave slivers uncovered.
    eps = args.epsilon if args.epsilon is not None else (0.2 if name == "torus" else 0.5)
    radius = args.radius if args.radius is not None else round(1.1 * eps, 6)
    config["epsilon"], config["radius"] = eps, radius
    if name == "torus":
        if radius > 0.25:
            raise PreconditionError(
                "torus nerve radius %g is above 1/4, where nearest-lift minimax radii are "
                "not exact; lower --radius, or --epsilon (default radius 1.1 * epsilon)" % radius)
        metric = nerve.TorusMetric()
        pts = presets.sample_torus(args.samples)
    elif name == "octagon-genus2":
        group = presets.get_group(name)
        metric = nerve.SurfaceMetric(
            group, presets.octagon_center(),
            region_radius=presets.octagon_circumradius(),
            interaction_radius=2.0 * radius)
        pts = presets.default_region(name, count=args.samples)
    else:
        raise PreconditionError("presentation presets: torus, octagon-genus2")
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


def cmd_count_presentations(args, config):
    vs = _parse_list(args.v_list, int, "--v-list")
    profile = nerve.growth_profile(args.c, vs)
    return profile


def cmd_chabauty(args, config):
    family = args.family or "one-over-n"
    radii = _parse_list(args.radius_list, float, "--radius-list")
    if family == "one-over-n":
        seq = [chabauty.ClosedSubgroupRn.lattice([[1.0 / k]])
               for k in range(1, args.count + 1)]
    elif family == "n-z":
        seq = [chabauty.ClosedSubgroupRn.lattice([[float(k)]])
               for k in range(1, args.count + 1)]
    elif family == "rotating-z1":
        seq = [chabauty.ClosedSubgroupRn.lattice(
            [[math.cos(1.0 / k), math.sin(1.0 / k)]]) for k in range(1, args.count + 1)]
    else:
        raise PreconditionError("chabauty families: one-over-n, n-z, rotating-z1")
    res = chabauty.chabauty_limit(seq, radii, tol=args.tol)
    return {
        "converged": res.converged,
        "limit_v_dim": res.limit.v_dim,
        "limit_lattice_rank": res.limit.lattice_rank,
        "final_distances": {str(r): ds[-1] for r, ds in res.distances.items()},
        "witness": res.witness,
    }


def cmd_mahler(args, config):
    family = args.family or "rotating"
    if family == "rotating":
        bases = [np.array([[math.cos(1.0 / k), math.sin(1.0 / k)],
                           [-math.sin(1.0 / k), math.cos(1.0 / k)]])
                 for k in range(1, args.count + 1)]
    elif family == "diagonal":
        bases = [np.diag([1.0 / k, float(k)]) for k in range(1, args.count + 1)]
    else:
        raise PreconditionError("unknown mahler family %r; known: rotating, diagonal" % family)
    res = chabauty.mahler_subsequence(bases, args.covolume_bound, args.shortest_bound)
    return {
        "subsequence_length": len(res.indices),
        "limit_basis": res.limit_basis,
        "limit_covolume": res.limit_covolume,
        "limit_shortest": res.limit_shortest,
    }


def cmd_solvable(args, config):
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


def cmd_heisenberg(args, config):
    coords = _parse_list(args.coords, parse_entry, "--coords")
    if len(coords) != 3:
        raise PreconditionError("--coords %r: expected three entries x,y,z" % args.coords)
    x, y, z = coords
    g = solvable.HeisenbergElement.of(x, y, z)
    gamma, r = solvable.heisenberg_reduce(g)
    return {
        "lattice_part": [gamma.x, gamma.y, gamma.z],
        "remainder": [r.x, r.y, r.z],
    }


def cmd_zassenhaus(args, config):
    rng = np.random.default_rng(args.seed)
    dim = args.dim
    violations = 0
    worst_ratio = 0.0
    for _ in range(args.pairs):
        x = rng.normal(size=(dim, dim))
        y = rng.normal(size=(dim, dim))
        x *= args.epsilon * rng.uniform(0.2, 1.0) / np.linalg.norm(x)
        y *= args.epsilon * rng.uniform(0.2, 1.0) / np.linalg.norm(y)
        a, b = np.eye(dim) + x, np.eye(dim) + y
        lhs = smallness.frobenius_to_identity(smallness.commutator(a, b))
        rhs = 8.0 * np.linalg.norm(x) * np.linalg.norm(y)
        worst_ratio = max(worst_ratio, lhs / rhs if rhs else 0.0)
        if lhs > rhs:
            violations += 1
    ladder = smallness.commutator_ladder(
        [np.eye(2) + args.epsilon / 2.0 * np.array([[0.0, 1.0], [0.0, 0.0]]),
         np.eye(2) + args.epsilon / 2.0 * np.array([[0.0, 0.0], [1.0, 0.0]])],
        levels=args.levels)
    return {
        "pairs": args.pairs,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "ladder_max_dists": ladder.max_dists,
        "ladder_bound_asserted": ladder.bound_asserted,
        "ladder_bound_violations": ladder.bound_violations,
    }


def cmd_jordan(args, config):
    name = args.group or "a5"
    if name == "a5":
        elements = smallness.icosahedral_rotation_group()
    elif name == "q8":
        elements = smallness.quaternion_group_su2()
    else:
        raise PreconditionError("unknown jordan group %r; known: a5, q8" % name)
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


def cmd_crystallo(args, config):
    group = _preset_group(args.preset or "p2", EuclideanIsometry, "crystallo")
    rep = crystallographic_analysis(group.generators, args.cutoff)
    return rep


def cmd_recurrence(args, config):
    family = args.family or "real"
    if family == "real":
        hits = lattice_lab.recurrence_search_real(args.g, args.epsilon, args.n_max)
        return {"hits": hits[:200], "hit_count": len(hits)}
    if family != "sl2z":
        raise PreconditionError("unknown recurrence family %r; known: real, sl2z" % family)
    theta = args.g
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    g = MoebiusIsometry(((c, s), (-s, c)))
    hits = lattice_lab.recurrence_search_sl2z(g, args.epsilon, args.n_max)
    return {"hits": hits[:50], "hit_count": len(hits)}


def cmd_span(args, config):
    group = _preset_group(args.preset or "sl2z", MoebiusIsometry, "span")
    rep = lattice_lab.span_check(group, args.word_ball)
    return rep


COMMANDS = {
    "classify": cmd_classify,
    "thickthin": cmd_thickthin,
    "psi-check": cmd_psi_check,
    "presentation": cmd_presentation,
    "count-presentations": cmd_count_presentations,
    "chabauty": cmd_chabauty,
    "mahler": cmd_mahler,
    "solvable": cmd_solvable,
    "heisenberg": cmd_heisenberg,
    "zassenhaus": cmd_zassenhaus,
    "jordan": cmd_jordan,
    "crystallo": cmd_crystallo,
    "recurrence": cmd_recurrence,
    "span": cmd_span,
}


def build_parser():
    p = argparse.ArgumentParser(prog="latticelab",
                                description="desk-scale discrete-group experiments")
    p.add_argument("--config", help="key=value file; entries override flags")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--preset")
        sp.add_argument("--epsilon", type=float, default=0.2)
        sp.add_argument("--word-ball", type=int, default=6, dest="word_ball")
        sp.add_argument("--radius", type=float, default=0.6)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--samples", type=int, default=1000)

    sp = sub.add_parser("classify"); common(sp)
    sp.add_argument("--matrix")
    sp = sub.add_parser("thickthin"); common(sp)
    sp.add_argument("--length", type=float, default=0.05)
    sp = sub.add_parser("psi-check"); common(sp)
    sp.add_argument("--step", type=float, default=1e-4)
    sp = sub.add_parser("presentation"); common(sp)
    sp.set_defaults(epsilon=None, radius=None, samples=1500)
    sp = sub.add_parser("count-presentations"); common(sp)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--v-list", default="4,8,16,32", dest="v_list")
    sp = sub.add_parser("chabauty"); common(sp)
    sp.add_argument("--family")
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--radius-list", default="1,2,4", dest="radius_list")
    sp.add_argument("--tol", type=float, default=2e-2)
    sp = sub.add_parser("mahler"); common(sp)
    sp.add_argument("--family")
    sp.add_argument("--count", type=int, default=40)
    sp.add_argument("--covolume-bound", type=float, default=1.5, dest="covolume_bound")
    sp.add_argument("--shortest-bound", type=float, default=0.9, dest="shortest_bound")
    sp = sub.add_parser("solvable"); common(sp)
    sp.add_argument("--primes", default="5,7,11")
    sp.add_argument("--m", type=int)
    sp = sub.add_parser("heisenberg"); common(sp)
    sp.add_argument("--coords", default="5/2,-3/4,13/4")
    sp = sub.add_parser("zassenhaus"); common(sp)
    sp.add_argument("--pairs", type=int, default=1000)
    sp.add_argument("--levels", type=int, default=5)
    sp.add_argument("--dim", type=int, default=2)
    sp = sub.add_parser("jordan"); common(sp)
    sp.add_argument("--group")
    sp = sub.add_parser("crystallo"); common(sp)
    sp.add_argument("--cutoff", type=int, default=6)
    sp = sub.add_parser("recurrence"); common(sp)
    sp.add_argument("--family")
    sp.add_argument("--g", type=float, default=0.5)
    sp.add_argument("--n-max", type=int, default=100, dest="n_max")
    sp = sub.add_parser("span"); common(sp)
    return p


def _apply_config_file(args, parser):
    """Set each `key = value` line of the --config file on args, converted by
    the type of the subcommand's flag with that dest."""
    if not args.config:
        return
    # argparse has no public accessor for a subparser's actions.
    (subparsers,) = (a for a in parser._actions if a.dest == "subcommand")
    actions = {a.dest: a for a in subparsers.choices[args.subcommand]._actions
               if hasattr(args, a.dest)}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            action = actions.get(key)
            if action is None:
                raise PreconditionError("unknown config key %r" % key)
            if action.type is not None:
                try:
                    value = action.type(value)
                except ValueError:
                    raise PreconditionError(
                        "config key %r: %r is not a valid %s" % (key, value, action.type.__name__)
                    ) from None
            if action.choices is not None and value not in action.choices:
                raise PreconditionError("config key %r: %r is not one of %s"
                                        % (key, value, ", ".join(action.choices)))
            setattr(args, key, value)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        config = {k: v for k, v in sorted(vars(args).items()) if k not in ("out",)}
        start = time.monotonic()
        result = COMMANDS[args.subcommand](args, config)
        elapsed = time.monotonic() - start
        _emit(args, config, result)
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
