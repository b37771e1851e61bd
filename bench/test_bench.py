"""Self-tests of the benchmark harness (run with pytest from the repo root)."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
import lab_oracles  # noqa: E402
import lab_trace  # noqa: E402
import lab_workloads as lw  # noqa: E402


def _op_list(workload, seed):
    return [op.describe() for op in lw.build_round(workload, seed, 0, lw.Oracles())]


def test_same_seed_same_op_list():
    for workload in lw.WORKLOADS:
        first = _op_list(workload, 7)
        assert first == _op_list(workload, 7)
        assert first != _op_list(workload, 8)


def test_failed_op_counts_as_missing_in_both_percentiles():
    fast_failure = run.Record("k", 0.001, error="wrong")
    ok = [run.Record("k", t) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)]
    metrics = run.end_to_end(ok + [fast_failure], setup_s=1.0)
    # Sorted with the failure as infinite: 1..9, inf.  Counted at its 1 ms it
    # would have pulled both percentiles down by one rank.
    assert metrics["op_p50_ms"][0] == 5000.0
    assert metrics["op_p90_ms"][0] == 9000.0
    two_failures = ok[:8] + [fast_failure, fast_failure]
    metrics = run.end_to_end(two_failures, setup_s=1.0)
    assert metrics["op_p90_ms"][0] == pytest.approx(36002.0)     # censored at the busy time
    assert metrics["failed_op_share"][0] == 0.2


def test_known_defects_match_only_their_workload_and_reason():
    dup = ("duplicate elements: ball size 22291, expected 22289; "
           "each extra one is within 1e-6 of another")
    assert lw.known_defect("moebius-orbits", "word_ball:conjugate", dup)
    assert lw.known_defect("exact-groups", "word_ball:sl2z-conjugate", dup) is None
    assert lw.known_defect("moebius-orbits", "word_ball:conjugate",
                           "duplicate elements: ball size 22291, expected 22289") is None
    cap = "exit code 2: error: pruned orbit ball exceeded 200000 elements"
    assert lw.known_defect("moebius-orbits", "cli:presentation-octagon-genus2", cap)
    assert lw.known_defect("moebius-orbits", "cli:presentation-octagon-genus2",
                           "exit code 2: error: word ball exceeded 1000000 elements") is None
    limit = "wrong limit: v_dim %d, lattice rank %d (the limit of (1/n)Z is R: v_dim 1, rank 0)"
    assert lw.known_defect("chabauty-limits", "cli:chabauty", limit % (0, 1))
    assert lw.known_defect("chabauty-limits", "cli:chabauty", limit % (0, 0)) is None


def test_near_duplicates_are_found_up_to_sign():
    mats = np.array([[[2.0, 1.0], [1.0, 1.0]], [[-2.0, -1.0 - 1e-9], [-1.0, -1.0]],
                     [[1.0, 0.0], [0.0, 1.0]]])
    assert lab_oracles.near_duplicate_pairs(mats) == {(0, 1)}


def _bindings():
    """Every attribute of every latticelab module and of every class that
    holds a wrapped method, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "latticelab" or name.startswith("latticelab."):
            for attr, value in list(vars(mod).items()):
                out[(name, attr)] = id(value)
                if isinstance(value, type):
                    for a, v in list(vars(value).items()):
                        out[(name, attr, a)] = id(v)
    return out


def test_tracer_restores_every_binding():
    from latticelab import cli, lattice_lab, nerve, wordballs
    before = _bindings()
    original = wordballs.word_ball
    with lab_trace.Tracer() as tracer:
        # Bindings made by `from .wordballs import word_ball` are patched too.
        assert lattice_lab.word_ball is not original
        assert lattice_lab.word_ball is wordballs.word_ball
        assert nerve.displacement_pruned_ball is wordballs.displacement_pruned_ball
        assert cli.word_ball is wordballs.word_ball
        assert tracer.patched
    assert _bindings() == before
    assert wordballs.word_ball is original


def test_tracer_counts_and_self_time():
    from latticelab import presets, wordballs
    group = presets.get_group("octagon-genus2")
    with lab_trace.Tracer() as tracer:
        wordballs.word_ball(group, 3)
        base = presets.octagon_center()
        kept = wordballs.displacement_pruned_ball(group, base, 3.5, slack=3.0)
    stats = tracer.stats
    assert stats["wordballs.word_ball.calls"] == 1
    assert stats["wordballs.word_ball.elements"] == 457
    assert stats["wordballs.displacement_pruned_ball.kept"] == len(kept)
    assert stats["wordballs.displacement_pruned_ball.explored"] == \
        stats["hyperbolic.displacement.calls"]
    metrics = tracer.metrics(0.0)
    assert [n for n, _ in lab_trace.metric_names()] == list(metrics)
    assert 0 < metrics["wordballs.displacement_pruned_ball.kept_ratio"]["value"] <= 1


# Seconds-long reports (chabauty about 30 s, the octagon presentation about
# 5 s) are left to `python3 bench/run.py --golden`.
FAST_GOLDEN = [n for n in lw.GOLDEN_ARGV if n not in ("chabauty", "presentation-octagon-genus2")]


def _report(name):
    code, stdout, _ = lw.run_cli(lw.GOLDEN_ARGV[name])
    return {"exit_code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def test_golden_hashes_identical_with_tracing_on_and_off():
    golden = run.load_golden()
    plain = {name: _report(name) for name in FAST_GOLDEN}
    with lab_trace.Tracer():
        traced = {name: _report(name) for name in FAST_GOLDEN}
    assert plain == traced
    assert plain == {name: golden[name] for name in FAST_GOLDEN}


def test_octagon_ball_of_radius_five_matches_dehn():
    sizes = lab_oracles.dehn_ball_sizes(lab_oracles.OCTAGON_RELATOR, 4, 5)
    assert sizes == lw.Oracles().octagon_ball_sizes()
    assert sizes[5] == lw.OCTAGON_BALL_5
