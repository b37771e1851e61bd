"""Benchmark: seeded workloads of latticelab experiments, checked by oracles.

    python3 bench/run.py --workload moebius-orbits --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --golden            # default CLI reports vs golden.json

One process and one client run ops in a closed loop: the next op starts when
the previous one has returned.  A run executes a fixed number of whole rounds
(see lab_workloads), about --seconds of busy time on the reference machine,
then prints its metrics and, as the last line of stdout, one JSON object.

--trace 0 prints the end-to-end metrics: setup_s (median wall time over
SETUP_PROBES fresh interpreters of importing latticelab.cli and building the
first round, spawned between ops at least PROBE_SPACING_S apart so that they
meet different phases of the VM's speed), op_p50_ms and op_p90_ms (a failed
op counts as missing: its latency is censored at the whole busy time),
ok_ops_per_s and peak_rss_mb.
failed_op_share is printed with its counts but kept out of the JSON, which
carries the counts themselves as `attempted` and `failed`.

--trace 1 runs the same ops untraced, then again with lab_trace's wrappers,
and prints the per-layer metrics and the tracing overhead (traced over
untraced busy time, minus one).

Op times are reported at the reference machine speed.  A shared VM runs
this code at one speed or at about half of it, switching on scales from tens
of milliseconds to seconds, and that moves most ops about alike, so a fixed
calibration kernel owned by the benchmark (exact-integer breadth-first
search plus small numpy calls, the two kinds of work latticelab does) runs
before every op and every SAMPLE_EVERY_S inside an op, from a SIGALRM
handler, with the collector off so that it cannot collect the op's objects;
the time it takes inside an op is taken out of the op's latency.
Each op's latency is divided by its speed factor: the median kernel time
within CALIBRATION_WINDOW_S of the op, over CALIBRATION_REF_S.  Raw figures
are printed too.  setup_s is raw wall time: a probe is a separate process,
whose speed a kernel run in this one does not track.

`correct` is false when an op fails for a reason that is not a known defect
(lab_workloads.KNOWN_DEFECTS); known defects still count as failed ops.
"""

import os

# numpy and scipy must not start threads beyond the single client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from collections import Counter
from dataclasses import dataclass
import gc
import hashlib
import json
import math
from pathlib import Path
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(1, str(HERE))

import lab_oracles  # noqa: E402  (does not import latticelab)

GOLDEN_FILE = HERE / "golden.json"
SETUP_PROBES = 5
PROBE_SPACING_S = 2.0
# A round figure for the calibration kernel's time on the reference machine
# (2-core x86_64 VM, Python 3.11, numpy 2.4, where it reads 1.2 to 2.7 ms);
# it sets the scale of every reported op time and must not change between
# runs that are compared.
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW_S = 0.5
SAMPLE_EVERY_S = 0.25
CALIBRATION_MATS = np.array([[[2.0, 1.0], [1.0, 1.0]]] * 8)


def import_program():
    """Import latticelab from this checkout's src/, or exit 2."""
    try:
        import latticelab
    except ImportError as exc:
        sys.stderr.write("cannot import latticelab from %s: %s\n" % (SRC, exc))
        sys.exit(2)
    if not Path(latticelab.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("latticelab imported from %s, not %s\n" % (latticelab.__file__, SRC))
        sys.exit(2)
    import latticelab.cli  # noqa: F401  (the import a CLI user pays)
    import lab_workloads
    return lab_workloads


# -- measuring ---------------------------------------------------------------------

def calibration_kernel():
    """Fixed work: the radius-8 ball of PSL(2, Z) by exact-integer BFS, then
    100 small numpy displacement evaluations."""
    lab_oracles.psl2z_ball_sizes([(0, -1, 1, 0), (1, 1, 0, 1)], 8)
    for _ in range(100):
        lab_oracles.h2_displacement(CALIBRATION_MATS, 0.1 + 1.2j)


class Clock:
    """Calibration samples of one phase of a run, as (time, kernel seconds)."""

    def __init__(self):
        self.samples = []
        self.busy = False

    def sample(self, *_signal):
        if self.busy:
            return
        self.busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()
        self.busy = False

    def start(self):
        """Sample every SAMPLE_EVERY_S until stop()."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, start, end):
        """Stop sampling; seconds the kernel took between start and end."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(d for t, d in self.samples if start <= t < end)

    def factor(self, start, end):
        """How much slower than the reference the machine ran from start to
        end: the kernel samples within the window around that interval."""
        lo, hi = start - CALIBRATION_WINDOW_S, end + CALIBRATION_WINDOW_S
        near = [d for t, d in self.samples if lo <= t <= hi]
        return statistics.median(near) / CALIBRATION_REF_S


@dataclass
class Record:
    kind: str
    latency: float               # seconds
    error: str = None            # None when the op passed its check
    report: tuple = None         # (exit code, sha256 of stdout) of a golden CLI run
    golden: str = None
    start: float = 0.0
    factor: float = 1.0          # speed factor around the op (see Clock)


def execute(op, lw, clock):
    # Each op starts from a collected heap with the harness's objects frozen
    # out of the collector, as a fresh CLI process would, so its garbage
    # collection cost does not depend on the ops before it.
    gc.collect()
    gc.freeze()
    clock.sample()
    out, error = None, None
    clock.start()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        error = "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        t1 = time.perf_counter()
        paused = clock.stop(t0, t1)
    latency = t1 - t0 - paused
    if error is None:
        try:
            op.check(out)
        except lw.Mismatch as exc:
            error = str(exc)
        except Exception as exc:
            error = "check raised %s: %s" % (type(exc).__name__, exc)
    report = None
    if op.golden and out is not None:
        report = (out[0], hashlib.sha256(out[1].encode()).hexdigest())
    return Record(op.kind, latency, error, report, op.golden, start=t0)


def run_rounds(lw, workload, seed, rounds, oracles, between=None):
    """Run `rounds` whole rounds, calling between() untimed before each op;
    returns the records with their speed factors set."""
    clock = Clock()
    records = []
    for index in range(rounds):
        for op in lw.build_round(workload, seed, index, oracles):
            if between:
                between()
            records.append(execute(op, lw, clock))
    clock.sample()
    for rec in records:
        rec.factor = clock.factor(rec.start, rec.start + rec.latency)
    return records


def busy(records, scaled=True):
    return sum(r.latency / (r.factor if scaled else 1.0) for r in records)


def percentile(latencies, q, censor):
    """Nearest-rank percentile; None (a failed op) counts as infinite and
    reads as `censor`."""
    ranked = sorted(math.inf if x is None else x for x in latencies)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return censor if math.isinf(value) else value


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.stderr.write("setup probe failed (exit %s)\n" % proc.returncode)
        sys.exit(2)
    return elapsed


class SetupProbes:
    """SETUP_PROBES setup probes, taken between ops at least PROBE_SPACING_S
    apart; those the run leaves no room for are taken after it."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.times = []
        self.last = -math.inf

    def between(self):
        if len(self.times) < SETUP_PROBES and time.perf_counter() - self.last >= PROBE_SPACING_S:
            self.times.append(probe_setup(self.workload, self.seed))
            self.last = time.perf_counter()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.times.append(probe_setup(self.workload, self.seed))
        return statistics.median(self.times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reporting ------------------------------------------------------------------------

def git_commit():
    """HEAD of the repository this checkout is, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment():
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def load_golden():
    return json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


def print_golden(records):
    golden = load_golden()
    seen = {}
    for rec in records:
        if rec.golden and rec.report:
            seen.setdefault(rec.golden, rec.report)
    for name, (code, digest) in sorted(seen.items()):
        want = golden.get(name)
        state = "unchanged" if want == {"exit_code": code, "sha256": digest} else "changed"
        print("golden %-28s %s (exit %s, sha256 %s)" % (name, state, code, digest[:16]))


def print_kinds(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.latency)
    print("ops by kind (count, median ms):")
    for kind, lats in kinds.items():
        print("  %-40s %4d %12.3f" % (kind, len(lats), 1e3 * statistics.median(lats)))


def print_failures(records, lw, workload):
    failures = Counter((r.kind, r.error) for r in records if r.error)
    unknown = 0
    if failures:
        print("failed ops by kind and reason:")
    for (kind, error), n in sorted(failures.items()):
        why = lw.known_defect(workload, kind, error)
        unknown += why is None
        print("  %s x%d: %s [%s]" % (kind, n, error,
                                     "known defect: " + why if why else "NEW FAILURE"))
    return unknown == 0


def end_to_end(records, setup_s, scaled=True):
    """The end-to-end metrics; with `scaled`, op latencies are divided by
    their speed factors."""
    n = len(records)
    latencies = [None if r.error else r.latency / (r.factor if scaled else 1.0)
                 for r in records]
    ok = sum(1 for r in records if not r.error)
    censor = busy(records, scaled)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * percentile(latencies, 0.5, censor), "ms"),
        "op_p90_ms": (1e3 * percentile(latencies, 0.9, censor), "ms"),
        "ok_ops_per_s": (ok / censor, "1/s"),
        "failed_op_share": ((n - ok) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", action="store_true",
                   help="run every default CLI report once and compare with golden.json")
    p.add_argument("--update-golden", action="store_true",
                   help="with --golden: rewrite golden.json from this run")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    lw = import_program()
    if args.probe_setup:
        lw.build_round(args.workload, args.seed, 0, lw.Oracles())
        print("ready", flush=True)
        return 0
    if args.golden:
        return golden_mode(lw, args.update_golden)
    if args.workload not in lw.WORKLOADS:
        p.error("--workload must be one of: " + ", ".join(lw.WORKLOADS))

    print("env: " + json.dumps(environment(), sort_keys=True))
    probes = None if args.trace else SetupProbes(args.workload, args.seed)
    oracles = lw.Oracles()
    rounds = lw.rounds_for(args.workload, args.seconds)
    records = run_rounds(lw, args.workload, args.seed, rounds, oracles,
                         probes and probes.between)
    n = len(records)
    failed = sum(1 for r in records if r.error)
    raw_busy, scaled_busy = busy(records, False), busy(records)
    print("workload %s seed %d: %d rounds, %d ops, %.3f s busy (%.3f s at reference speed)"
          % (args.workload, args.seed, rounds, n, raw_busy, scaled_busy))
    print_kinds(records)
    correct = print_failures(records, lw, args.workload)
    print_golden(records)

    if args.trace:
        import lab_trace
        with lab_trace.Tracer() as tracer:
            traced = run_rounds(lw, args.workload, args.seed, rounds, oracles)
        assert [r.kind for r in traced] == [r.kind for r in records]
        correct = correct and print_failures(traced, lw, args.workload)
        overhead = busy(traced) / scaled_busy - 1.0
        print("tracing overhead: %.4f (traced %.3f s / untraced %.3f s at reference speed)"
              % (overhead, busy(traced), scaled_busy))
        metrics = tracer.metrics(overhead, busy(traced, False) / busy(traced))
        for name, m in metrics.items():
            print("  %-60s %14s %s" % (name, m["value"], m["unit"]))
    else:
        setup = probes.median()
        raw = end_to_end(records, setup, scaled=False)
        table = end_to_end(records, setup)
        for name, (value, unit) in table.items():
            extra = "  (raw %.6g)" % raw[name][0]
            if name.startswith("op_p"):
                extra += " (%d samples)" % n
            elif name == "failed_op_share":
                extra = "  (%d failed / %d attempted)" % (failed, n)
            print("  %-16s %12.6g %-5s%s" % (name, value, unit, extra))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()
                   if k != "failed_op_share"}
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def golden_mode(lw, update):
    golden = load_golden()
    fresh = {}
    for name, argv in lw.GOLDEN_ARGV.items():
        code, stdout, _ = lw.run_cli(argv)
        fresh[name] = {"exit_code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        state = "unchanged" if golden.get(name) == fresh[name] else "changed"
        print("golden %-28s %s (exit %s)" % (name, state, code), flush=True)
    if update:
        GOLDEN_FILE.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
