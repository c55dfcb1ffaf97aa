"""Benchmark of the kakeya package: exact answers, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Workloads: decay, general_ell and coverage, gated through BENCHMARK.json,
which says why each exists; element (phi_eval latency on Element
arithmetic) runs the same way but is left out of BENCHMARK.json because its
pure-Python passes spread by about 25% between runs on a shared 2-core host.
One process, no threads, the package's default ``workers=1``.

``--trace 0`` measures end to end: the median of several fresh processes
that import the package and build the inputs (setup_s), one cold pass, then
warm passes for ``--seconds`` (wall_s and cpu_s medians; on element also
the phi_eval per-call latency percentiles call_p50_us and call_p90_us),
and the process's peak resident memory.  ``--trace 1`` runs untraced warm
passes for half the time, then installs the tracer of ``tracing.py`` and runs
traced passes for the other half; it reports the per-layer metrics and the
tracing overhead.

Every answer is checked (``checks.py``).  A task fails if it raises or if
its answer is wrong or differs from the cold pass.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only if no task failed.  A run record goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decay", "general_ell", "coverage", "element")

SETUP_PROBES = 7
MIN_WARM_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kakeya" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'kakeya'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as wl

    if args.setup_probe:
        wl.setup(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    return Run(args, wl).execute()


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed with exit code {rc}")
        times.append(t1 - t0)
    return times


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, wl):
        self.args = args
        self.wl = wl
        self.run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
        self.ref_keys: list = []
        self.differs: list[set[int]] = []   # per checked pass: task indices

    def timed_passes(self, state, seconds: float, min_passes: int,
                     tracer=None) -> list:
        """Warm passes until ``seconds`` would be exceeded (at least
        ``min_passes``).  Answers are compared with the cold pass."""
        results = []
        start = time.perf_counter()
        while True:
            gc.collect()
            if tracer is not None:
                tracer.start_pass(len(results) + 1)
            res = self.wl.run_pass(state)
            if tracer is not None:
                tracer.end_pass(res.wall_s)
            self.compare(state, res)
            results.append(res)
            elapsed = time.perf_counter() - start
            if len(results) >= min_passes and elapsed + res.wall_s > seconds:
                return results

    def compare(self, state, res):
        canon = self.wl.canonical
        self.differs.append({
            i for i, (t, out, ref) in enumerate(
                zip(state.tasks, res.outputs, self.ref_keys))
            if canon(t, out) != ref})
        res.outputs = None

    def execute(self) -> int:
        wl, args = self.wl, self.args
        import checks

        load_start = os.getloadavg()
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        state = wl.setup(args.workload, args.seed)
        gc.collect()
        cold = wl.run_pass(state)
        self.ref_keys = [wl.canonical(t, out)
                         for t, out in zip(state.tasks, cold.outputs)]

        if args.trace:
            metrics, samples, extra = self.traced(state)
        else:
            warm = self.timed_passes(state, args.seconds, MIN_WARM_PASSES)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, samples = self.end_to_end(setup, warm, peak_mb)
            extra = {"passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s}
                                for r in warm],
                     "setup_runs_s": setup}

        failures, refs = checks.check(state, cold.outputs, ROOT,
                                      checks.load_expected())
        checked_fail = {i for i, t in enumerate(state.tasks)
                        if t.name in failures}
        failed = len(checked_fail) + sum(len(d | checked_fail)
                                         for d in self.differs)
        failed += sum(1 for r in refs if r in failures)
        attempted = len(state.tasks) * (1 + len(self.differs)) + len(refs)
        changed = sorted({state.tasks[i].name for d in self.differs for i in d})
        self.report(metrics, samples, attempted, failed, failures, changed,
                    load_start, extra)
        return 0 if failed == 0 else 1

    # -- end to end ----------------------------------------------------------

    def end_to_end(self, setup, warm, peak_mb):
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r.wall_s for r in warm), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in warm), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        samples = {"setup_s": len(setup), "wall_s": len(warm),
                   "cpu_s": len(warm), "peak_rss_mb": 1}
        lat = [ns / 1e3 for r in warm for ns in r.latencies_ns]
        if lat:
            metrics["call_p50_us"] = (statistics.median(lat), "us")
            metrics["call_p90_us"] = (statistics.quantiles(lat, n=10)[8], "us")
            samples["call_p50_us"] = samples["call_p90_us"] = len(lat)
        return metrics, samples

    # -- traced --------------------------------------------------------------

    def traced(self, state):
        import tracing
        wl, half = self.wl, self.args.seconds / 2
        untraced = self.timed_passes(state, half, MIN_TRACED_PASSES)

        tracer = tracing.Tracer(self.run_id)
        tracer.install()
        try:
            traced_state = wl.setup(state.workload, state.seed)
            traced = self.timed_passes(traced_state, half, MIN_TRACED_PASSES,
                                       tracer)
        finally:
            tracer.uninstall()

        per_pass = tracer.passes
        times = [tracing.layer_times(stats, wall)
                 for stats, _, wall in per_pass]
        counts = [tracing.layer_counts(stats) for stats, _, _ in per_pass]
        distinct_cache: dict = {}
        built = [tracing.build_counters(b, distinct_cache)
                 for _, b, _ in per_pass]
        metrics = {}
        for name in times[0]:
            unit = "us" if name.endswith(".us") else (
                "ratio" if name.endswith(".share") else "s")
            metrics[name] = (statistics.median(t[name] for t in times), unit)
        for name, value in {**counts[0], **built[0][0]}.items():
            unit = ("ratio" if name.endswith("_ratio") else
                    "bytes" if name.endswith("_bytes") else "count")
            metrics[name] = (value, unit)
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in untraced), "s")
        samples = {name: len(per_pass) for name in metrics}
        samples["trace.overhead_s"] = len(untraced) + len(traced)

        names = {"workload": state.workload, "seed": state.seed,
                 "fields": ["span", "parent", "pass", "name",
                            "start_ns", "end_ns"]}
        tracer.write(OUT / f"spans-{state.workload}.jsonl.gz", names)
        extra = {
            "counters_repeat": all(c == counts[0] for c in counts)
            and all(b == built[0] for b in built),
            "builds": built[0][1],
            "untraced_passes_s": [r.wall_s for r in untraced],
            "traced_passes_s": [r.wall_s for r in traced],
            "spans": len(tracer.spans),
        }
        return metrics, samples, extra

    # -- output --------------------------------------------------------------

    def report(self, metrics, samples, attempted, failed, failures, changed,
               load_start, extra):
        args = self.args
        import numpy
        import tracing
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        record = {
            "run_id": self.run_id,
            "workload": args.workload,
            "why": why.get(args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "failures": failures,
            "changed_between_passes": changed,
            "layer_moves": tracing.MOVES,
            "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                        for k, (v, u) in metrics.items()},
            **extra,
        }
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")

        for name, (value, unit) in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{args.workload} {name} = {shown} {unit} "
                  f"(n={samples[name]})")
        print(f"{args.workload} error_rate = {failed / attempted:.6g} "
              f"({failed}/{attempted} tasks)")
        for name, reason in sorted(failures.items()):
            print(f"FAILED {name}: {reason}")
        for name in changed:
            print(f"FAILED {name}: answer changed between passes")
        print(f"record: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
