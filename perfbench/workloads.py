"""Benchmark workloads: seeded inputs, fixed task lists, one pass.

A workload is a fixed list of tasks.  Each task is one call through a public
entry point of the package (``kakeya.cli.main``, ``measure.*``,
``phi.phi_eval``, ``analysis.term_decomposition``).  Every call looks the
entry point up on its module at call time, so a traced run that replaces
module attributes sees the same calls.

The package receives only inputs built here with ``element_from_digits``;
digits come from :class:`SplitMix64`, never from the package's own sampler,
so a change to ``kakeya.analysis.DigitSampler`` cannot change a workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from dataclasses import dataclass
from typing import Any, Callable

from kakeya import analysis, cli, families, measure, phi, ring

MASK64 = (1 << 64) - 1

# Inputs of the reference digests in expected.json.  Fixed, so the digests
# hold for every run seed.
REFERENCE_SEED = 0

# Sizes.  Chosen so one warm pass takes about 2 to 4 s on a 2-core box.
DECAY_DMAX = 10
GENERAL_ELL_TABLES = (
    # (ring, ell, phi variant, dmax); dmin is 2 throughout
    ("fq", 3, "dh", 6),
    ("fq", 3, "sawyer", 5),
    ("zp", 3, "sawyer", 6),
    ("zp", 3, "dh", 7),
    ("fq", 5, "dh", 4),
    ("zp", 5, "sawyer", 4),
)
COVERAGE_DEPTH = 9
CROSS_SECTIONS_PER_RING = 16        # per (family, ring): 32 per family
COVERAGE_DECOMP_POINTS_PER_RING = 1
PHI_DEPTH_OUT = 11
PHI_INPUT_DEPTH = 21
PHI_CALLS_PER_RING = 1500
DECOMP_DEPTH = 12
DECOMP_W_DEPTH = 14
DECOMP_POINTS_PER_RING = 4
DECOMP_N = range(1, 6)
GENERIC_DEPTH = 5

RING_NAMES = ("fq:2", "zp:2", "fq:3", "zp:3")


class SplitMix64:
    """Seeded 64-bit generator (SplitMix64), pinned so that inputs depend
    only on the seed."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def digits(self, ell: int, count: int) -> list[int]:
        return [self.next() % ell for _ in range(count)]

    def unit_digits(self, ell: int, count: int) -> list[int]:
        """Digits of a unit: the lowest digit is nonzero."""
        return [1 + self.next() % (ell - 1)] + self.digits(ell, count - 1)


def ring_spec(name: str) -> ring.RingSpec:
    tag, ell = name.split(":")
    make = ring.power_series_ring if tag == "fq" else ring.padic_ring
    return make(int(ell))


def seeded_vector(gen: SplitMix64, rg: ring.RingSpec, depth: int,
                  unit: bool = False) -> ring.ElementVector:
    ds = gen.unit_digits(rg.ell, depth) if unit else gen.digits(rg.ell, depth)
    return ring.vector(ring.element_from_digits(ds, 0, rg, depth))


@dataclass(frozen=True)
class Task:
    """One public call.  ``kind`` groups tasks for checks and latency."""

    name: str
    kind: str
    call: Callable[[], Any]
    args: dict


@dataclass
class State:
    """Everything a workload builds before its first pass."""

    workload: str
    seed: int
    tasks: list[Task]


# ---------------------------------------------------------------------------
# Task lists
# ---------------------------------------------------------------------------

def _measure_task(family: str, variant: str, ring_tag: str, ell: int,
                  dmin: int, dmax: int) -> Task:
    argv = ["measure", "--family", family, "--phi", variant,
            "--ring", ring_tag, "--ell", str(ell),
            "--dmin", str(dmin), "--dmax", str(dmax), "--format", "csv"]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    name = f"measure {family} {variant} {ring_tag}:{ell} D{dmin}..{dmax}"
    return Task(name, "cli", call, {"ring": f"{ring_tag}:{ell}",
                                    "variant": variant, "dmin": dmin,
                                    "dmax": dmax})


def _decay_tasks(seed: int) -> list[Task]:
    return [_measure_task("kakeya", v, r, 2, 2, DECAY_DMAX)
            for v in ("sawyer", "dh") for r in ("fq", "zp")]


def _general_ell_tasks(seed: int) -> list[Task]:
    return [_measure_task("kakeya", v, r, ell, 2, dmax)
            for r, ell, v, dmax in GENERAL_ELL_TABLES]


def _coverage_tasks(seed: int) -> list[Task]:
    gen = SplitMix64(seed)
    sawyer = phi.PhiVariant.SAWYER
    D = COVERAGE_DEPTH
    tasks = []
    for fname in ("kakeya", "nikodym"):
        for rname in ("fq:2", "zp:2"):
            rg = ring_spec(rname)
            fam = families.BUILTIN_FAMILIES[fname](rg)
            args = {"family": fname, "ring": rname, "depth": D}
            tasks.append(Task(
                f"coverage {fname} sawyer {rname} D{D}", "coverage",
                lambda fam=fam: measure.direction_coverage(fam, sawyer, D),
                args))
            for i in range(CROSS_SECTIONS_PER_RING):
                w = seeded_vector(gen, rg, D, unit=True)
                tasks.append(Task(
                    f"cross-section {fname} sawyer {rname} D{D} #{i}",
                    "cross_section",
                    lambda fam=fam, w=w: measure.cross_section_cells(
                        fam, sawyer, w, D),
                    dict(args, w=w)))
    # A small element-level part: the generic hit-set enumerates a second
    # way on Element arithmetic, term_decomposition takes f(x, phi(x), w)
    # apart at a point.  It keeps ring.Element, phi_eval, families.eval and
    # analysis measured on a gated workload, at a few percent of the pass,
    # because the element workload alone is too noisy to gate on.
    tasks += _decomposition_tasks(seed, COVERAGE_DECOMP_POINTS_PER_RING)
    tasks += [generic_task(r) for r in ("fq:2", "zp:2")]
    return tasks


def phi_inputs(seed: int, rname: str, count: int) -> list[ring.ElementVector]:
    """Seeded depth-21 phi_eval inputs for one ring."""
    gen = SplitMix64(seed * 7919 + RING_NAMES.index(rname))
    rg = ring_spec(rname)
    return [seeded_vector(gen, rg, PHI_INPUT_DEPTH) for _ in range(count)]


def decomposition_inputs(seed: int, rname: str, count: int):
    """Seeded (x, w) pairs for term_decomposition on one ring."""
    gen = SplitMix64(seed * 104729 + RING_NAMES.index(rname))
    rg = ring_spec(rname)
    return [(seeded_vector(gen, rg, PHI_INPUT_DEPTH),
             seeded_vector(gen, rg, DECOMP_W_DEPTH)) for _ in range(count)]


def phi_eval_task(rname: str, i: int, x: ring.ElementVector) -> Task:
    cfg = phi.PhiConfig(ring_spec(rname))
    return Task(f"phi_eval {rname} #{i}", "phi_eval",
                lambda: phi.phi_eval(x, cfg, PHI_DEPTH_OUT),
                {"ring": rname, "x": x})


def decomposition_task(rname: str, i: int, x, w, N: int) -> Task:
    fam = families.BUILTIN_FAMILIES["kakeya"](ring_spec(rname))
    return Task(f"term_decomposition {rname} #{i} N{N}", "decomposition",
                lambda: analysis.term_decomposition(fam, x, w, N,
                                                    DECOMP_DEPTH),
                {"ring": rname})


def generic_task(rname: str) -> Task:
    fam = families.BUILTIN_FAMILIES["kakeya"](ring_spec(rname))
    generic = dataclasses.replace(fam, cells_eval=None)
    return Task(f"generic hit-set kakeya sawyer {rname} D{GENERIC_DEPTH}",
                "generic",
                lambda: measure.build_set_cells(
                    generic, phi.PhiVariant.SAWYER, GENERIC_DEPTH),
                {"ring": rname, "family": fam})


def _decomposition_tasks(seed: int, points_per_ring: int) -> list[Task]:
    tasks = []
    for rname in RING_NAMES:
        pts = decomposition_inputs(seed, rname, points_per_ring)
        tasks += [decomposition_task(rname, i, x, w, N)
                  for i, (x, w) in enumerate(pts) for N in DECOMP_N]
    return tasks


def _element_tasks(seed: int) -> list[Task]:
    tasks = []
    for rname in RING_NAMES:
        tasks += [phi_eval_task(rname, i, x) for i, x in
                  enumerate(phi_inputs(seed, rname, PHI_CALLS_PER_RING))]
    tasks += _decomposition_tasks(seed, DECOMP_POINTS_PER_RING)
    tasks += [generic_task(r) for r in ("fq:2", "zp:2")]
    return tasks


WORKLOAD_TASKS = {
    "decay": _decay_tasks,
    "general_ell": _general_ell_tasks,
    "coverage": _coverage_tasks,
    "element": _element_tasks,
}

# Tasks whose per-call latency feeds call_p50_us / call_p90_us, per workload.
LATENCY_KINDS = {"element": {"phi_eval"}}


def setup(workload: str, seed: int) -> State:
    """Build rings, families and seeded inputs for one workload."""
    return State(workload, seed, WORKLOAD_TASKS[workload](seed))


# ---------------------------------------------------------------------------
# Running and canonical answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Raised:
    """Stands in for the answer of a task that raised."""

    error: str


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies_ns: list[int]
    outputs: list[Any]


def run_pass(state: State) -> PassResult:
    """Call every task once, in order.  Only the calls are timed."""
    kinds = LATENCY_KINDS.get(state.workload, set())
    outputs = []
    latencies = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for task in state.tasks:
        s = time.perf_counter_ns()
        try:
            out = task.call()
        except Exception as e:  # a raising task is a failed task
            out = Raised(f"{type(e).__name__}: {e}")
        if task.kind in kinds:
            latencies.append(time.perf_counter_ns() - s)
        outputs.append(out)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return PassResult(wall, cpu, latencies, outputs)


def _element_key(e: ring.Element):
    return (str(e.ring), e.lowest_degree, e.digits, e.depth)


def _vector_key(v: ring.ElementVector):
    return tuple(_element_key(e) for e in v)


def canonical(task: Task, out: Any):
    """A comparable, hashable form of one task's answer."""
    if isinstance(out, Raised):
        return out
    if task.kind == "cli":
        rc, text = out
        return rc, strip_seconds(text)
    if task.kind == "coverage":
        return (out.family, out.variant, out.depth, out.direction_cells,
                out.w_cells, out.missing)
    if task.kind in ("cross_section", "generic"):
        return cellset_key(out)
    if task.kind == "phi_eval":
        return _vector_key(out)
    if task.kind == "decomposition":
        return tuple(_vector_key(t) for t in out.terms()) + (
            _vector_key(out.f_value),)
    raise ValueError(f"unknown task kind {task.kind!r}")


def cellset_key(cs) -> tuple:
    return (cs.depth, cs.ell, cs.w_dim, cs.z_dim, cs.hit_count,
            cs.bits.tobytes())


def strip_seconds(csv_text: str) -> tuple[str, ...]:
    """Decay CSV lines without the wall-time column, the one field that
    differs between runs."""
    lines = csv_text.strip().splitlines()
    if not lines:
        return ()
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h != "seconds"]
    return tuple(",".join(line.split(",")[i] for i in keep) for line in lines)
