"""Spans and call counters around the package's public names.

:meth:`Tracer.install` replaces module attributes (the public names and
their imported aliases) with wrappers that record one span per call: name,
start, end, parent span and the run id shared by every span of the run.
Spans stay in memory until :meth:`Tracer.write`.  Self time is a span's
duration minus the time its direct child spans cover.

Only a traced process installs the wrappers; end-to-end numbers come from
untraced passes.  The package's own files are not touched.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import time
from pathlib import Path

import numpy as np

from kakeya import analysis, cli, families, measure, phi, ring

# Modules that import the ring's element operations by name.
_ELEMENT_OP_MODULES = (ring, phi, families, analysis)
# Modules that import the packed residue operations by name.
_RESIDUE_OP_MODULES = (ring, phi, families)


def _mode_suffix(rg) -> str:
    if rg.mode is ring.RingMode.PADIC:
        return "zp"
    return "fq2" if rg.ell == 2 else "fq_general"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pass_no = 0
        # (pass, name, start_ns, end_ns, parent index) per span, in start order
        self.spans: list = []
        # name -> [calls, total_ns, self_ns] for the current pass
        self.stats: dict[str, list[int]] = {}
        # (bound build_set_cells arguments, bitmap bytes, hit cells) per
        # build this pass
        self.builds: list = []
        # (stats, builds, wall seconds) per finished pass
        self.passes: list = []
        self._stack: list[list[int]] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording a span per call.  ``name`` is a string or a
        function of the call's positional arguments."""
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nm = name_of(args) if name_of else name
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                tracer.spans[idx] = (tracer.pass_no, nm, t0, t1, parent)
                st = tracer.stats.get(nm)
                if st is None:
                    st = tracer.stats[nm] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def start_pass(self, pass_no: int):
        self.pass_no = pass_no
        self.stats = {}
        self.builds = []

    def end_pass(self, wall_s: float):
        self.passes.append((self.stats, self.builds, wall_s))

    # -- installing --------------------------------------------------------

    def _patch(self, module, attr: str, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_aliases(self, modules, attr: str, wrapped, original):
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self):
        for op, label in (("add", "ring.element_add"),
                          ("sub", "ring.element_sub"),
                          ("neg", "ring.element_neg"),
                          ("mul", "ring.element_mul")):
            orig = getattr(ring, op)
            wrapped = self.wrap(
                lambda a, label=label: f"{label}.{a[0].ring.mode.value}", orig)
            self._patch_aliases(_ELEMENT_OP_MODULES, op, wrapped, orig)
        for op in ("residue_add", "residue_sub", "residue_neg", "residue_mul",
                   "residue_shift_down"):
            orig = getattr(ring, op)
            wrapped = self.wrap(
                lambda a, op=op: f"ring.{op}.{_mode_suffix(a[0])}", orig)
            self._patch_aliases(_RESIDUE_OP_MODULES, op, wrapped, orig)

        orig = phi.phi_eval
        self._patch_aliases((phi, families, analysis, cli), "phi_eval",
                            self.wrap("phi.phi_eval", orig), orig)
        orig = measure.variant_residue_table
        self._patch(measure, "variant_residue_table",
                    self.wrap("phi.residue_table", orig))
        orig = measure.phi_for_family
        self._patch(measure, "phi_for_family",
                    self.wrap("families.phi_for_family", orig))

        orig = measure.build_set_cells
        self._patch(measure, "build_set_cells", self.wrap(
            "measure.build", orig,
            on_return=lambda a, k, cs, sig=inspect.signature(orig):
                self.builds.append((sig.bind(*a, **k), cs.bits.nbytes,
                                    int(np.count_nonzero(cs.bits))))))
        for attr, label in (("decay_report", "measure.decay_report"),
                            ("direction_coverage",
                             "measure.readback.direction_coverage"),
                            ("cross_section_cells",
                             "measure.readback.cross_section")):
            orig = getattr(measure, attr)
            self._patch_aliases((measure, cli), attr,
                                self.wrap(label, orig), orig)
        orig = analysis.term_decomposition
        self._patch_aliases((analysis, cli), "term_decomposition",
                            self.wrap("analysis.term_decomposition", orig),
                            orig)
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

        for fname, factory in list(families.BUILTIN_FAMILIES.items()):
            self._patch_item(families.BUILTIN_FAMILIES, fname,
                             self._traced_factory(factory))

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _traced_factory(self, factory):
        def make(rg):
            fam = factory(rg)
            cells = fam.cells_eval
            return dataclasses.replace(
                fam, eval=self.wrap("families.eval", fam.eval),
                cells_eval=None if cells is None
                else self.wrap("families.cells_eval", cells))
        return make

    def uninstall(self):
        while self._patches:
            target, key, value = self._patches.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- output ------------------------------------------------------------

    def write(self, path: Path, names: dict):
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, **names}) + "\n")
            for i, (pass_no, nm, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, pass_no, nm, t0, t1]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _sum(stats, prefix: str, field: int) -> int:
    return sum(v[field] for k, v in stats.items()
               if k == prefix or k.startswith(prefix + "."))


def layer_times(stats: dict, wall_s: float) -> dict[str, float]:
    """Time metrics of one pass, in seconds (``.us``: microseconds/call)."""
    def s(prefix, field=1):
        return _sum(stats, prefix, field) / 1e9

    def us_per_call(prefix):
        calls = _sum(stats, prefix, 0)
        return _sum(stats, prefix, 1) / calls / 1e3 if calls else 0.0

    table_s = s("phi.residue_table")
    return {
        "measure.build.self_s": s("measure.build", 2),
        "families.cells_eval.self_s": s("families.cells_eval", 2),
        "ring.residue_mul.s": s("ring.residue_mul"),
        "ring.residue_addsub.s": s("ring.residue_add") + s("ring.residue_sub"),
        "measure.readback.self_s": s("measure.readback", 2),
        "phi.residue_table.s": table_s,
        "phi.residue_table.share": table_s / wall_s,
        "ring.residue_mul.fq_general.s": s("ring.residue_mul.fq_general"),
        "ring.element_mul.fq.us": us_per_call("ring.element_mul.fq"),
        "ring.element_mul.zp.us": us_per_call("ring.element_mul.zp"),
        "ring.element_add.us": us_per_call("ring.element_add"),
        "phi.phi_eval.self_s": s("phi.phi_eval", 2),
        "families.eval.self_s": s("families.eval", 2),
        "analysis.term_decomposition.self_s":
            s("analysis.term_decomposition", 2),
        "cli.self_s": s("cli.main", 2),
    }


def layer_counts(stats: dict) -> dict[str, int]:
    """Call counts of one pass."""
    return {
        "ring.residue_mul.calls": _sum(stats, "ring.residue_mul", 0),
        "phi.residue_table.calls": _sum(stats, "phi.residue_table", 0),
        "ring.element_mul.calls": _sum(stats, "ring.element_mul", 0),
        "ring.element_add.calls": _sum(stats, "ring.element_add", 0),
        "phi.phi_eval.calls": _sum(stats, "phi.phi_eval", 0),
        "families.eval.calls": _sum(stats, "families.eval", 0),
    }


def build_counters(builds: list, distinct_cache: dict) -> tuple[dict, list]:
    """Exact work counters of the hit-set builds of one pass.

    Computed from each build's arguments and result, outside any span:
    x_cells and w_cells are the enumeration sizes the build's arguments
    define, distinct_pairs counts the distinct (x mod ell^D, phi mod ell^D)
    among the x cells, taken from the public residue table.
    """
    rows = []
    for bound, bitmap_bytes, hit_cells in builds:
        bound.apply_defaults()
        a = bound.arguments
        fam, variant, D = a["fam"], a["phi_variant"], a["D"]
        ell = fam.ring.ell
        X = a["input_depth"] if a["input_depth"] is not None else max(
            D, phi.phi_input_depth(variant, D, ell))
        x_cells = (ell ** (fam.p_dim * X) if a["x_cells"] is None
                   else len(a["x_cells"]))
        key = (str(fam.ring), variant, D, X)
        if key not in distinct_cache:
            table = phi.variant_residue_table(
                variant, phi.PhiConfig(fam.ring, 1, 1), D, X)
            mod = ell ** D
            codes = np.arange(ell ** X, dtype=np.int64) % mod
            distinct_cache[key] = int(np.unique(codes * mod + table).size)
        w_cells = ell ** (fam.d_dim * D)
        rows.append({
            "family": fam.name, "ring": str(fam.ring),
            "variant": variant.value, "D": D, "X": X,
            "path": "fast" if fam.cells_eval is not None else "generic",
            "x_cells": x_cells, "w_cells": w_cells,
            "pairs_visited": x_cells * w_cells,
            "distinct_pairs": distinct_cache[key],
            "bitmap_bytes": bitmap_bytes,
            "hit_cells": hit_cells,
        })
    totals = {f"measure.{k}": sum(r[k] for r in rows)
              for k in ("x_cells", "w_cells", "pairs_visited",
                        "distinct_pairs", "bitmap_bytes", "hit_cells")}
    totals["measure.useful_ratio"] = (
        totals["measure.distinct_pairs"] / totals["measure.x_cells"]
        if totals["measure.x_cells"] else 0.0)
    return totals, rows


# The element workload is not in BENCHMARK.json: on a shared 2-core host its
# pure-Python passes spread by about 25% between runs.  Its layers are also
# exercised by the element-level tasks of coverage.
ELEMENT_MOVES = ("wall_s on coverage (its generic hit-set and term_decomposition"
                 " tasks); wall_s, call_p50_us, call_p90_us on element; "
                 "nothing on decay")

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "measure.build.self_s": "wall_s on decay and coverage; nothing on element",
    "families.cells_eval.self_s":
        "wall_s on decay and coverage; nothing on element",
    "ring.residue_mul.s": "wall_s on decay and coverage; nothing on element",
    "ring.residue_addsub.s":
        "wall_s on decay and coverage; nothing on element",
    "ring.residue_mul.calls":
        "wall_s on decay and coverage; nothing on element",
    "measure.x_cells": "wall_s on the sawyer rows of decay, not the dh rows",
    "measure.w_cells": "wall_s on the sawyer rows of decay, not the dh rows",
    "measure.pairs_visited":
        "wall_s on the sawyer rows of decay, not the dh rows",
    "measure.distinct_pairs":
        "wall_s on the sawyer rows of decay, not the dh rows",
    "measure.useful_ratio":
        "wall_s on the sawyer rows of decay, not the dh rows",
    "measure.bitmap_bytes": "peak_rss_mb on decay",
    "measure.hit_cells": "peak_rss_mb on decay",
    "measure.readback.self_s": "wall_s on coverage",
    "phi.residue_table.calls": "wall_s on decay and general_ell",
    "phi.residue_table.s": "wall_s on decay and general_ell",
    "phi.residue_table.share": "wall_s on decay and general_ell",
    "ring.residue_mul.fq_general.s":
        "wall_s on general_ell; nothing on decay (XOR path)",
    "ring.element_mul.calls":
        ELEMENT_MOVES,
    "ring.element_add.calls":
        ELEMENT_MOVES,
    "ring.element_mul.fq.us":
        ELEMENT_MOVES,
    "ring.element_mul.zp.us":
        ELEMENT_MOVES,
    "ring.element_add.us":
        ELEMENT_MOVES,
    "phi.phi_eval.calls":
        ELEMENT_MOVES,
    "phi.phi_eval.self_s":
        ELEMENT_MOVES,
    "families.eval.calls":
        ELEMENT_MOVES,
    "families.eval.self_s":
        ELEMENT_MOVES,
    "analysis.term_decomposition.self_s":
        ELEMENT_MOVES,
    "cli.self_s": "wall_s on decay and general_ell; expected negligible",
    "trace.overhead_s": "none: traced minus untraced wall_s, per workload",
}
