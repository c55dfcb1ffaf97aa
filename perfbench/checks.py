"""Correctness gate: every answer of a run is checked before it counts.

Three kinds of check:

* frozen fixtures: the fq:2 decay rows at D = 2..10 must equal
  ``tests/fixtures/decay_kakeya_{sawyer,dh}_fq2.csv`` without ``seconds``
  (read only);
* stored values in ``expected.json``, recorded from the unmodified package
  by ``record_expected.py``: decay rows (hit counts, estimates), coverage
  summaries, generic hit-sets and digests of phi_eval and term_decomposition
  outputs on fixed reference inputs;
* independent routes, which hold for any seed: phi_eval against
  ``variant_residue_table`` at the same cell, generic against fast hit-sets,
  each cross-section against the slice of ``build_set_cells`` at its w,
  ``identity_holds()``, and estimates non-increasing in D.

:func:`check` returns the failed names with a reason; a name is a task of
the workload or one of the reference checks it lists.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from kakeya import families, measure, phi, ring

import workloads as wl

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Largest residue table an independent phi_eval check may build.
MAX_TABLE_CELLS = 1 << 16


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


ROW_FIELDS = ("D", "hit_cells", "total_cells", "estimate_rational",
              "input_depth")


def decay_rows(lines: tuple[str, ...]) -> list[str]:
    """The ROW_FIELDS of each table row, comma-separated."""
    col = {h: i for i, h in enumerate(lines[0].split(","))}
    return [",".join(line.split(",")[col[f]] for f in ROW_FIELDS)
            for line in lines[1:]]


def _digest(keys) -> str:
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def reference_digests() -> dict[str, str]:
    """Digests of phi_eval and term_decomposition on the fixed reference
    inputs, one per ring."""
    out = {}
    for rname in wl.RING_NAMES:
        xs = wl.phi_inputs(wl.REFERENCE_SEED, rname, 16)
        tasks = [wl.phi_eval_task(rname, i, x) for i, x in enumerate(xs)]
        out[f"phi_eval {rname}"] = _digest(
            [wl.canonical(t, t.call()) for t in tasks])
        pts = wl.decomposition_inputs(wl.REFERENCE_SEED, rname, 1)
        tasks = [wl.decomposition_task(rname, 0, x, w, N)
                 for x, w in pts for N in wl.DECOMP_N]
        out[f"term_decomposition {rname}"] = _digest(
            [wl.canonical(t, t.call()) for t in tasks])
    return out


def _bits_sha256(cs) -> str:
    return hashlib.sha256(cs.bits.tobytes()).hexdigest()


def _family(fname: str, rname: str):
    return families.BUILTIN_FAMILIES[fname](wl.ring_spec(rname))


def _has_element_tasks(state: wl.State) -> bool:
    return any(t.kind in ("phi_eval", "decomposition") for t in state.tasks)


class Checker:
    """Checks one pass's raw answers against ``exp``, the workload's part
    of expected.json.  Builds each independent route at most once."""

    def __init__(self, root: Path, exp: dict):
        self.root = root
        self.exp = exp
        self._full = {}
        self._tables = {}

    def full_set(self, fname: str, rname: str, D: int):
        """The fast hit-set a coverage task reads back."""
        key = (fname, rname, D)
        if key not in self._full:
            self._full[key] = measure.build_set_cells(
                _family(fname, rname), phi.PhiVariant.SAWYER, D)
        return self._full[key]

    def cli(self, task, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        lines = wl.strip_seconds(text)
        rows = decay_rows(lines)
        if rows != self.exp.get(task.name):
            return "decay rows differ from expected.json"
        ests = [Fraction(r.split(",")[3]) for r in rows]
        if any(b > a for a, b in zip(ests, ests[1:])):
            return "estimate increases with D"
        if task.args["ring"] == "fq:2":
            fixture = (self.root / "tests" / "fixtures"
                       / f"decay_kakeya_{task.args['variant']}_fq2.csv")
            want = fixture.read_text().strip().splitlines()
            depth = {int(line.split(",")[0]): line for line in lines[1:]}
            if lines[0] != want[0]:
                return f"header differs from {fixture.name}"
            for line in want[1:]:
                if depth.get(int(line.split(",")[0])) != line:
                    return f"row differs from {fixture.name}: {line}"
        return None

    def coverage(self, task, out) -> str | None:
        a = task.args
        got = {"direction_cells": out.direction_cells, "w_cells": out.w_cells,
               "missing": out.missing_count,
               "hit_cells": self.full_set(a["family"], a["ring"],
                                          a["depth"]).hit_count}
        if out.missing_count != 0:
            return f"{out.missing_count} missing pairs"
        if got != self.exp.get(task.name):
            return f"coverage {got} differs from expected.json"
        return None

    def cross_section(self, task, out) -> str | None:
        a = task.args
        D = a["depth"]
        cs = self.full_set(a["family"], a["ring"], D)
        zc = cs.ell ** (cs.z_dim * D)
        wc = ring.cell_index(a["w"][0], D)
        if not np.array_equal(out.bits, cs.bits[wc * zc:(wc + 1) * zc]):
            return "cross-section differs from the hit-set slice"
        return None

    def phi_eval(self, task, out) -> str | None:
        rname = task.args["ring"]
        if rname not in self._tables:
            self._tables[rname] = _phi_check_table(rname)
        D, X, table = self._tables[rname]
        x = task.args["x"][0]
        if out[0].depth < D or (ring.cell_index(out[0], D)
                                != int(table[ring.cell_index(x, X)])):
            return f"phi_eval differs from the residue table at depth {D}"
        return None

    def decomposition(self, task, out) -> str | None:
        return None if out.identity_holds() else "six-term identity violated"

    def generic(self, task, out) -> str | None:
        fast = measure.build_set_cells(task.args["family"],
                                       phi.PhiVariant.SAWYER, wl.GENERIC_DEPTH)
        if wl.cellset_key(out) != wl.cellset_key(fast):
            return "generic hit-set differs from fast"
        want = {"hit_cells": out.hit_count, "bits_sha256": _bits_sha256(out)}
        if want != self.exp.get(task.name):
            return "generic hit-set differs from expected.json"
        return None


def expected_values(state: wl.State, outputs: list) -> dict:
    """The seed-independent answers of one pass, as stored in expected.json."""
    vals = {}
    for t, out in zip(state.tasks, outputs):
        if t.kind == "cli":
            vals[t.name] = decay_rows(wl.strip_seconds(out[1]))
        elif t.kind == "coverage":
            full = measure.build_set_cells(
                _family(t.args["family"], t.args["ring"]),
                phi.PhiVariant.SAWYER, t.args["depth"])
            vals[t.name] = {"direction_cells": out.direction_cells,
                            "w_cells": out.w_cells,
                            "missing": out.missing_count,
                            "hit_cells": full.hit_count}
        elif t.kind == "generic":
            vals[t.name] = {"hit_cells": out.hit_count,
                            "bits_sha256": _bits_sha256(out)}
    if _has_element_tasks(state):
        vals.update(reference_digests())
    return vals


def check(state: wl.State, outputs: list, root: Path,
          expected: dict) -> tuple[dict[str, str], list[str]]:
    """Check one pass's raw answers.

    Returns (failures, reference_checks): failures maps a task or reference
    check name to the reason it failed; reference_checks names the checks
    that are not tasks of the pass, so they can be counted as attempted.
    """
    exp = expected[state.workload]
    checker = Checker(root, exp)
    failures: dict[str, str] = {}
    for t, out in zip(state.tasks, outputs):
        if isinstance(out, wl.Raised):
            reason = f"raised {out.error}"
        else:
            reason = getattr(checker, t.kind)(t, out)
        if reason:
            failures[t.name] = reason
    refs: list[str] = []
    if _has_element_tasks(state):
        for name, digest in reference_digests().items():
            refs.append(f"reference {name}")
            if exp.get(name) != digest:
                failures[refs[-1]] = "digest differs from expected.json"
    return failures, refs


def _phi_check_table(rname: str):
    """(D_chk, X, table): phi at depth D_chk on every depth-X cell, for the
    deepest D_chk <= PHI_DEPTH_OUT whose table stays small."""
    rg = wl.ring_spec(rname)
    for D in range(wl.PHI_DEPTH_OUT, 0, -1):
        X = phi.required_phi_input_depth(D, rg.ell)
        if rg.ell ** X <= MAX_TABLE_CELLS:
            table = phi.variant_residue_table(
                phi.PhiVariant.SAWYER, phi.PhiConfig(rg), D, X)
            return D, X, table
    raise ValueError(f"no residue table fits for {rname}")
