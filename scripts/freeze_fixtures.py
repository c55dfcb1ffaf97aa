#!/usr/bin/env python3
"""Regenerate the frozen regression fixtures under tests/fixtures/.

The values written here are oracle outputs (exhaustive enumerations and
direct integer scans), frozen on first run; the test suite replays the same
computations and demands bit-identical results.  Rerun only when a deliberate
behaviour change invalidates them, and commit the diff.

    python scripts/freeze_fixtures.py           # rewrite tests/fixtures/
    python scripts/freeze_fixtures.py --check   # compare, write nothing there

``--check`` regenerates every fixture into a temporary directory, compares
each byte for byte with tests/fixtures/, names every file that differs or
exists on one side only, and exits 1 if there is any such file, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from kakeya.analysis import certify_lemma_bounds, vsd_counterexample_scan
from kakeya.families import BUILTIN_FAMILIES
from kakeya.measure import decay_csv, decay_report, strip_timing
from kakeya.phi import PhiVariant, phi_dh_eval
from kakeya.ring import (
    add,
    element_from_cell,
    format_element,
    padic_ring,
    power_series_ring,
    truncate,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"


# (family, ring, first D, last D, file suffix) of each frozen decay table:
# the one list of them.  tests/test_acceptance.py replays every row but
# kakeya fq2, which its criteria 08 and 09 replay; a new table is one row
# here, frozen by a run of this script.  Each table was frozen by the
# build of its day, and every later build reproduces it:
# - the kakeya ell = 2 tables at D <= 12 by the per-x enumeration, before
#   pair deduplication;
# - D = 13 from the full ell^X sawyer table, before the minimal table and
#   the w walk;
# - D = 14 (the deepest the default cell budget admits) by the one-digit
#   bool fold, before the packed fold of w's top two or three digits;
# - ell = 3 at D <= 7 by the w-block matmul, before the ell-ary Gray walk
#   of fq;
# - ell = 3 at D = 8 (the deepest the default cell budget admits) and
#   ell = 5 by the low-digit-first Gray walk and the % reduction of zp,
#   before the high-digit-first order and the division-free zp step;
# - ell = 11 and 13 before Element sums shared one signed step;
# - the nikodym tables at ell = 2 and 3, whose packed route passes the
#   pairs to the w walk in the other order, by the walk over every w,
#   before the build folded w's top digit;
# - the kakeya ell = 7 and nikodym ell = 5 tables by the build that starts
#   the bitmap once, as the tiled lift or empty, and ors every fold in.
DECAY_TABLES = (
    ("kakeya", power_series_ring(2), 2, 10, "fq2"),
    ("kakeya", padic_ring(2), 2, 10, "zp2"),
    ("kakeya", power_series_ring(2), 11, 12, "fq2_deep"),
    ("kakeya", padic_ring(2), 11, 12, "zp2_deep"),
    ("kakeya", power_series_ring(2), 13, 13, "fq2_d13"),
    ("kakeya", padic_ring(2), 13, 13, "zp2_d13"),
    ("kakeya", power_series_ring(2), 14, 14, "fq2_d14"),
    ("kakeya", padic_ring(2), 14, 14, "zp2_d14"),
    ("kakeya", power_series_ring(3), 2, 7, "fq3"),
    ("kakeya", padic_ring(3), 2, 7, "zp3"),
    ("kakeya", power_series_ring(3), 8, 8, "fq3_d8"),
    ("kakeya", padic_ring(3), 8, 8, "zp3_d8"),
    ("kakeya", power_series_ring(5), 2, 5, "fq5"),
    ("kakeya", padic_ring(5), 2, 5, "zp5"),
    ("kakeya", power_series_ring(7), 1, 4, "fq7"),
    ("kakeya", padic_ring(7), 1, 4, "zp7"),
    ("kakeya", power_series_ring(11), 1, 3, "fq11"),
    ("kakeya", padic_ring(11), 1, 3, "zp11"),
    ("kakeya", power_series_ring(13), 1, 3, "fq13"),
    ("kakeya", padic_ring(13), 1, 3, "zp13"),
    ("nikodym", power_series_ring(2), 2, 10, "fq2"),
    ("nikodym", padic_ring(2), 2, 10, "zp2"),
    ("nikodym", power_series_ring(3), 2, 6, "fq3"),
    ("nikodym", padic_ring(3), 2, 6, "zp3"),
    ("nikodym", power_series_ring(5), 2, 5, "fq5"),
    ("nikodym", padic_ring(5), 2, 5, "zp5"),
)


def freeze_decay(out: pathlib.Path):
    for family, ring, dmin, dmax, suffix in DECAY_TABLES:
        fam = BUILTIN_FAMILIES[family](ring)
        for variant in (PhiVariant.SAWYER, PhiVariant.DH):
            name = f"decay_{family}_{variant.value}_{suffix}.csv"
            t0 = time.perf_counter()
            rep = decay_report(fam, variant, dmin, dmax)
            (out / name).write_text(strip_timing(decay_csv(rep), "csv"))
            print(f"{name}: {time.perf_counter() - t0:.1f}s")


def freeze_lemma_minimal_n(out: pathlib.Path):
    doc = {}
    for ell in (2, 3):
        table = {}
        for A in range(9):
            for B in range(9):
                rep = certify_lemma_bounds(A, B, 10 ** 6, ell)
                table[f"{A},{B}"] = rep.minimal_n
        doc[str(ell)] = table
    path = out / "lemma_minimal_n.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {2 * 81} scans frozen")


def freeze_dh_carry_counterexample(out: pathlib.Path):
    z2 = padic_ring(2)
    for a in range(2 ** 6):
        for b in range(2 ** 6):
            ea = element_from_cell(z2, a, 6, 6)
            eb = element_from_cell(z2, b, 6, 6)
            lhs = phi_dh_eval(truncate(add(ea, eb), 6), 5)
            rhs = truncate(add(phi_dh_eval(ea, 5), phi_dh_eval(eb, 5)), 5)
            if lhs != rhs:
                doc = {
                    "ring": "zp:2",
                    "input_depth": 6,
                    "output_depth": 5,
                    "a": format_element(ea),
                    "b": format_element(eb),
                    "map_of_sum": format_element(lhs),
                    "sum_of_maps": format_element(rhs),
                }
                path = out / "dh_carry_counterexample.json"
                path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{path.name}: first failing pair ({a}, {b})")
                return
    raise SystemExit("no counterexample found; additivity unexpectedly holds")


def freeze_diff_example(out: pathlib.Path):
    scan = vsd_counterexample_scan(2, 10 ** 4, Fraction(1, 10))
    doc = {
        "p": 2,
        "k_max": 10 ** 4,
        "alpha": "1/10",
        "crossover": scan.crossover,
        "final_strict_margin": scan.final_strict_margin,
    }
    path = out / "diff_example.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{path.name}: crossover {scan.crossover}, "
          f"final strict margin {scan.final_strict_margin}")


def freeze(out: pathlib.Path):
    out.mkdir(parents=True, exist_ok=True)
    freeze_decay(out)
    freeze_lemma_minimal_n(out)
    freeze_dh_carry_counterexample(out)
    freeze_diff_example(out)


def check() -> int:
    """Regenerate into a temporary directory and compare with FIXTURES."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp)
        freeze(fresh)
        names = sorted({p.name for p in fresh.iterdir()}
                       | {p.name for p in FIXTURES.iterdir()})
        differ = [n for n in names
                  if not (fresh / n).is_file() or not (FIXTURES / n).is_file()
                  or (fresh / n).read_bytes() != (FIXTURES / n).read_bytes()]
    for n in differ:
        print(f"differs: {n}")
    print(f"{len(names) - len(differ)} of {len(names)} fixtures identical")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/fixtures/ instead of "
                             "rewriting it; exit 1 on any difference")
    if parser.parse_args().check:
        sys.exit(check())
    freeze(FIXTURES)
