"""Command-line front end.

Subcommands: phi-eval, phi-dh-eval, measure, coverage, certify,
diff-example, decompose.  Exit codes: 0 ok, 1 usage or parse error (or a
depth past the int64 code limit), 2 budget exceeded (or insufficient digit
depth, or out of memory, as raised budgets allow), 3 fixture mismatch, 4
an exact invariant violated (decay refinement, six-term identity).

Configuration precedence is flags > config file > defaults; the config file
is plain ``key=value`` lines keyed by long flag names.  Output is
pipeline-stable (no colour, no TTY detection) and file writes are atomic
(temp file + rename).  The environment variable ``KAKEYA_BUDGET_CELLS``
replaces the default cell budget, so a config file or flag still beats it.
The cell budget counts hit-set cells, held eight per byte: the default 2^28
cells bound one hit-set at 32 MB.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    certificate_csv,
    certify_lemma_bounds,
    counterexample_scan_csv,
    decomposition_input_depth,
    term_decomposition,
    vsd_counterexample_scan,
)
from .errors import (
    BudgetExceeded,
    InsufficientDepth,
    InvariantViolated,
    KakeyaError,
)
from .families import BUILTIN_FAMILIES
from .measure import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_PAIR_BUDGET,
    decay_csv,
    decay_json,
    decay_report,
    direction_coverage,
    strip_timing,
)
from .phi import (
    PhiConfig,
    PhiVariant,
    phi_dh_eval,
    phi_eval,
    phi_input_depth,
)
from .ring import (
    ElementVector,
    RingSpec,
    format_element,
    padic_ring,
    parse_element,
    power_series_ring,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FIXTURE = 3
EXIT_INVARIANT = 4


@dataclass
class RunConfig:
    """Validated knobs shared by the experiment subcommands."""

    ring: str = "fq"
    ell: int = 2
    phi: str = "sawyer"
    family: str = "kakeya"
    dmin: int = 2
    dmax: int = 10
    format: str = "csv"
    out: str | None = None
    fixture: str | None = None
    budget_cells: int = DEFAULT_CELL_BUDGET
    budget_pairs: int = DEFAULT_PAIR_BUDGET

    def validate(self) -> "RunConfig":
        problems = []
        if self.ring not in ("zp", "fq"):
            problems.append(f"ring must be zp or fq, got {self.ring!r}")
        try:
            self.ring_spec()
        except ValueError as e:
            problems.append(str(e))
        if self.phi not in ("sawyer", "dh"):
            problems.append(f"phi must be sawyer or dh, got {self.phi!r}")
        if self.family not in BUILTIN_FAMILIES:
            problems.append(f"family must be one of "
                            f"{sorted(BUILTIN_FAMILIES)}, got {self.family!r}")
        if self.dmin < 1 or self.dmin > self.dmax:
            problems.append(f"need 1 <= dmin <= dmax, got [{self.dmin}, {self.dmax}]")
        if self.format not in ("csv", "json"):
            problems.append(f"format must be csv or json, got {self.format!r}")
        if self.budget_cells < 1 or self.budget_pairs < 1:
            problems.append("budgets must be positive")
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))
        return self

    def ring_spec(self) -> RingSpec:
        make = padic_ring if self.ring == "zp" else power_series_ring
        return make(self.ell)

    def variant(self) -> PhiVariant:
        return PhiVariant(self.phi)


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence flags > config file > env budget > defaults."""
    layered = dict(RunConfig().__dict__)
    if "KAKEYA_BUDGET_CELLS" in os.environ:
        layered["budget_cells"] = int(os.environ["KAKEYA_BUDGET_CELLS"])
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key not in layered:
                raise ValueError(f"unknown config key {key!r}")
            layered[key] = int(val) if isinstance(layered[key], int) else val
    for key in layered:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            layered[key] = flag_val
    return RunConfig(**layered).validate()


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _fixture_check(rendered: str, fixture_path: str, fmt: str) -> bool:
    with open(fixture_path, encoding="utf-8") as fh:
        expected = fh.read()
    return strip_timing(rendered, fmt) == strip_timing(expected, fmt)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_inputs(texts, ring: RingSpec, min_depth: int = 1) -> ElementVector:
    """Parse digit strings as exact finite expansions.

    A digit string lists every nonzero digit, so digits beyond it are known
    zeros; the parsed element is lifted to whatever working depth the
    requested evaluation needs."""
    parsed = []
    for t in texts:
        e = parse_element(t, min_depth)
        if e.ring != ring:
            raise ValueError(f"element {t!r} does not match --ring/--ell "
                             f"({ring})")
        parsed.append(e)
    return ElementVector(tuple(parsed))


def cmd_phi_eval(args, cfg: RunConfig) -> int:
    """phi-eval and phi-dh-eval: one phi variant at one x."""
    dh = args.variant is PhiVariant.DH
    if dh and len(args.x) != 1:
        raise ValueError("phi-dh-eval takes one --x: the rule is scalar-only")
    ring = cfg.ring_spec()
    need = phi_input_depth(args.variant, args.depth, ring.ell)
    x = _parse_inputs(args.x, ring, min_depth=need)
    if dh:
        out = [phi_dh_eval(x[0], args.depth)]
    else:
        out = phi_eval(x, PhiConfig(ring, len(args.x), args.q_dim), args.depth)
    _emit("".join(format_element(e) + "\n" for e in out), cfg.out)
    return EXIT_OK


def cmd_measure(args, cfg: RunConfig) -> int:
    fam = BUILTIN_FAMILIES[cfg.family](cfg.ring_spec())
    report = decay_report(fam, cfg.variant(), cfg.dmin, cfg.dmax,
                          budget_cells=cfg.budget_cells,
                          budget_pairs=cfg.budget_pairs)
    rendered = (decay_json if cfg.format == "json" else decay_csv)(report)
    _emit(rendered, cfg.out)
    if cfg.fixture is not None:
        if not _fixture_check(rendered, cfg.fixture, cfg.format):
            sys.stderr.write(f"fixture mismatch against {cfg.fixture}\n")
            return EXIT_FIXTURE
    return EXIT_OK


def cmd_coverage(args, cfg: RunConfig) -> int:
    fam = BUILTIN_FAMILIES[cfg.family](cfg.ring_spec())
    rep = direction_coverage(fam, cfg.variant(), args.depth,
                             budget_cells=cfg.budget_cells,
                             budget_pairs=cfg.budget_pairs)
    lines = [
        f"family:{rep.family}",
        f"phi:{rep.variant}",
        f"depth:{rep.depth}",
        f"direction_cells:{rep.direction_cells}",
        f"w_cells:{rep.w_cells}",
        f"missing:{rep.missing_count}",
        "vertical:excluded-by-design",
    ]
    lines += [f"missing_pair:{d},{w}" for d, w in rep.missing]
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_certify(args, cfg: RunConfig) -> int:
    rep = certify_lemma_bounds(args.A, args.B, args.nmax, cfg.ell)
    _emit(certificate_csv(rep), cfg.out)
    return EXIT_OK


def cmd_diff_example(args, cfg: RunConfig) -> int:
    try:
        alpha_exp = Fraction(args.alpha)
    except ZeroDivisionError:
        raise ValueError(f"--alpha {args.alpha}: zero denominator") from None
    scan = vsd_counterexample_scan(args.p, args.kmax, alpha_exp)
    _emit(counterexample_scan_csv(scan), cfg.out)
    return EXIT_OK


def cmd_decompose(args, cfg: RunConfig) -> int:
    ring = cfg.ring_spec()
    fam = BUILTIN_FAMILIES[cfg.family](ring)
    need = decomposition_input_depth(args.N, args.depth, ring.ell)
    x = _parse_inputs(args.x, ring, min_depth=need)
    w = _parse_inputs(args.w, ring, min_depth=args.depth)
    td = term_decomposition(fam, x, w, args.N, args.depth)
    names = ("I", "II", "III", "IV", "V", "VI")
    lines = []
    for name, term in zip(names, td.terms()):
        for e in term:
            v = "inf" if e.is_zero else str(e.valuation)
            lines.append(f"{name}:{format_element(e)}:v={v}")
    for e in td.f_value:
        lines.append(f"f:{format_element(e)}")
    ok = td.identity_holds()
    lines.append(f"sum_identity:{'ok' if ok else 'VIOLATED'}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--ring", choices=("zp", "fq"), default=None,
                    help="zp: carrying digits; fq: carry-free digits")
    sp.add_argument("--ell", type=int, default=None,
                    help="residue field size (prime)")
    sp.add_argument("--config", default=None,
                    help="key=value config file (flags win)")
    sp.add_argument("--out", default=None, help="output path (atomic write)")


def _add_budget(sp: argparse.ArgumentParser):
    sp.add_argument("--budget-cells", dest="budget_cells", type=int,
                    default=None,
                    help="most hit-set cells stored, eight per byte (default "
                    "2^28, 32 MB, or KAKEYA_BUDGET_CELLS)")
    sp.add_argument("--budget-pairs", dest="budget_pairs", type=int,
                    default=None,
                    help="most (x, y) pair entries evaluated in one build, "
                    "summed over its w rows (default 2^28)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every call."""
    p = argparse.ArgumentParser(
        prog="kakeya",
        description="Exact finite-depth experiments on thin Kakeya-type sets "
                    "over discrete valuation rings.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi-eval", help="evaluate the universal function")
    _add_common(sp)
    sp.add_argument("--x", action="append", required=True,
                    help="input component as <ring>:<ell>:<low>:<d0,d1,...>; "
                         "repeat for higher dimensions")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--q-dim", dest="q_dim", type=int, default=1)
    sp.set_defaults(fn=cmd_phi_eval, variant=PhiVariant.SAWYER)

    sp = sub.add_parser("phi-dh-eval", help="evaluate the digit-shift rule")
    _add_common(sp)
    sp.add_argument("--x", action="append", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=cmd_phi_eval, variant=PhiVariant.DH)

    sp = sub.add_parser("measure", help="covering-measure decay table")
    _add_common(sp)
    _add_budget(sp)
    sp.add_argument("--phi", choices=("sawyer", "dh"), default=None)
    sp.add_argument("--family", choices=sorted(BUILTIN_FAMILIES), default=None)
    sp.add_argument("--dmin", type=int, default=None)
    sp.add_argument("--dmax", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--fixture", default=None,
                    help="compare output against this file (exit 3 on mismatch)")
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("coverage", help="direction-coverage audit")
    _add_common(sp)
    _add_budget(sp)
    sp.add_argument("--phi", choices=("sawyer", "dh"), default=None)
    sp.add_argument("--family", choices=sorted(BUILTIN_FAMILIES), default=None)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=cmd_coverage)

    sp = sub.add_parser("certify", help="integer certificates for the bound lemmas")
    _add_common(sp)
    sp.add_argument("--A", type=int, required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--nmax", type=int, default=10 ** 6)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("diff-example",
                        help="defect scan of the strict-only example function")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--alpha", required=True, help="exponent, e.g. 1/10")
    sp.set_defaults(fn=cmd_diff_example)

    sp = sub.add_parser("decompose", help="six-term decomposition at one point")
    _add_common(sp)
    sp.add_argument("--family", choices=sorted(BUILTIN_FAMILIES), default=None)
    sp.add_argument("--x", action="append", required=True)
    sp.add_argument("--w", action="append", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=cmd_decompose)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.fn(args, _merge_config(args))
    except (BudgetExceeded, MemoryError) as e:
        sys.stderr.write(f"error: {str(e) or 'out of memory'}\n")
        return EXIT_BUDGET
    except InsufficientDepth as e:
        sys.stderr.write(f"error: {e} (required depth {e.required})\n")
        return EXIT_BUDGET
    except InvariantViolated as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVARIANT
    except (ValueError, KakeyaError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
