"""Finite-depth covering-measure estimation of constructed sets.

Everything here is exhaustive and exact: every depth-D residue cell a set
touches is enumerated, never sampled.  The covering estimate (hit cells /
total cells) is therefore a true upper bound for the measure of the set
inside the unit window R^d x R^(n-d), and refining D can only shrink it.
Decay of the estimate with D is the desk-scale shadow of the measure-zero
property; the decay tables are frozen as regression fixtures, not asserted
against a rate.  A decay table builds one hit-set, at its deepest depth,
and reads each shallower row by projection: a depth-D cell is hit iff one
of its sub-cells is.  A projection allocates its output once and ors the
slabs of the top digits into it a block of rows at a time
(:func:`_project`), so it holds no reduced copy of the set.  One
independent build at the shallowest depth checks the projections.

Enumeration cost is governed by an explicit budget of cells stored and
pairs evaluated, checked by :func:`_check_build` before any array is built;
exceeding it raises :class:`~kakeya.errors.BudgetExceeded` with the exact
counts.

Every enumeration runs in two stages.  Stage 1, :func:`_family_pairs`,
gives the pairs (x mod ell^D, phi(x) mod ell^D) of the enumerated x cells:
the z-cell of f(x, phi(x), w) depends on x only through that pair.  Stage 2
prepares the family's evaluator on them, which returns the per-w row
function ``z_at`` and the whole ``bitmap``, its rows packed eight cells per
byte as :class:`CellSet` holds them: ``cells_eval`` on the built-in line
families (the packed route), its element-level twin :func:`_element_eval`
on every other family (the element route, the independent oracle).  The
hit-set build and the cross-sections run both stages, a cross-section
reading only the row at its w; the direction-coverage audit reads stage 1
only.  Both routes are exact, and the tests require them to produce
identical cell sets, cross-sections and coverage reports.  The packed
route takes one pair per phi-table code, repeats included, cached for the
read-backs (:func:`_pairs`), and an ``x_cells`` build indexes the same
pairs; its bitmap is the one place repeats are dropped
(:func:`~kakeya.ring.residue_mul_sub` gives the build).  The
element route reads no phi table and caches nothing: it keeps one pair
per distinct key and calls ``eval`` on each pair's depth-D cell
representatives, so a family whose z-cell reads deeper digits is refused
with :class:`~kakeya.errors.BadDepth`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ring
from .errors import BadDepth, BadIndex, BudgetExceeded, InvariantViolated
from .families import FamilyDescriptor, phi_for_family
from .phi import (PhiConfig, PhiVariant, phi_input_depth, residue_table_cells,
                  variant_residue_table)
from .ring import ElementVector, RingMode, vector_cell_index, vector_from_cell

DEFAULT_CELL_BUDGET = 2 ** 28
DEFAULT_PAIR_BUDGET = 2 ** 28


@dataclass(frozen=True)
class CellSet:
    """The depth-D residue cells hit by a constructed set.

    The ell^((d + n-d) * D) cells are indexed by w-cell code (major) and
    z-cell code (minor), and held packed, eight cells per byte: ``rows``
    has one uint8 row of ceil(n_z / 8) bytes per w-cell code, n_z =
    ell^((n-d) * D), in ``np.packbits`` order (z code 8k + i is bit 7 - i
    of byte k), with each row's padding bits zero.  ``bits`` is the flat
    boolean array over all cells, unpacked afresh on each read and
    read-only.  Build one from either: ``bits``, or ``rows=``.  Immutable
    after construction.
    """

    depth: int
    ell: int
    w_dim: int
    z_dim: int
    rows: np.ndarray = field(repr=False)

    def __init__(self, depth: int, ell: int, w_dim: int, z_dim: int,
                 bits: np.ndarray | None = None, *,
                 rows: np.ndarray | None = None):
        if rows is None:
            rows = np.packbits(np.asarray(bits, dtype=bool).reshape(
                -1, ell ** (z_dim * depth)), axis=1)
        rows.setflags(write=False)
        vars(self).update(depth=depth, ell=ell, w_dim=w_dim, z_dim=z_dim,
                          rows=rows)

    @property
    def bits(self) -> np.ndarray:
        bits = np.unpackbits(self.rows, axis=1, count=self.ell ** (
            self.z_dim * self.depth)).view(bool).reshape(-1)
        bits.setflags(write=False)
        return bits

    @property
    def total_cells(self) -> int:
        return self.ell ** ((self.w_dim + self.z_dim) * self.depth)

    @property
    def hit_count(self) -> int:
        # popcounts of 8 bytes at a time: 3-6x faster than of single bytes,
        # and the counts take an eighth of the bytes held
        flat = self.rows.reshape(-1)
        k = len(flat) // 8 * 8
        return int(np.bitwise_count(flat[:k].view(np.uint64)).sum()
                   + np.bitwise_count(flat[k:]).sum())

    def estimate(self) -> Fraction:
        return Fraction(self.hit_count, self.total_cells)

    def contains(self, w_code: int, z_code: int) -> bool:
        n_w = self.ell ** (self.w_dim * self.depth)
        n_z = self.ell ** (self.z_dim * self.depth)
        if not (0 <= w_code < n_w and 0 <= z_code < n_z):
            raise BadIndex(f"cell ({w_code}, {z_code}) outside "
                           f"[0, {n_w}) x [0, {n_z})")
        byte, bit = divmod(z_code, 8)
        return bool(self.rows[w_code, byte] >> (7 - bit) & 1)

    def __eq__(self, other):
        if not isinstance(other, CellSet):
            return NotImplemented
        return (self.depth == other.depth and self.ell == other.ell
                and self.w_dim == other.w_dim and self.z_dim == other.z_dim
                and np.array_equal(self.rows, other.rows))


def _check_headroom(ell: int, D: int):
    """Packed int64 codes join two depth-D codes: the pair key, the zp
    product before its reduction and the (w, z) bitmap index."""
    if ell ** (2 * D) >= 2 ** 63:
        raise BadDepth(f"depth {D} at ell = {ell} needs ell^(2D) < 2^63 "
                       "for the packed int64 codes")


def _check_build(fam: FamilyDescriptor, variant: PhiVariant, D: int,
                 x_cells, budget_cells: int, budget_pairs: int, *,
                 X: int | None = None, cells: int | None = None,
                 n_w: int | None = None) -> int:
    """Depth, integer type and range of ``x_cells``, budget and int64
    headroom of one depth-D enumeration, before any array is built.
    Returns its input depth: ``X``, or by default
    :func:`~kakeya.phi.phi_input_depth`.

    A read-back passes ``cells``, what it stores, and ``n_w``, the w cells
    it visits.  By default a hit-set build is charged: every cell, at
    ell^(d D) w rows on the element route and ell^(d (D-1)) on the packed
    route, an upper bound there: its fold steps ell^(D-k) for k >= 1
    folded top digits of w, and the lift fewer
    (:func:`~kakeya.ring.residue_mul_sub`).  Each w row is charged the
    entries evaluated for it: the distinct ``x_cells`` codes when given,
    the :func:`~kakeya.phi.residue_table_cells` entries on the
    packed route, every depth-X x cell on the element route; the element
    route's charges are upper bounds, since it evaluates one entry per
    distinct pair.

    The cell budget counts cells, not bytes: a hit-set holds its cells
    packed, eight per byte (:class:`CellSet`), so one at the default
    ``DEFAULT_CELL_BUDGET`` of 2^28 cells holds at most 32 MB, where an
    unpacked one held 256 MB."""
    if D < 1:
        raise BadDepth(f"depth {D} must be >= 1")
    ell = fam.ring.ell
    if X is None:
        X = phi_input_depth(variant, D, ell)
    n_x = ell ** (fam.p_dim * X)
    if x_cells is not None:
        bad = [c for c in x_cells
               if not isinstance(c, (int, np.integer)) or not 0 <= c < n_x]
        if bad:
            raise BadIndex(f"x cells {bad[:3]}: not integers in [0, {n_x})")
        per_w = len(set(x_cells))
    elif fam.cells_eval is not None:
        per_w = residue_table_cells(variant, D, X, ell)
    else:
        per_w = n_x
    cells = ell ** ((fam.d_dim + fam.out_dim) * D) if cells is None else cells
    if n_w is None:
        n_w = ell ** (fam.d_dim * (D if fam.cells_eval is None else D - 1))
    if cells > budget_cells or per_w * n_w > budget_pairs:
        raise BudgetExceeded(cells, per_w * n_w, budget_cells, budget_pairs)
    _check_headroom(ell, D)
    return X


@functools.lru_cache(maxsize=4)
def _pairs(ring, variant: PhiVariant, D: int, X: int):
    """The packed route's pairs (x mod ell^D, phi(x) mod ell^D) of the
    :func:`~kakeya.phi.residue_table_cells` x codes the phi table covers,
    one per code in code order, as two read-only arrays.  Pairs repeat
    where the table reads x digits that phi mod ell^D skips (dh at
    D = 2^k - 1, or an input depth X above the variant's); the bitmap
    drops repeats, and a row scatter or direction flag ignores them.

    The cache serves the read-backs: every cross-section and coverage audit
    on one (ring, phi, D) after the first, for either family and any w,
    reuses one table, and so does an ``x_cells`` build.  Only the
    variant's own input depth is cached: :func:`_family_pairs` calls
    ``_pairs.__wrapped__`` for any other X, as the X + 2 build of
    :func:`input_depth_sufficiency` does, since no read-back asks for those
    ell^X pairs again.  Both arrays repeat with period n, the table's
    length: n is ell^X, every code, except for sawyer at its own input
    depth, where n = ell^D and phi mod ell^D reads only x mod ell^D.
    Tables are built through the module-level ``variant_residue_table``."""
    n = residue_table_cells(variant, D, X, ring.ell)
    # The table goes first: allocating the x codes before its temporaries
    # took 1.7x the page faults over the D = 2..10 decay tables.
    tab = variant_residue_table(variant, PhiConfig(ring, 1, 1), D, X, cells=n)
    x_res = np.arange(n, dtype=np.int64)
    x_res %= ring.ell ** D
    x_res.setflags(write=False)
    tab.setflags(write=False)
    return x_res, tab


def _family_pairs(fam: FamilyDescriptor, variant: PhiVariant, D: int, X: int,
                  x_cells=None):
    """Stage 1: the codes (x mod ell^D, phi(x) mod ell^D) of every depth-X
    x cell, or of the sorted distinct combined codes ``x_cells``, as two
    arrays.  The packed route reads the module-level
    ``variant_residue_table``: one pair per code, repeats included, through
    the :func:`_pairs` cache at the variant's own input depth; ``x_cells``
    pick theirs at code mod the table's length, its period.  The element
    route reads no table: it calls the module-level ``phi_for_family`` at
    every x cell and keeps one pair of combined cell codes per distinct
    key, in first-seen order.  It is not cached, so every element
    read-back evaluates phi afresh, independently of the table."""
    ell = fam.ring.ell
    if fam.cells_eval is None:
        keys = {}
        for xc in range(ell ** (fam.p_dim * X)) if x_cells is None \
                else x_cells:
            x = vector_from_cell(fam.ring, xc, X, fam.p_dim)
            y = phi_for_family(fam, variant, x, D)
            keys[vector_cell_index(x, D), vector_cell_index(y, D)] = None
        return np.array([*keys], dtype=np.int64).reshape(-1, 2).T
    x_res, tab = (_pairs if X == phi_input_depth(variant, D, ell)
                  else _pairs.__wrapped__)(fam.ring, variant, D, X)
    if x_cells is not None:  # both have period len(tab): see _pairs
        codes = np.asarray(x_cells, dtype=np.int64) % len(tab)
        x_res, tab = x_res[codes], tab[codes]
    return x_res, tab


def _element_eval(fam: FamilyDescriptor, D: int, x_res, y_res):
    """The element-level twin of ``cells_eval``, for any family: ``z_at``
    calls ``eval`` per pair on its depth-D cell representatives, so an
    ``eval`` that needs digits of x or phi(x) at D or above returns a z
    known to fewer than D digits and the cell index raises
    :class:`~kakeya.errors.BadDepth`; ``bitmap`` scatters each w's row
    into one bool row and packs it."""
    rg = fam.ring
    xs = [vector_from_cell(rg, c, D, fam.p_dim) for c in x_res.tolist()]
    ys = [vector_from_cell(rg, c, D, fam.q_dim) for c in y_res.tolist()]

    def z_at(wc: int) -> np.ndarray:
        w = vector_from_cell(rg, wc, D, fam.d_dim)
        return np.asarray([vector_cell_index(fam.eval(x, y, w, D), D)
                           for x, y in zip(xs, ys)], dtype=np.int64)

    def bitmap() -> np.ndarray:
        n_z = rg.ell ** (fam.out_dim * D)
        rows = np.empty((rg.ell ** (fam.d_dim * D), -(-n_z // 8)),
                        dtype=np.uint8)
        row = np.empty(n_z, dtype=bool)
        for w in range(len(rows)):
            row[:] = False
            row[z_at(w)] = True
            rows[w] = np.packbits(row)
        return rows
    return z_at, bitmap


def _hits(fam: FamilyDescriptor, variant: PhiVariant, D: int, X: int,
          x_cells=None):
    """Stage 2 on stage 1: ``(z_at, bitmap)`` of ``fam``'s evaluator on
    its pairs; the caller has passed :func:`_check_build`."""
    x_res, y_res = _family_pairs(fam, variant, D, X, x_cells)
    if fam.cells_eval is None:
        return _element_eval(fam, D, x_res, y_res)
    return fam.cells_eval(fam.ring, D, x_res, y_res)


def build_set_cells(fam: FamilyDescriptor, phi_variant: PhiVariant, D: int, *,
                    budget_cells: int = DEFAULT_CELL_BUDGET,
                    budget_pairs: int = DEFAULT_PAIR_BUDGET,
                    x_cells=None, input_depth: int | None = None) -> CellSet:
    """Exact hit-set of {(w, f(x, phi(x), w))} over the unit window.

    Enumerates every x in R^p at the depth X >= D the phi variant needs
    (:func:`~kakeya.phi.phi_input_depth`) -- deep enough that the z-cell is
    fully determined -- and every w in R^d at depth D.  ``x_cells``
    restricts the x enumeration to the given depth-X combined codes
    (diagnostic use); ``input_depth`` overrides X (used by the input-depth
    sufficiency re-check).  The evaluator on the pairs sets the bitmap
    (see :func:`_hits`).  Repeated ``x_cells`` codes are enumerated and
    charged once; a code that is not an integer (Python or NumPy) or lies
    outside [0, ell^(p X)) raises :class:`~kakeya.errors.BadIndex` and a
    depth D < 1 :class:`~kakeya.errors.BadDepth`, before any table is
    built.
    """
    x_cells = None if x_cells is None else list(x_cells)
    X = _check_build(fam, phi_variant, D, x_cells, budget_cells, budget_pairs,
                     X=input_depth)

    _, bitmap = _hits(fam, phi_variant, D, X, x_cells and sorted(set(x_cells)))
    return CellSet(depth=D, ell=fam.ring.ell, w_dim=fam.d_dim,
                   z_dim=fam.out_dim, rows=bitmap())


def cross_section_cells(fam: FamilyDescriptor, phi_variant: PhiVariant,
                        w: ElementVector, D: int, *,
                        budget_cells: int = DEFAULT_CELL_BUDGET,
                        budget_pairs: int = DEFAULT_PAIR_BUDGET) -> CellSet:
    """Hit z-cells for one fixed w (the cross-section of the built set).

    Only the depth-D cell of ``w`` enters the enumeration, and it is read
    before any table is built: a ``w`` over another ring or with other than
    d entries, one known to fewer than D digits
    (:class:`~kakeya.errors.BadDepth`) or one outside R
    (:class:`~kakeya.errors.NegativeValuation`) is refused first.  Probes
    the descriptor's right inverse at (x, y) = (0, phi(0)) = (0, 0) and
    this w, evaluating no phi; rank deficiency surfaces as the descriptor's
    error.
    """
    fam.check_w(w)
    w_code = vector_cell_index(w, D)
    nd = fam.out_dim
    total = fam.ring.ell ** (nd * D)
    X = _check_build(fam, phi_variant, D, None, budget_cells, budget_pairs,
                     cells=total, n_w=1)

    zero_x = vector_from_cell(fam.ring, 0, X, fam.p_dim)
    # phi(0) = 0: each sawyer summand has p_k(0) = 0; dh shifts 0 to 0
    zero_y = vector_from_cell(fam.ring, 0, D, fam.q_dim)
    fam.dfdy_right_inverse(zero_x, zero_y, w, D)  # rank probe; may raise

    z_at, _ = _hits(fam, phi_variant, D, X)
    bits = np.zeros(total, dtype=bool)
    bits[z_at(w_code)] = True
    return CellSet(depth=D, ell=fam.ring.ell, w_dim=0, z_dim=nd, bits=bits)


# ---------------------------------------------------------------------------
# Decay tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayRow:
    depth: int
    hit_cells: int
    total_cells: int
    estimate: Fraction
    input_depth: int
    seconds: float


@dataclass(frozen=True)
class DecayReport:
    family: str
    variant: str
    ring: str
    rows: tuple[DecayRow, ...]


def decay_report(fam: FamilyDescriptor, phi_variant: PhiVariant,
                 D_min: int, D_max: int, *,
                 budget_cells: int = DEFAULT_CELL_BUDGET,
                 budget_pairs: int = DEFAULT_PAIR_BUDGET) -> DecayReport:
    """The exact hit-sets at every depth in [D_min, D_max] from one build.

    Only D_max is built (:func:`build_set_cells`); each shallower row is
    :func:`_project` of the row below it, exact because a depth-D cell is
    hit iff one of its sub-cells is.  One independent build at D_min must
    equal its projection, else :class:`~kakeya.errors.InvariantViolated`
    is raised.  Both builds' budgets are checked before any work: D_min's
    here, since its build runs last, and D_max's by its own build before
    any table.  A row's ``seconds`` is its build at D_max, its projection
    otherwise, and the D_min row also carries the check."""
    if D_min > D_max:
        raise ValueError(f"bad depth range [{D_min}, {D_max}]")
    _check_build(fam, phi_variant, D_min, None, budget_cells, budget_pairs)
    build = functools.partial(build_set_cells, fam, phi_variant,
                              budget_cells=budget_cells,
                              budget_pairs=budget_pairs)
    rows = []
    t0 = time.perf_counter()
    cs = build(D_max)
    for D in range(D_max, D_min - 1, -1):
        if D < D_max:
            cs = _project(cs)
        if D == D_min < D_max and build(D) != cs:
            raise InvariantViolated(
                f"refinement violated: the depth-{D} build differs from the "
                f"projection of depth {D_max}")
        X = phi_input_depth(phi_variant, D, fam.ring.ell)
        hits, total = cs.hit_count, cs.total_cells
        rows.append(DecayRow(D, hits, total, Fraction(hits, total), X,
                             time.perf_counter() - t0))
        t0 = time.perf_counter()
    return DecayReport(fam.name, phi_variant.value, str(fam.ring),
                       tuple(reversed(rows)))


def _project(cs: CellSet) -> CellSet:
    """The depth-(D - 1) cells under the depth-D ``cs``: a cell is hit iff
    one of its ell^k sub-cells is, k = w_dim + z_dim.  Each entry's
    depth-D code splits into its top digit and the depth-(D - 1) code, so
    the packed rows reshape to (ell, ell^(D-1)) per w entry, and each value
    of w's top digits indexes a slab of rows.  The output is allocated
    once and filled a block of rows at a time, in the blocks that
    :func:`~kakeya.ring.block_rows` gives every pass over packed rows.  A
    block ors its rows of every w slab into one array, then ors that
    array's z slabs into the output.  Where z is one entry whose
    depth-(D - 1) code fills whole bytes (ell = 2, D >= 4), z's slabs are
    the two halves of each row's bytes.  Otherwise the block is unpacked,
    reshaped to (ell, ell^(D-1)) per z entry, or-reduced over z's
    top-digit axes and packed.  So no w-reduced copy of the set exists,
    only one block's arrays.  ``cs`` has w entries, as every built set
    has: a family's w is never empty."""
    ell, w_dim, z_dim = cs.ell, cs.w_dim, cs.z_dim
    low = ell ** (cs.depth - 1)
    n_z = ell ** (z_dim * cs.depth)
    whole = z_dim == 1 and low % 8 == 0
    slabs = cs.rows.reshape((ell, low) * w_dim + (-1,))
    for j in range(1, w_dim):  # the next top digit is axis j of each slab
        slabs = [s for x in slabs for s in np.moveaxis(x, j, 0)]
    out = np.empty((low,) * w_dim + (-(-low ** z_dim // 8),), dtype=np.uint8)
    B = ring.block_rows(low ** (w_dim - 1) * (n_z // 8 if whole else n_z))
    for i in range(0, low, B):
        b, o = slice(i, i + B), out[i:i + B]
        z = slabs[0][b] | slabs[-1][b]
        for t in range(1, len(slabs) - 1):
            z |= slabs[t][b]
        if whole:
            np.bitwise_or(z[..., :low // 8], z[..., low // 8:], out=o)
        else:
            z = np.unpackbits(z, axis=-1, count=n_z).view(bool)
            z = np.logical_or.reduce(z.reshape((-1,) + (ell, low) * z_dim),
                                     axis=tuple(range(1, 2 * z_dim, 2)))
            o[...] = np.packbits(z.reshape(o.shape[:-1] + (-1,)), axis=-1)
        del z  # freed before the next block allocates its own
    return CellSet(cs.depth - 1, ell, w_dim, z_dim,
                   rows=out.reshape(-1, out.shape[-1]))


def _decimal6(x: Fraction) -> str:
    q, r = divmod(round(x * 10 ** 6), 10 ** 6)
    return f"{q}.{r:06d}"


# Wall time is the one nondeterministic decay field; fixtures omit it and
# comparisons ignore it.
TIMING_FIELD = "seconds"
DECAY_CSV_HEADER = ("D,hit_cells,total_cells,estimate_rational,"
                    f"estimate_decimal,input_depth,{TIMING_FIELD}")


def _decay_fields(r: DecayRow) -> dict:
    """One decay row as the ordered fields both output formats carry."""
    return {
        "D": r.depth,
        "hit_cells": r.hit_cells,
        "total_cells": r.total_cells,
        "estimate_rational": f"{r.estimate.numerator}/{r.estimate.denominator}",
        "estimate_decimal": _decimal6(r.estimate),
        "input_depth": r.input_depth,
        TIMING_FIELD: round(r.seconds, 3),
    }


def decay_csv(report: DecayReport) -> str:
    lines = [DECAY_CSV_HEADER]
    for r in report.rows:
        lines.append(",".join(f"{v:.3f}" if k == TIMING_FIELD else str(v)
                              for k, v in _decay_fields(r).items()))
    return "\n".join(lines) + "\n"


def decay_json(report: DecayReport) -> str:
    """The decay table as JSON.  The digit-shift rule over the carrying
    ring is a digit map, not a homomorphism, so its tables are flagged
    ``experimental``."""
    tag = report.ring.partition(":")[0]
    doc = {
        "family": report.family,
        "phi": report.variant,
        "ring": report.ring,
        "experimental": (report.variant == PhiVariant.DH.value
                         and tag == RingMode.PADIC.value),
        "rows": [_decay_fields(r) for r in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def strip_timing(text: str, fmt: str) -> str:
    """A decay CSV or JSON artifact without its timing field.

    The CSV form of a :func:`decay_csv` output is the frozen fixture format;
    the JSON form is canonical (sorted keys), for comparison only."""
    if fmt == "json":
        doc = json.loads(text)
        for row in doc.get("rows", []):
            row.pop(TIMING_FIELD, None)
        return json.dumps(doc, sort_keys=True)
    lines = text.strip().splitlines() or [""]
    keep = [i for i, h in enumerate(lines[0].split(",")) if h != TIMING_FIELD]
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n"
                   for line in lines)


def input_depth_sufficiency(fam: FamilyDescriptor, phi_variant: PhiVariant,
                            D: int, *,
                            budget_cells: int = DEFAULT_CELL_BUDGET,
                            budget_pairs: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Re-build with input depth X + 2 and compare cell sets.

    Exactness of the hit-set means deepening the x enumeration must change
    nothing.  The deeper build, which reads the full ell^(X + 2) table,
    goes first, so its budget is checked before any table is built."""
    if D < 1:
        raise BadDepth(f"depth {D} must be >= 1")
    X = phi_input_depth(phi_variant, D, fam.ring.ell)
    deep = build_set_cells(fam, phi_variant, D, input_depth=X + 2,
                           budget_cells=budget_cells,
                           budget_pairs=budget_pairs)
    return deep == build_set_cells(fam, phi_variant, D,
                                   budget_cells=budget_cells,
                                   budget_pairs=budget_pairs)


# ---------------------------------------------------------------------------
# Direction coverage audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    family: str
    variant: str
    depth: int
    direction_cells: int
    w_cells: int
    missing: tuple[tuple[int, int], ...]
    vertical_excluded: bool = True

    @property
    def missing_count(self) -> int:
        return len(self.missing)


def direction_coverage(fam: FamilyDescriptor, phi_variant: PhiVariant, D: int,
                       *, budget_cells: int = DEFAULT_CELL_BUDGET,
                       budget_pairs: int = DEFAULT_PAIR_BUDGET) -> CoverageReport:
    """Audit that the built set contains a full line for every direction.

    The set is built from the points (w, f(x, phi(x), w)) of every depth-X
    x cell and every w cell, so each x contributes a point in every w
    column, and the direction cell of x is present in all of them.  The
    audit therefore reads only the enumeration's pairs
    (:func:`_family_pairs`) and keeps one flag per depth-D direction cell,
    set when some x reaches it; each unreached direction is missing with
    every w cell, in (direction, w) order, so the ell^(p D) x ell^(d D)
    cells charged bound that list.  The pairs are read once and no w is
    visited, so they are charged once, not once per w cell.
    Every direction cell is x mod ell^D for some enumerated x, so
    ``missing`` is empty unless the enumeration itself is broken (the tests
    simulate that by patching :func:`_family_pairs`).  The failures the audit does
    report are phi errors, from the phi table or the element-level phi:
    ``dh`` on a family with q = 2, for example, raises the digit-shift
    rule's scalar-only ``ValueError``.  The vertical line w = const is not
    a member of the family and is reported as excluded by design, never as
    a failure.
    """
    ell = fam.ring.ell
    n_dirs = ell ** (fam.p_dim * D)
    n_w = ell ** (fam.d_dim * D)
    X = _check_build(fam, phi_variant, D, None, budget_cells, budget_pairs,
                     cells=n_dirs * n_w, n_w=1)
    dirs, _ = _family_pairs(fam, phi_variant, D, X)
    reached = np.zeros(n_dirs, dtype=bool)
    reached[dirs] = True
    missing = tuple((int(d), w) for d in np.flatnonzero(~reached)
                    for w in range(n_w))
    return CoverageReport(fam.name, phi_variant.value, D, n_dirs, n_w,
                          missing)
