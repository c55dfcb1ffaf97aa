"""Covering-measure estimation: exactness, decay, coverage, budgets."""

import dataclasses
import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from kakeya import measure
from kakeya import ring as ring_module
from kakeya.errors import (
    BadDepth,
    BadIndex,
    BudgetExceeded,
    InvariantViolated,
    NegativeValuation,
    RankDeficient,
    RingMismatch,
)
from kakeya.families import (
    FamilyDescriptor,
    kakeya_line_family,
    nikodym_line_family,
    phi_for_family,
)
from kakeya.measure import (
    CellSet,
    build_set_cells,
    cross_section_cells,
    decay_csv,
    decay_json,
    decay_report,
    direction_coverage,
    input_depth_sufficiency,
    strip_timing,
)
from kakeya.phi import (
    PhiConfig,
    PhiVariant,
    alpha,
    phi_input_depth,
    phi_residue_table,
    required_phi_input_depth,
    residue_table_cells,
    tail_cutoff,
    variant_residue_table,
)
from kakeya.ring import (add, cell_index, element_from_cell,
                         element_from_digits, mul, neg, one, sub, truncate,
                         vector, vector_from_cell, zero)

from conftest import (ALL_RINGS, F2, F3, F5, F7, F11, FROZEN_DECAY_TABLES,
                      LARGE_RINGS, Z2, Z3, Z5, Z7, Z11, check_class_rows)

SAW, DH = PhiVariant.SAWYER, PhiVariant.DH
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _no_table(*args, **kwargs):
    raise AssertionError("phi built before the arguments were checked")


def _plane_family(ring):
    """f(x, y, w) = (x w - y_0, y_1 w - x): one w and two z entries, with
    no ``cells_eval``, so its hit-sets take the element route."""
    def f_eval(x, y, w, depth):
        return vector(sub(mul(x[0], w[0]), y[0]),
                      sub(mul(y[1], w[0]), x[0]))

    def unused(*args):
        raise AssertionError("not needed to build a hit-set")
    return FamilyDescriptor("plane", ring, p_dim=1, q_dim=2, d_dim=1,
                            n_dim=3, eval=f_eval, dfdx=unused, dfdy=unused,
                            dfdy_right_inverse=unused)


def brute_force_cells(fam, variant, D):
    """Independent oracle: enumerate surface points through the public
    element-level API only, collecting (w, z) cell pairs.  f is evaluated
    at every depth-X x cell and w cell, no two x merged; phi(x), which
    does not depend on w, once per x.  ``cell_index`` raises BadDepth for
    a z known to fewer than D digits."""
    ell = fam.ring.ell
    X = max(D, phi_input_depth(variant, D, ell))
    ws = [vector(element_from_cell(fam.ring, wc, D, D))
          for wc in range(ell ** D)]
    pairs = set()
    for xc in range(ell ** X):
        x = vector(element_from_cell(fam.ring, xc, X, X))
        y = phi_for_family(fam, variant, x, D)
        for wc, w in enumerate(ws):
            pairs.add((wc, cell_index(fam.eval(x, y, w, D)[0], D)))
    return pairs


class TestBuildSetCells:
    def test_depth1_matches_hand_enumeration(self):
        # two directions, two w's: x.w runs over {0, w}; phi is 0 at depth 1
        fam = kakeya_line_family(F2)
        cs = build_set_cells(fam, SAW, 1)
        assert {(w, z) for w in range(2) for z in range(2)
                if cs.contains(w, z)} == {(0, 0), (1, 0), (1, 1)}
        assert cs.estimate() == Fraction(3, 4)

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", (F2, Z2, F3, Z3, F5, Z5), ids=str)
    def test_matches_brute_force_oracle(self, ring, variant):
        """Both routes equal the per-(x, w) oracle: the packed one and the
        element one, which evaluates one entry per distinct pair."""
        fam = kakeya_line_family(ring)
        generic = dataclasses.replace(fam, cells_eval=None)
        ell = ring.ell
        # the deepest D whose brute force stays within about 2 s
        D_max = {2: 3, 3: 3 if variant is SAW else 4,
                 5: 3 if variant is SAW else 2}[ell]
        for D in range(1, D_max + 1):
            want = brute_force_cells(fam, variant, D)
            for route in (fam, generic):
                cs = build_set_cells(route, variant, D)
                got = {(w, z) for w in range(ell ** D)
                       for z in range(ell ** D) if cs.contains(w, z)}
                assert got == want

    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", ALL_RINGS + LARGE_RINGS, ids=str)
    def test_fast_path_equals_generic_path(self, make, variant, ring):
        """The packed-residue route and the element route must build the
        identical cell set, cross-sections and coverage report (the two
        implementations check each other)."""
        fam = make(ring)
        generic = dataclasses.replace(fam, cells_eval=None)
        ell = ring.ell
        Ds = (1, 2, 3) if ell in (2, 5) else (1, 2) if ell <= 7 else (1,)
        for D in Ds:
            assert build_set_cells(fam, variant, D) == \
                build_set_cells(generic, variant, D)
            assert direction_coverage(fam, variant, D) == \
                direction_coverage(generic, variant, D)
            # every nonzero w cell for ell <= 3; for ell >= 5 some units, a
            # valuation-1 cell and the top cell
            wcs = (range(1, ell ** D) if ell <= 3 else
                   [wc for wc in (1, ell - 1, ell, ell + 2, ell ** D - 1)
                    if wc < ell ** D])
            for wc in wcs:
                # w carries digits past D; only its depth-D cell may matter
                w = vector(element_from_cell(ring, wc, D, D + 3))
                assert cross_section_cells(fam, variant, w, D) == \
                    cross_section_cells(generic, variant, w, D)

    @pytest.mark.parametrize("ring, D", [
        pytest.param(r, D, id=f"{r}-D{D}")
        for r, D in ((F2, 5), (Z2, 5), (F2, 6), (Z2, 6), (F3, 4), (Z3, 4))])
    def test_fast_path_equals_generic_path_where_the_lift_chains(self, ring,
                                                                 D):
        """Kakeya dh pairs come in full top-digit groups, lifted from depth
        D - 1, whose projected pairs may lift again (two levels at ell = 2,
        D 5, three at D 6, one at ell = 3, D 4): the packed build still
        equals the element route's."""
        fam = kakeya_line_family(ring)
        generic = dataclasses.replace(fam, cells_eval=None)
        assert build_set_cells(fam, DH, D) == build_set_cells(generic, DH, D)

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_packed_pairs_are_the_distinct_x_phi_pairs(self, ring, variant):
        """The packed route takes one pair per phi-table code, repeats
        included: x_res is the code mod ell^D and y_res the table entry,
        both read-only.  As a set they are exactly the (x mod ell^D,
        phi(x) mod ell^D) pairs of the element-level phi over every depth-X
        x cell; only dh at ell = 2, D = 3 (digit 3 of x unread) repeats
        them."""
        fam = kakeya_line_family(ring)
        ell = ring.ell
        D = 3 if ell == 2 else 2
        X = max(D, phi_input_depth(variant, D, ell))
        x_res, y_res = measure._pairs(ring, variant, D, X)
        n = residue_table_cells(variant, D, X, ell)
        assert np.array_equal(x_res, np.arange(n) % ell ** D)
        assert np.array_equal(y_res, variant_residue_table(
            variant, PhiConfig(ring, 1, 1), D, X, cells=n))
        assert not (x_res.flags.writeable or y_res.flags.writeable)
        want = set()
        for xc in range(ell ** X):
            x = vector(element_from_cell(ring, xc, X, X))
            y = phi_for_family(fam, variant, x, D)
            want.add((cell_index(x[0], D), cell_index(y[0], D)))
        assert set(zip(x_res.tolist(), y_res.tolist())) == want
        assert (len(want) < n) == (variant is DH and ell == 2)
        got = measure._family_pairs(fam, variant, D, X)
        assert got[0] is x_res and got[1] is y_res  # the cached entry
        # the element route keeps one entry per distinct pair
        generic = dataclasses.replace(fam, cells_eval=None)
        dirs, ys = measure._family_pairs(generic, variant, D, X)
        assert len(dirs) == len(want)
        assert set(dirs.tolist()) == set(x_res.tolist())
        assert set(zip(dirs.tolist(), ys.tolist())) == want

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", (F2, Z2, F3, Z3), ids=str)
    def test_element_route_evaluates_each_distinct_pair_once(self, ring,
                                                             variant,
                                                             monkeypatch):
        """The element route evaluates phi element-level for every depth-X
        x cell, reading no phi table, but calls ``eval`` once per distinct
        (x mod ell^D, phi(x) mod ell^D) pair and w cell: 64 calls at fq:2
        sawyer D = 3 (8 pairs x 8 w), where one per x cell took 512."""
        fam = kakeya_line_family(ring)
        ell = ring.ell
        D = 3 if ell == 2 else 2
        X = phi_input_depth(variant, D, ell)
        want = build_set_cells(fam, variant, D)
        x_res, y_res = measure._pairs(ring, variant, D, X)
        distinct = set(zip(x_res.tolist(), y_res.tolist()))
        calls = {"eval": 0, "phi": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call
        generic = dataclasses.replace(fam, cells_eval=None,
                                      eval=counted("eval", fam.eval))
        monkeypatch.setattr(measure, "phi_for_family",
                            counted("phi", phi_for_family))
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        assert build_set_cells(generic, variant, D) == want
        assert calls == {"eval": len(distinct) * ell ** D, "phi": ell ** X}
        if ring == F2 and variant is SAW:
            assert (calls["eval"], ell ** X * ell ** D) == (64, 512)

    @pytest.mark.parametrize("ring", (F2, Z2), ids=str)
    def test_family_reading_digit_d_of_x_is_refused(self, ring):
        """The element route evaluates each distinct pair at its depth-D
        cell representatives, whose digits at D and above are unknown.  A
        family whose z-cell needs digit D of x gets a z known to D - 1
        digits back, and both the build and the cross-section raise
        BadDepth rather than answer for one x of the cell.  Here f = x*w -
        y + t^-1 (x - truncate(x, 1)), t the uniformizer: digit D - 1 of z
        reads digit D of x."""
        kakeya = kakeya_line_family(ring)
        t_inv = element_from_digits([1], -1, ring, 64)

        def f_eval(x, y, w, depth):
            shifted = mul(t_inv, sub(x[0], truncate(x[0], 1)))
            return vector(add(kakeya.eval(x, y, w, depth)[0], shifted))
        fam = dataclasses.replace(kakeya, name="digit-D", eval=f_eval,
                                  cells_eval=None)
        D = 3
        with pytest.raises(BadDepth):
            build_set_cells(fam, SAW, D)
        with pytest.raises(BadDepth):
            cross_section_cells(fam, SAW, vector(one(ring, D)), D)

    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("ring", (F2, Z2, F3, Z7), ids=str)
    def test_x_cells_subset_merged_by_dedup(self, make, ring, monkeypatch):
        """x cells at depth X > D repeat their (x mod ell^D, phi(x) mod
        ell^D) pairs: those of one direction class share one pair, and
        every x cell gives ell^(X-D) copies of each, among which the
        nikodym pairs form full groups.  The packed route passes one pair
        per code and the bitmap drops the repeats: each distinct pair
        reaches the build once, in a full group projected one depth down
        (the lift recursion) or in the fold's walk, and the build equals
        the element route's."""
        fam = make(ring)
        generic = dataclasses.replace(fam, cells_eval=None)
        ell = ring.ell
        D = 3 if ell == 2 else 2
        m, top = ell ** D, ell ** (D - 1)
        X = max(D, phi_input_depth(SAW, D, ell))
        assert X > D
        tab = variant_residue_table(SAW, PhiConfig(ring, 1, 1), D, X)
        seen = {}

        def spy(name, depth, real):
            def call(rg, d, a, c, *rest):
                if d == depth:
                    seen[name].append((a, c))
                return real(rg, d, a, c, *rest)
            return call
        monkeypatch.setattr(ring_module, "_bitmap",
                            spy("lift", D - 1, ring_module._bitmap))
        monkeypatch.setattr(ring_module, "_walk",
                            spy("fold", D, ring_module._walk))
        lifted = 0
        for cells in ([1 + k * m for k in range(ell ** (X - D))],
                      list(range(ell ** X))):
            dirs, _ = measure._family_pairs(fam, SAW, D, X, cells)
            assert len(dirs) == len(cells)
            xy = {(xc % m, int(tab[xc])) for xc in cells}
            pairs = xy if make is kakeya_line_family else {p[::-1] for p in xy}
            assert 1 <= len(pairs) < len(cells)
            seen.update(lift=[], fold=[])
            got = build_set_cells(fam, SAW, D, x_cells=cells)
            groups = {}
            for a, c in pairs:
                groups.setdefault((a, c % top), set()).add(c // top)
            full = {g for g, s in groups.items() if len(s) == ell}
            lift = [p for a, c in seen["lift"]
                    for p in zip(a.tolist(), c.tolist())]
            assert sorted(lift) == sorted((a % top, c1) for a, c1 in full)
            folded = {p for p in pairs if (p[0], p[1] % top) not in full}
            (fa, fc), = seen["fold"]
            check_class_rows(ell, fa, fc, folded)
            assert got == build_set_cells(generic, SAW, D, x_cells=cells)
            lifted += len(full)
        assert (lifted > 0) == (make is nikodym_line_family)

    @pytest.mark.parametrize("ring", (F2, Z2), ids=str)
    def test_packed_route_calls_no_unique(self, ring, monkeypatch):
        """The bitmap's key sort is the packed route's only dedupe: with
        ``np.unique`` raising, a dh decay table over D 2..3, whose D = 3
        pairs repeat, gives the frozen rows, and a cross-section and a
        coverage audit at D = 3 give the element route's answers."""
        fam = kakeya_line_family(ring)
        generic = dataclasses.replace(fam, cells_eval=None)
        D = 3
        w = vector(element_from_cell(ring, 3, D, D))
        want = (cross_section_cells(generic, DH, w, D),
                direction_coverage(generic, DH, D))
        tag = str(ring).replace(":", "")
        frozen = (FIXTURES / f"decay_kakeya_dh_{tag}.csv").read_text()

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")
        monkeypatch.setattr(np, "unique", no_unique)
        measure._pairs.cache_clear()
        x_res, y_res = measure._pairs(ring, DH, D, D + 1)
        assert len(set(zip(x_res.tolist(), y_res.tolist()))) < len(x_res)
        got = strip_timing(decay_csv(decay_report(fam, DH, 2, D)), "csv")
        assert got.splitlines() == frozen.splitlines()[:D]
        assert cross_section_cells(fam, DH, w, D) == want[0]
        assert direction_coverage(fam, DH, D) == want[1]

    def test_diagnostic_single_direction(self):
        fam = kakeya_line_family(F2)
        for D in (2, 4):
            cs = build_set_cells(fam, SAW, D, x_cells=[0])
            assert cs.hit_count == 2 ** D
            assert cs.estimate() == Fraction(1, 2 ** D)
            for w in range(2 ** D):
                assert cs.contains(w, 0)

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    def test_repeated_x_cells_charged_once(self, packed):
        """200 copies of one x code evaluate one pair per w, so a pair
        budget of 1000 admits them at F2 sawyer D = 3 (8 w cells)."""
        fam = kakeya_line_family(F2)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        assert build_set_cells(fam, SAW, 3, x_cells=[0] * 200,
                               budget_pairs=1000) == \
            build_set_cells(fam, SAW, 3, x_cells=[0])

    def test_estimate_bounded_by_one(self):
        fam = nikodym_line_family(F2)
        for D in (1, 2, 3, 4):
            assert build_set_cells(fam, SAW, D).estimate() <= 1

    def test_union_bound_over_direction_cells(self):
        """Subadditivity over per-direction slices, equality iff no two
        directions share a (w, z) cell."""
        fam = kakeya_line_family(F2)
        D = 3
        X = max(D, phi_input_depth(SAW, D, 2))
        full = build_set_cells(fam, SAW, D)
        group = 2 ** (X - D)
        slices = []
        for d in range(2 ** D):
            cells = [d + k * 2 ** D for k in range(group)]
            slices.append(build_set_cells(fam, SAW, D, x_cells=cells))
        total = sum(s.estimate() for s in slices)
        assert full.estimate() <= total
        stacked = np.stack([s.bits for s in slices])
        disjoint = (stacked.sum(axis=0) <= 1).all()
        assert (full.estimate() == total) == bool(disjoint)


class TestExactness:
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    def test_input_depth_sufficiency(self, variant):
        fam = kakeya_line_family(F2)
        for D in (1, 2, 3, 4):
            assert input_depth_sufficiency(fam, variant, D)

    def test_deeper_input_same_cells_nikodym(self):
        fam = nikodym_line_family(Z3)
        assert input_depth_sufficiency(fam, SAW, 2)

    @pytest.mark.parametrize("ring, D", [(F2, 11), (Z2, 11), (Z3, 7),
                                         (F3, 5), (F7, 3), (Z7, 3)],
                             ids=lambda v: str(v) if isinstance(v, int)
                             else v.tag + str(v.ell))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    def test_rows_equal_their_z_at_scatter(self, make, variant, ring, D):
        """Every row w of a packed build is ``np.packbits`` of the flags set
        at ``z_at(w)`` of the same pairs: a second route for the folded and
        lifted bits past D 10, where the frozen tables check only totals.
        ell = 2 at D 11 runs the three-digit packed fold and dh's lift
        chains; an fq ell >= 3 ``z_at`` is one Toeplitz product a row, so
        fq:3 stops at D 5."""
        fam = make(ring)
        cs = build_set_cells(fam, variant, D)
        z_at, _ = measure._hits(fam, variant, D,
                                phi_input_depth(variant, D, ring.ell))
        row = np.empty(ring.ell ** D, dtype=bool)
        for w in range(len(row)):
            row[:] = False
            row[z_at(w)] = True
            assert np.array_equal(cs.rows[w], np.packbits(row)), w

    @pytest.mark.parametrize("ring", (F2, Z3), ids=str)
    def test_deeper_route_builds_the_full_table(self, ring, monkeypatch):
        """The re-check at X + 2 reads the full table at its depth, not the
        ell^D table of the default route, so the re-check compares two
        independent routes."""
        sizes = []

        def spy(variant, cfg, D, X, cells=None):
            tab = phi_residue_table(cfg, D, X, cells)
            sizes.append((X, len(tab)))
            return tab
        monkeypatch.setattr(measure, "variant_residue_table", spy)
        ell, D = ring.ell, 3
        X = max(D, phi_input_depth(SAW, D, ell))
        fam = kakeya_line_family(ring)
        assert input_depth_sufficiency(fam, SAW, D)
        assert sizes == [(X + 2, ell ** (X + 2)), (X, ell ** D)]

    def test_recheck_caches_only_the_default_pairs(self):
        """The X + 2 build is read once: it stays out of the ``_pairs``
        cache, which keeps only the default-depth pairs the read-backs
        reuse (ell^(X + 2) = 2^12 pairs at fq:2 sawyer D = 6)."""
        fam = kakeya_line_family(F2)
        D = 6
        X = phi_input_depth(SAW, D, 2)
        assert measure._pairs.cache_info().currsize == 0
        assert input_depth_sufficiency(fam, SAW, D)
        assert measure._pairs.cache_info().currsize == 1
        hits = measure._pairs.cache_info().hits
        measure._pairs(F2, SAW, D, X)
        assert measure._pairs.cache_info().hits == hits + 1

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring, depths", [
        pytest.param(r, depths, id=str(r))
        for rings, depths in (((F2, Z2), range(1, 11)),
                              ((F3, Z3), range(1, 7)), ((F5, Z5), range(1, 4)))
        for r in rings])
    def test_x_cells_index_the_pairs(self, ring, depths, variant):
        """The packed route's ``x_cells`` pairs are the cached pairs at code
        mod len(table): the ell^D sawyer table at its own input depth
        repeats with period ell^D, since phi mod ell^D reads only x mod
        ell^D, and every other table holds all ell^X codes.  At the default
        X and at X + 1 they equal the full table at every code."""
        fam = kakeya_line_family(ring)
        ell = ring.ell
        for D in depths:
            X0 = phi_input_depth(variant, D, ell)
            for X in (X0, X0 + 1):
                codes = range(ell ** X)
                x_res, y_res = measure._family_pairs(fam, variant, D, X,
                                                     codes)
                assert np.array_equal(x_res, np.arange(ell ** X) % ell ** D)
                assert np.array_equal(y_res, variant_residue_table(
                    variant, PhiConfig(ring, 1, 1), D, X))

    def test_x_cells_builds_read_the_cached_pairs(self, monkeypatch):
        """After a default build, an ``x_cells`` build at the default input
        depth builds no phi table: it indexes the cached ell^D pairs, and is
        charged its distinct codes per w row.  At another input depth it
        builds the full table, which stays out of the cache."""
        built = []

        def spy(variant, cfg, D, X, cells=None):
            tab = variant_residue_table(variant, cfg, D, X, cells)
            built.append((X, len(tab)))
            return tab
        monkeypatch.setattr(measure, "variant_residue_table", spy)
        fam = kakeya_line_family(F3)
        D = 2
        X = phi_input_depth(SAW, D, 3)
        full = build_set_cells(fam, SAW, D)
        assert built == [(X, 3 ** D)]
        assert build_set_cells(fam, SAW, D, x_cells=range(3 ** X)) == full
        assert build_set_cells(fam, SAW, D, x_cells=[5, 5, 7]) == \
            build_set_cells(dataclasses.replace(fam, cells_eval=None), SAW,
                            D, x_cells=[7, 5])
        assert built == [(X, 3 ** D)]
        with pytest.raises(BudgetExceeded) as ei:
            build_set_cells(fam, SAW, D, x_cells=[5, 5, 7], budget_pairs=1)
        assert ei.value.pairs_needed == 2 * 3 ** (D - 1)
        build_set_cells(fam, SAW, D, x_cells=[5, 7], input_depth=X + 1)
        assert built[1:] == [(X + 1, 3 ** (X + 1))]
        assert measure._pairs.cache_info().currsize == 1

    def test_deeper_recheck_budget_counts_every_x(self, monkeypatch):
        """The X + 2 re-check reads all ell^(X + 2) x cells, and its
        budget counts them: a pair budget that admits the minimal sawyer
        route (ell^D pairs per w) refuses the re-check before any phi table
        is built."""
        def no_table(*args, **kwargs):
            raise AssertionError("phi table built before the budget check")
        monkeypatch.setattr(measure, "variant_residue_table", no_table)
        fam = kakeya_line_family(F3)
        D = 3
        X = max(D, phi_input_depth(SAW, D, 3))
        # the default route: ell^D pairs x ell^(D-1) w rows, folded
        budget = 3 ** (2 * D - 1)
        with pytest.raises(BudgetExceeded) as ei:
            input_depth_sufficiency(fam, SAW, D, budget_pairs=budget)
        assert ei.value.pairs_needed == 3 ** (X + 2) * 3 ** (D - 1)
        with pytest.raises(BudgetExceeded):
            build_set_cells(fam, SAW, D, input_depth=X, x_cells=range(10),
                            budget_pairs=9 * 3 ** (D - 1))


class TestCrossSection:
    def test_rank_deficiency_propagates(self):
        fam = nikodym_line_family(F2)
        with pytest.raises(RankDeficient):
            cross_section_cells(fam, SAW, vector(zero(F2, 10)), 3)

    def test_w0_equals_negated_phi_range(self):
        """At w = 0 the kakeya cross-section is exactly {-phi(x)}; its cell
        count obeys the landmark-count bound ell^(alpha(K))."""
        fam = kakeya_line_family(F2)
        for D in (4, 6, 8):
            X = max(D, required_phi_input_depth(D, 2))
            cs = cross_section_cells(fam, SAW, vector(zero(F2, X)), D)
            tab = phi_residue_table(PhiConfig(F2), D, X)
            want = set()
            for code in np.unique(tab):
                e = element_from_cell(F2, int(code), D, D)
                want.add(cell_index(neg(e), D))
            got = {z for z in range(2 ** D) if cs.bits[z]}
            assert got == want
            assert cs.hit_count <= 2 ** (alpha(tail_cutoff(D, 2)))

    def test_refinement_in_depth(self):
        fam = kakeya_line_family(F2)
        w = vector(one(F2, 16))
        prev = None
        for D in range(1, 11):
            est = cross_section_cells(fam, SAW, w, D).estimate()
            if prev is not None:
                assert est <= prev
            prev = est

    def test_wrong_w_refused_before_any_table(self, monkeypatch):
        """A zp:2 w on an fq:2 family, or two entries on a d = 1 family,
        has no cross-section: the enumeration would read only a cell code
        and answer for some other w."""
        D = 4
        fam = kakeya_line_family(F2)
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        monkeypatch.setattr(measure, "phi_for_family", _no_table)
        with pytest.raises(RingMismatch):
            cross_section_cells(fam, SAW, vector(one(Z2, D)), D)
        with pytest.raises(ValueError, match="2 entries"):
            cross_section_cells(fam, SAW, vector(one(F2, D), one(F2, D)), D)

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    def test_w_cell_read_before_any_table(self, packed, monkeypatch):
        """A w known to fewer than D digits, or outside R, has no depth-D
        cell: it is refused before any phi table or element-level phi."""
        D = 6
        fam = kakeya_line_family(F2)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        measure._pairs.cache_clear()
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        monkeypatch.setattr(measure, "phi_for_family", _no_table)
        with pytest.raises(BadDepth):
            cross_section_cells(fam, SAW, vector(one(F2, D - 2)), D)
        with pytest.raises(NegativeValuation):
            cross_section_cells(
                fam, SAW, vector(element_from_digits([1], -1, F2, D)), D)

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_phi_of_zero_is_the_probe_zero(self, ring, variant):
        """The rank probe passes the depth-D zero vector as phi(0): both
        variants return exactly that, in value and in depth."""
        fam = kakeya_line_family(ring)
        for D in range(1, 5):
            X = phi_input_depth(variant, D, ring.ell)
            zero_x = vector_from_cell(ring, 0, X, fam.p_dim)
            want = vector_from_cell(ring, 0, D, fam.q_dim)
            got = phi_for_family(fam, variant, zero_x, D)
            assert got == want
            assert [e.depth for e in got] == [e.depth for e in want] == [D]

    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", (F2, Z3), ids=str)
    def test_packed_route_evaluates_no_phi(self, make, variant, ring,
                                           monkeypatch):
        """A packed cross-section reads phi only through the residue table:
        the rank probe and the enumeration evaluate no element-level phi."""
        fam = make(ring)
        D = 3
        w = vector(element_from_cell(ring, 1, D, D))
        want = cross_section_cells(fam, variant, w, D)

        def no_phi(*args, **kwargs):
            raise AssertionError("element-level phi evaluated")
        monkeypatch.setattr(measure, "phi_for_family", no_phi)
        measure._pairs.cache_clear()
        assert cross_section_cells(fam, variant, w, D) == want

    @pytest.mark.parametrize("ring", (F2, Z3), ids=str)
    def test_read_backs_share_one_pair_table(self, ring, monkeypatch):
        """A cross-section at another w, or for the other family, on the
        same (ring, phi, D) reuses the cached pairs and builds no table."""
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            return variant_residue_table(*args, **kwargs)
        monkeypatch.setattr(measure, "variant_residue_table", spy)
        D = 4
        first = vector(one(ring, D))
        cross_section_cells(kakeya_line_family(ring), SAW, first, D)
        assert len(built) == 1
        for make in (kakeya_line_family, nikodym_line_family):
            w = vector(element_from_cell(ring, 3, D, D))
            cross_section_cells(make(ring), SAW, w, D)
            cross_section_cells(make(ring), SAW, first, D)
        assert len(built) == 1

    @pytest.mark.parametrize("ring", (F2, Z2), ids=str)
    def test_element_read_backs_evaluate_phi_afresh(self, ring, monkeypatch):
        """The element route caches no pairs: every element build,
        cross-section and coverage audit at sawyer D = 3 evaluates
        element-level phi at all 2^X = 64 x cells, for either family, and
        reads no phi table (``variant_residue_table`` patched to fail).  So
        it never shares an entry with the packed build before it, which
        makes no ``phi_for_family`` call and is the one ``_pairs`` entry."""
        D = 3
        X = phi_input_depth(SAW, D, 2)
        calls = []

        def counted(*args):
            calls.append(args)
            return phi_for_family(*args)
        monkeypatch.setattr(measure, "phi_for_family", counted)
        build_set_cells(kakeya_line_family(ring), SAW, D)
        assert calls == []
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        runs = 0
        for make in (kakeya_line_family, nikodym_line_family):
            fam = dataclasses.replace(make(ring), cells_eval=None)
            build_set_cells(fam, SAW, D)
            for wc in range(1, 2 ** D):
                w = vector(element_from_cell(ring, wc, D, D + 3))
                cross_section_cells(fam, SAW, w, D)
            direction_coverage(fam, SAW, D)
            runs += 1 + (2 ** D - 1) + 1
            assert len(calls) == runs * 2 ** X
        assert measure._pairs.cache_info().currsize == 1


class TestDecay:
    def test_monotone_and_shape(self):
        fam = kakeya_line_family(F2)
        rep = decay_report(fam, SAW, 2, 7)
        assert len(rep.rows) == 6
        ests = [r.estimate for r in rep.rows]
        assert all(b <= a for a, b in zip(ests, ests[1:]))

    def test_csv_columns_and_decimal(self):
        fam = kakeya_line_family(F2)
        rep = decay_report(fam, SAW, 2, 3)
        lines = decay_csv(rep).strip().splitlines()
        assert lines[0] == ("D,hit_cells,total_cells,estimate_rational,"
                            "estimate_decimal,input_depth,seconds")
        first = lines[1].split(",")
        assert first[0] == "2" and first[3] == "5/8" and first[4] == "0.625000"

    def test_json_mirror(self):
        """The serializer flags exactly the digit-shift rule over the
        carrying ring as experimental."""
        import json
        for ring, variant in itertools.product((F2, Z2), (SAW, DH)):
            rep = decay_report(kakeya_line_family(ring), variant, 2, 3)
            doc = json.loads(decay_json(rep))
            assert doc["experimental"] is (variant is DH and ring == Z2)
        assert doc["rows"][0]["D"] == 2
        assert set(doc["rows"][0]) == {"D", "hit_cells", "total_cells",
                                       "estimate_rational", "estimate_decimal",
                                       "input_depth", "seconds"}

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_rows_equal_independent_builds(self, ring, variant, make, packed):
        """Every row projected from the one D_max build equals
        build_set_cells at its depth.  The element route stops shallower:
        its build at ell = 7, dh, D = 3 takes about 1.4 s."""
        fam = make(ring)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        D_max = {2: 6, 3: 4, 5: 3, 7: 3}[ring.ell] - (0 if packed else 1)
        rep = decay_report(fam, variant, 1, D_max)
        assert [r.depth for r in rep.rows] == list(range(1, D_max + 1))
        for r in rep.rows:
            cs = build_set_cells(fam, variant, r.depth)
            assert (r.hit_cells, r.total_cells, r.estimate, r.input_depth) \
                == (cs.hit_count, cs.total_cells, cs.estimate(),
                    phi_input_depth(variant, r.depth, ring.ell))

    @pytest.mark.parametrize("ring", (F2, Z3, F5, Z5, F7, Z7), ids=str)
    def test_projection_of_a_plane_family(self, ring):
        """One w and two z entries: the bits reshape to three (ell,
        ell^(D-1)) entry pairs, and the projection of each depth equals the
        build one depth below.  Element route (no cells_eval), to D 3, or
        D 2 at ell = 7."""
        fam = _plane_family(ring)
        depths = range(1, 3 if ring.ell == 7 else 4)
        sets = [build_set_cells(fam, SAW, D) for D in depths]
        assert sets[0].total_cells == ring.ell ** 3
        for shallow, deep in zip(sets, sets[1:]):
            assert measure._project(deep) == shallow
        rep = decay_report(fam, SAW, 1, depths[-1])
        assert [r.hit_cells for r in rep.rows] == [s.hit_count for s in sets]

    def test_one_build_per_table(self, monkeypatch):
        """A table builds phi tables only for D_max and its D_min check."""
        built = []

        def spy(variant, cfg, D, X, cells=None):
            built.append(D)
            return variant_residue_table(variant, cfg, D, X, cells)
        monkeypatch.setattr(measure, "variant_residue_table", spy)
        decay_report(kakeya_line_family(F2), DH, 2, 7)
        assert built == [7, 2]
        built.clear()
        decay_report(kakeya_line_family(Z3), SAW, 3, 3)
        assert built == [3]

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    def test_d_min_build_differing_from_projection_raises(self, packed,
                                                          monkeypatch):
        """The independent D_min build is the table's check: one cell it
        does not share with the projection raises InvariantViolated."""
        fam = kakeya_line_family(F2)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        build = measure.build_set_cells

        def off_by_one_cell(fam, variant, D, **kw):
            cs = build(fam, variant, D, **kw)
            if D > 2:
                return cs
            bits = cs.bits.copy()
            bits[-1] = not bits[-1]
            return CellSet(cs.depth, cs.ell, cs.w_dim, cs.z_dim, bits)
        monkeypatch.setattr(measure, "build_set_cells", off_by_one_cell)
        with pytest.raises(InvariantViolated, match="^refinement violated"):
            decay_report(fam, SAW, 2, 4)
        assert len(decay_report(fam, SAW, 2, 2).rows) == 1  # nothing to check

    def test_deterministic_modulo_timing(self):
        fam = kakeya_line_family(F2)
        a = decay_report(fam, SAW, 2, 5)
        b = decay_report(fam, SAW, 2, 5)
        strip = lambda rep: [(r.depth, r.hit_cells, r.total_cells, r.estimate,
                              r.input_depth) for r in rep.rows]
        assert strip(a) == strip(b)


class TestDhPlateauLaw:
    """For kakeya under dh, H(D+1) = ell^2 H(D) unless D + 2 is a power of
    two: digit D of z = x*w - S(x) holds -x_(D+1), which enters no lower
    digit, except at the depths where the digit shift skips it.  The law
    is scoped to kakeya: nikodym breaks it (fq:2 at D 5)."""

    @staticmethod
    def _check_law(ell, hits):
        """The law on each pair of consecutive depths in ``hits`` ({D: hit
        count}) that it covers; there must be one."""
        lawful = [D for D in hits if D + 1 in hits and (D + 2) & (D + 1)]
        assert lawful
        for D in lawful:
            assert hits[D + 1] == ell ** 2 * hits[D], D

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_law_at_small_depths(self, ring):
        fam = kakeya_line_family(ring)
        D_max = {2: 9, 3: 5, 5: 4, 7: 3}[ring.ell]
        self._check_law(ring.ell, {D: build_set_cells(fam, DH, D).hit_count
                                   for D in range(1, D_max + 1)})

    def test_law_on_frozen_fixtures(self):
        hits = {}
        for path in FIXTURES.glob("decay_kakeya_dh_*.csv"):
            tag = path.stem.split("_")[3]  # e.g. fq2
            for row in path.read_text().splitlines()[1:]:
                D, hit = row.split(",")[:2]
                hits.setdefault(tag, {})[int(D)] = int(hit)
        assert sorted(hits) == sorted({
            suffix.split("_")[0] for family, *_, suffix in FROZEN_DECAY_TABLES
            if family == "kakeya"})
        for tag, by_depth in hits.items():
            self._check_law(int(tag[2:]), by_depth)


class TestCoverage:
    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    def test_zero_missing(self, make, variant):
        fam = make(F2)
        for D in (1, 3, 5):
            rep = direction_coverage(fam, variant, D)
            assert rep.missing_count == 0
            assert rep.vertical_excluded
            assert rep.direction_cells == 2 ** D and rep.w_cells == 2 ** D

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    def test_unreached_direction_detected(self, variant, packed, monkeypatch):
        """A direction the enumeration never reaches is found by the audit
        itself: it is reported with every w cell, and nothing else is."""
        fam = kakeya_line_family(F2)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        D, lost = 3, 5
        pairs = measure._family_pairs

        def lossy(*args, **kwargs):
            dirs, ys = pairs(*args, **kwargs)
            assert lost in dirs
            return dirs[dirs != lost], ys[dirs != lost]
        monkeypatch.setattr(measure, "_family_pairs", lossy)
        rep = direction_coverage(fam, variant, D)
        assert rep.missing == tuple((lost, w) for w in range(2 ** D))


class TestBudget:
    def test_cells_overflow_reports_counts(self):
        fam = kakeya_line_family(F2)
        with pytest.raises(BudgetExceeded) as ei:
            build_set_cells(fam, SAW, 5, budget_cells=100)
        assert ei.value.cells_needed == 2 ** 10
        assert ei.value.budget_cells == 100

    def test_pairs_overflow_reports_counts(self):
        # the sawyer pair bound, ell^D distinct pairs, times the ell^(D-1)
        # w rows the fold steps
        fam = kakeya_line_family(F2)
        with pytest.raises(BudgetExceeded) as ei:
            build_set_cells(fam, SAW, 3, budget_pairs=10)
        assert ei.value.pairs_needed == 2 ** 3 * 2 ** 2

    def test_int64_headroom_checked_before_any_array(self):
        """ell^(2D) >= 2^63 would wrap the packed codes; with budgets that
        let it through, every entry point refuses before allocating (an
        ell^(2D) bitmap here would be about 2^67 bytes)."""
        fam = kakeya_line_family(Z7)
        big = dict(budget_cells=2 ** 80, budget_pairs=2 ** 80)
        w = vector(one(Z7, 12))
        for call in (lambda: build_set_cells(fam, SAW, 12, **big),
                     lambda: cross_section_cells(fam, SAW, w, 12, **big),
                     lambda: direction_coverage(fam, SAW, 12, **big),
                     lambda: decay_report(fam, SAW, 11, 12, **big)):
            with pytest.raises(BadDepth, match=r"2\^63"):
                call()
        measure._check_headroom(7, 11)  # 7^22 < 2^63

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("D", (0, -1))
    def test_depth_below_one_refused(self, variant, D, monkeypatch):
        """No depth-D cell exists for D < 1: every entry point raises the
        same BadDepth for both variants, before any table is built."""
        fam = kakeya_line_family(F2)
        w = vector(one(F2, 3))
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        monkeypatch.setattr(measure, "phi_for_family", _no_table)
        for call in (lambda: build_set_cells(fam, variant, D),
                     lambda: direction_coverage(fam, variant, D),
                     lambda: cross_section_cells(fam, variant, w, D),
                     lambda: input_depth_sufficiency(fam, variant, D),
                     lambda: decay_report(fam, variant, D, 3)):
            with pytest.raises(BadDepth, match=f"depth {D} must be >= 1"):
                call()

    def test_decay_report_fails_fast(self, monkeypatch):
        """D_max's budget refuses the table before any phi table is built:
        the counts carried are D_max's."""
        def no_table(*args, **kw):
            raise AssertionError("a phi table was built")
        monkeypatch.setattr(measure, "variant_residue_table", no_table)
        fam = kakeya_line_family(F3)
        with pytest.raises(BudgetExceeded) as info:
            decay_report(fam, SAW, 2, 30)
        assert (info.value.cells_needed, info.value.pairs_needed) == (
            3 ** 60, 3 ** 59)

    def test_packed_build_charged_the_folded_w_rows(self, monkeypatch):
        """fq:2 dh at D = 14: the packed build is charged its 2^15 pairs at
        the 2^13 w rows the fold steps, 2^28, and its 2^28 cells, so it
        fits the default budgets, checked without building anything.
        Charged every w cell (``n_w`` = 2^14), as the element route is, it
        would not."""
        monkeypatch.setattr(measure, "variant_residue_table", _no_table)
        monkeypatch.setattr(measure, "phi_for_family", _no_table)
        fam, D = kakeya_line_family(F2), 14
        budgets = (measure.DEFAULT_CELL_BUDGET, measure.DEFAULT_PAIR_BUDGET)
        assert budgets == (2 ** 28, 2 ** 28)
        assert measure._check_build(fam, DH, D, None, *budgets) \
            == phi_input_depth(DH, D, 2)
        with pytest.raises(BudgetExceeded) as ei:
            measure._check_build(fam, DH, D, None, *budgets, n_w=2 ** 14)
        assert ei.value.pairs_needed == 2 ** 15 * 2 ** 14
        element = dataclasses.replace(fam, cells_eval=None)
        with pytest.raises(BudgetExceeded) as ei:
            measure._check_build(element, DH, D, None, *budgets)
        assert ei.value.pairs_needed == 2 ** phi_input_depth(DH, D, 2) * 2 ** D

    @pytest.mark.parametrize("ring", (F2, Z3, F5), ids=str)
    def test_pairs_charged_per_w_are_the_table_built(self, ring, monkeypatch):
        """Each w row the fold steps, ell^(D-1) of them, is charged exactly
        the entries of the phi table the packed route asks for: sawyer and
        dh at their default input depth and the X + 2 re-check.  (An
        ``x_cells`` build is charged its codes and reads the cached pairs:
        ``test_x_cells_builds_read_the_cached_pairs``.)"""
        sizes = []

        def spy(variant, cfg, D, X, cells=None):
            tab = variant_residue_table(variant, cfg, D, X, cells)
            sizes.append(len(tab))
            return tab
        monkeypatch.setattr(measure, "variant_residue_table", spy)
        fam = kakeya_line_family(ring)
        ell, D = ring.ell, 2
        X = max(D, phi_input_depth(SAW, D, ell))
        assert X > D
        runs = {
            "sawyer": lambda **b: build_set_cells(fam, SAW, D, **b),
            "dh": lambda **b: build_set_cells(fam, DH, D, **b),
            "recheck": lambda **b: input_depth_sufficiency(fam, SAW, D, **b),
        }
        want = {"sawyer": ell ** D, "dh": ell ** (D + 1),
                "recheck": ell ** (X + 2)}
        for name, run in runs.items():
            measure._pairs.cache_clear()
            with pytest.raises(BudgetExceeded) as ei:
                run(budget_pairs=1)
            assert sizes == []
            run()
            assert ei.value.pairs_needed == sizes[0] * ell ** (D - 1), name
            assert sizes[0] == want[name], name
            sizes.clear()

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    def test_x_cells_outside_range_raise(self, packed, monkeypatch):
        """At F2 sawyer D = 3 the x codes are [0, 2^6).  A code past the
        end would index past the phi table (packed) or alias a cell below
        it (element), and -1 would wrap to the last cell: each raises
        BadIndex before any table is built."""
        fam = kakeya_line_family(F2)
        if not packed:
            fam = dataclasses.replace(fam, cells_eval=None)
        D = 3
        assert phi_input_depth(SAW, D, 2) == 6

        def no_table(*args, **kwargs):
            raise AssertionError("phi built before the x cells were checked")
        with monkeypatch.context() as m:
            m.setattr(measure, "variant_residue_table", no_table)
            m.setattr(measure, "phi_for_family", no_table)
            for cells in ([65], [64], [-1], [0, -1], [63, 2 ** 70]):
                with pytest.raises(BadIndex):
                    build_set_cells(fam, SAW, D, x_cells=cells)
        assert build_set_cells(fam, SAW, D, x_cells=[0, 63]).hit_count > 0

    @pytest.mark.parametrize("packed", (True, False), ids=("packed", "element"))
    def test_x_cells_not_integers_raise(self, packed, monkeypatch):
        """x codes are integers.  A float code would be truncated to a
        cell (1.5 and 2.9 would build the set of 1 and 2), and a string
        code would reach the sort as a TypeError: each raises BadIndex
        naming the first bad codes, before any table is built.  NumPy
        integer codes are integers.  Packed route at fq:2 sawyer D 3,
        element route at zp:3 dh D 2."""
        if packed:
            fam, variant, D = kakeya_line_family(F2), SAW, 3
        else:
            fam = dataclasses.replace(kakeya_line_family(Z3), cells_eval=None)
            variant, D = DH, 2
        want = build_set_cells(fam, variant, D, x_cells=[1, 2])
        for cells in ([np.int64(2), np.int64(1)], np.array([1, 2], np.uint64),
                      [np.uint64(1), 2]):
            assert build_set_cells(fam, variant, D, x_cells=cells) == want
        measure._pairs.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(measure, "variant_residue_table", _no_table)
            m.setattr(measure, "phi_for_family", _no_table)
            for cells, bad in (([1.5, 2.9], [1.5, 2.9]), (["1"], ["1"]),
                               ([1, 2.0], [2.0]),
                               ([2, np.float64(1), None, 3.0, 4.5],
                                [np.float64(1), None, 3.0])):
                with pytest.raises(BadIndex) as ei:
                    build_set_cells(fam, variant, D, x_cells=cells)
                assert str(ei.value).startswith(f"x cells {bad}:")


class TestCellSet:
    def test_immutable_bits(self):
        cs = build_set_cells(kakeya_line_family(F2), SAW, 2)
        with pytest.raises(ValueError):
            cs.bits[0] = False

    def test_single_cell_example(self):
        bits = np.zeros(64, dtype=bool)
        bits[17] = True
        cs = CellSet(depth=3, ell=2, w_dim=1, z_dim=1, bits=bits)
        assert cs.estimate() == Fraction(1, 64)
        assert cs.contains(2, 1)

    def test_contains_rejects_cells_outside(self):
        """An out-of-range code would read another row's cell or wrap to
        the last row; it raises instead."""
        cs = build_set_cells(kakeya_line_family(F2), SAW, 3)
        assert cs.contains(0, 0)  # x = 0: z = -phi(0) = 0 at w = 0
        cs.contains(7, 7)  # the last cell is in range
        for w_code, z_code in ((0, 8), (-1, 0), (8, 0), (0, -1)):
            with pytest.raises(BadIndex):
                cs.contains(w_code, z_code)
        section = cross_section_cells(kakeya_line_family(F2), SAW,
                                      vector(one(F2, 3)), 3)
        with pytest.raises(BadIndex):
            section.contains(1, 0)

    def test_all_and_none(self):
        full = CellSet(depth=1, ell=2, w_dim=1, z_dim=1,
                       bits=np.ones(4, dtype=bool))
        empty = CellSet(depth=1, ell=2, w_dim=1, z_dim=1,
                        bits=np.zeros(4, dtype=bool))
        assert full.estimate() == 1 and empty.estimate() == 0


def _or_reduced(cs):
    """The projection of ``cs`` by the definition, on unpacked bools: the
    flat bits reshape to (ell, ell^(D-1)) per entry, or-reduced over the
    top digits."""
    ell, k = cs.ell, cs.w_dim + cs.z_dim
    split = cs.bits.reshape((ell, ell ** (cs.depth - 1)) * k)
    return np.logical_or.reduce(split, axis=tuple(range(0, 2 * k, 2))).ravel()


# Row widths ell^(z_dim D) that are not a multiple of 8: ell^D is odd for
# ell >= 3, and 2 or 4 at ell = 2, D = 1, 2.
PACKED_DEPTHS = [pytest.param(r, D, id=f"{r}-D{D}")
                 for rings, depths in (((F2, Z2), (1, 2)), ((F3, Z3), (1, 2, 3)),
                                       ((F5, Z5), (1, 2)), ((F7, Z7), (1, 2)),
                                       ((F11, Z11), (1,)))
                 for r in rings for D in depths]


class TestPackedRows:
    """Every hit-set is held as packed uint8 rows, eight cells per byte."""

    @staticmethod
    def _check_packed(cs):
        """Layout, zero padding, count, ``contains``, ``__eq__`` and the
        read-only ``bits`` of one cell set against its unpacked bits."""
        n_w = cs.ell ** (cs.w_dim * cs.depth)
        n_z = cs.ell ** (cs.z_dim * cs.depth)
        assert cs.rows.shape == (n_w, -(-n_z // 8))
        assert cs.rows.dtype == np.uint8 and not cs.rows.flags.writeable
        assert not np.unpackbits(cs.rows, axis=1)[:, n_z:].any()
        bits = cs.bits
        assert bits.shape == (n_w * n_z,) and bits.dtype == bool
        assert not bits.flags.writeable
        assert cs.hit_count == np.count_nonzero(bits)
        for w in range(n_w):
            assert cs.contains(w, n_z - 1) == bits[w * n_z + n_z - 1]
        same = CellSet(cs.depth, cs.ell, cs.w_dim, cs.z_dim, bits)
        assert same == cs and np.array_equal(same.rows, cs.rows)
        flipped = bits.copy()
        flipped[-1] = not flipped[-1]
        other = CellSet(cs.depth, cs.ell, cs.w_dim, cs.z_dim, flipped)
        assert other != cs
        assert abs(other.hit_count - cs.hit_count) == 1

    @pytest.mark.parametrize("variant", (SAW, DH), ids=("sawyer", "dh"))
    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("ring, D", PACKED_DEPTHS)
    def test_builds_projections_and_cross_sections(self, ring, D, make,
                                                   variant):
        """Builds, their projections (against a bool or-reduce of the
        bits) and the cross-section at the last w cell."""
        fam = make(ring)
        cs = build_set_cells(fam, variant, D)
        self._check_packed(cs)
        if D > 1:
            low = measure._project(cs)
            self._check_packed(low)
            assert np.array_equal(low.bits, _or_reduced(cs))
            assert low == build_set_cells(fam, variant, D - 1)
        w = vector(element_from_cell(ring, ring.ell ** D - 1, D, D))
        section = cross_section_cells(fam, variant, w, D)
        self._check_packed(section)
        m = ring.ell ** D
        assert np.array_equal(section.bits, cs.bits[(m - 1) * m:])

    @pytest.mark.parametrize("ring, D", [
        pytest.param(r, D, id=f"{r}-D{D}")
        for r, depths in ((F2, (2, 3)), (Z2, (2, 3)), (F3, (2,)), (Z3, (2,)),
                          (F5, (1,)))
        for D in depths])
    def test_element_route_plane_family(self, ring, D):
        """The element route packs its rows too: the plane family's builds
        and projections, two z entries per row (ell^(2D) flags)."""
        cs = build_set_cells(_plane_family(ring), SAW, D)
        self._check_packed(cs)
        if D > 1:
            low = measure._project(cs)
            self._check_packed(low)
            assert np.array_equal(low.bits, _or_reduced(cs))

    @pytest.mark.parametrize("ring, D", [(F2, 2), (F2, 3), (F2, 4), (F2, 5),
                                         (Z3, 3), (F5, 2)], ids=str)
    def test_projection_chunks(self, ring, D, monkeypatch):
        """Unpacked one row at a time or three rows at a time (a partial
        last chunk at fq:2 D 3 and fq:5 D 2), the projection is the same
        or-reduce: ``ring.block_rows`` bounds its blocks by 8 *
        ``ring.WALK_BLOCK_ENTRIES`` bytes.  fq:2 D 4 and D 5, whose
        depth-(D - 1) rows are whole bytes (8 and 16 cells), take the
        whole-byte path, a row at a time or in one block; fq:2 D 3 (4
        cells) is the deepest that unpacks."""
        cs = build_set_cells(nikodym_line_family(ring), SAW, D)
        want = _or_reduced(cs)
        # cap 0 gives chunks of one row; the second cap, 3 * ell^D flags
        # rounded up to whole entries, gives chunks of three rows at ell >= 3
        for cap in (0, -(-3 * ring.ell ** D // 8)):
            monkeypatch.setattr(ring_module, "WALK_BLOCK_ENTRIES", cap)
            low = measure._project(cs)
            self._check_packed(low)
            assert np.array_equal(low.bits, want)

    @pytest.mark.parametrize("ell, w_dim, z_dim, D", [
        (2, 2, 1, 3), (2, 2, 1, 4), (2, 3, 1, 4), (2, 1, 2, 3), (3, 2, 1, 3),
        (3, 2, 2, 2), (5, 2, 1, 2)], ids=str)
    def test_projection_of_random_sets(self, ell, w_dim, z_dim, D,
                                       monkeypatch):
        """Sets with two or three w entries, whose top digits index slabs
        in turn, and with two z entries, at 5% and 40% density: the
        projection is the or-reduce of the bits, in one block or a block
        per value of the first w entry.  (2, 2, 1, 4) and (2, 3, 1, 4)
        take the whole-byte path."""
        rng = np.random.default_rng(ell * 100 + w_dim * 10 + z_dim + D)
        for density in (0.05, 0.4):
            bits = rng.random(ell ** ((w_dim + z_dim) * D)) < density
            cs = CellSet(D, ell, w_dim, z_dim, bits)
            for cap in (ring_module.WALK_BLOCK_ENTRIES, 0):
                monkeypatch.setattr(ring_module, "WALK_BLOCK_ENTRIES", cap)
                low = measure._project(cs)
                self._check_packed(low)
                assert np.array_equal(low.bits, _or_reduced(cs))

    def test_rows_hold_one_bit_per_cell(self):
        """fq:3 sawyer D 4 holds ell^D rows of ceil(ell^D / 8) bytes."""
        cs = build_set_cells(kakeya_line_family(F3), SAW, 4)
        assert cs.rows.nbytes == 81 * 11

    @pytest.mark.parametrize("ring, D", [(F2, 12), (F3, 8)], ids=str)
    def test_projection_peaks_at_its_output_and_a_block(self, ring, D):
        """One projection allocates its output once and otherwise holds one
        block's arrays: at most two blocks of 8 * ``WALK_BLOCK_ENTRIES``
        bytes (a block of w-or-ed packed rows at fq:2 sawyer D 12, whose
        rows are whole bytes; a block's flags and their z-reduced flags at
        fq:3 sawyer D 8).  A projection through a w-reduced copy of the
        set peaks at 1.52 and 3.43 MiB, against outputs of 0.50 and
        0.57 MiB."""
        import tracemalloc
        cs = build_set_cells(kakeya_line_family(ring), SAW, D)
        tracemalloc.start()
        try:
            low = measure._project(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert low == build_set_cells(kakeya_line_family(ring), SAW, D - 1)
        assert peak <= low.rows.nbytes + 2 * 8 * ring_module.WALK_BLOCK_ENTRIES

    def test_decay_table_allocates_no_unpacked_hit_set(self):
        """The fq:2 sawyer table to D 12 peaks below 3/8 of ell^(2D) bytes
        (6 MiB) of traced allocations, its phi table included: a bool
        hit-set at D 12 alone would take 16 MiB."""
        import tracemalloc
        fam = kakeya_line_family(F2)
        tracemalloc.start()
        try:
            decay_report(fam, SAW, 2, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 24 // 8
