"""Acceptance suite: one test per criterion, at the stated scale.

Every check is exact (integer/rational comparisons; no tolerances).  Frozen
expected values live under tests/fixtures/ and were produced by the same
oracles on their first run (scripts/freeze_fixtures.py); reruns must match
bit for bit.  Each test prints one PASS line; a failure shows up as the
test failing, so the printed table plus the pytest summary is the
acceptance report.
"""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from kakeya.analysis import (
    DigitSampler,
    certify_lemma_bounds,
    term_decomposition,
    vsd_counterexample_scan,
)
from kakeya.families import (
    BUILTIN_FAMILIES,
    kakeya_line_family,
    nikodym_line_family,
)
from kakeya.measure import (
    build_set_cells,
    decay_csv,
    decay_report,
    direction_coverage,
    input_depth_sufficiency,
    strip_timing,
)
from kakeya.phi import (
    MatrixFn,
    PhiConfig,
    PhiVariant,
    alpha,
    block_offset,
    continuity_modulus,
    decode_matrix_fn,
    phi_dh_eval,
    phi_eval,
    required_phi_input_depth,
    sk_index_of,
    sk_size,
)
from kakeya.ring import (
    ElementVector,
    add,
    cell_index,
    element_from_cell,
    element_from_digits,
    mul,
    neg,
    parse_element,
    sub,
    truncate,
    vector,
    zero,
)

from conftest import F2, F3, FROZEN_DECAY_TABLES, Z2, Z3

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(n, name):
    print(f"\n[acceptance] criterion {n:02d} ({name}): PASS")


def test_criterion_01_arithmetic_oracle_equivalence():
    """Digit arithmetic == big-integer / polynomial arithmetic, exhaustively
    over every pair of depth-6 residue representatives."""
    W = 6
    m = 2 ** W
    # carrying mode vs integers mod 2^6
    for a in range(m):
        ea = element_from_cell(Z2, a, W, W)
        for b in range(m):
            eb = element_from_cell(Z2, b, W, W)
            assert cell_index(add(ea, eb), W) == (a + b) % m
            assert cell_index(mul(ea, eb), W) == (a * b) % m
    # carry-free mode vs polynomial arithmetic mod t^6 (independent conv)
    for a in range(m):
        ea = element_from_cell(F2, a, W, W)
        da = [(a >> i) & 1 for i in range(W)]
        for b in range(m):
            eb = element_from_cell(F2, b, W, W)
            db = [(b >> i) & 1 for i in range(W)]
            s = sum(((da[i] ^ db[i]) << i) for i in range(W))
            conv = [sum(da[i] * db[j - i] for i in range(j + 1)) % 2
                    for j in range(W)]
            p = sum(c << j for j, c in enumerate(conv))
            assert cell_index(add(ea, eb), W) == s
            assert cell_index(mul(ea, eb), W) == p
    # spot-check the extension to the field: scaled significand oracle
    smp = DigitSampler(17)
    for _ in range(500):
        va, vb = -smp.digit(4), -smp.digit(4)
        ea = smp.element(Z2, 8 + va, valuation=va)
        eb = smp.element(Z2, 8 + vb, valuation=vb)
        prod = mul(ea, eb)
        sig_oracle = ea.significand() * eb.significand()
        span = prod.depth - (va + vb)
        assert prod.significand() * 2 ** (prod.lowest_degree - va - vb) == \
            sig_oracle % 2 ** span
    report(1, "arithmetic oracle equivalence")


def test_criterion_02_ultrametric_and_valuation_laws():
    """norm(a+b) <= max norms with equality when they differ, and
    v(ab) = v(a) + v(b), exhaustively at ell in {2,3}, depth 5."""
    for ring in (Z2, F2, Z3, F3):
        n = ring.ell ** 5
        cells = [element_from_cell(ring, c, 5, 5) for c in range(n)]
        for ea in cells:
            na = ea.norm()
            for eb in cells:
                nb = eb.norm()
                s = add(ea, eb)
                if not s.is_zero:
                    assert s.norm() <= max(na, nb)
                if na != nb:
                    assert s.norm() == max(na, nb)
                p = mul(ea, eb)
                if ea.is_zero or eb.is_zero:
                    assert p.is_zero
                else:
                    assert p.valuation == ea.valuation + eb.valuation
    # same laws off the unit ball (shifted digit window)
    for ring in (Z2, F2):
        cells = [element_from_digits(
            [(c >> i) & 1 for i in range(5)], -2, ring, 3) for c in range(32)]
        for ea in cells:
            for eb in cells:
                s = add(ea, eb)
                if not s.is_zero:
                    assert s.norm() <= max(ea.norm(), eb.norm())
                if ea.norm() != eb.norm():
                    assert s.norm() == max(ea.norm(), eb.norm())
                if not (ea.is_zero or eb.is_zero):
                    assert mul(ea, eb).valuation == ea.valuation + eb.valuation
    report(2, "ultrametric and valuation laws")


def test_criterion_03_phi_well_definedness():
    """Prefix consistency over all 2^15 depth-15 inputs at D = 8; phi(0) = 0;
    range inside the unit ball."""
    X = 15
    assert required_phi_input_depth(11, 2) == X
    for ring in (F2, Z2):
        cfg = PhiConfig(ring)
        assert phi_eval(vector(zero(ring, X)), cfg, 8)[0].is_zero
        for code in range(2 ** X):
            x = ElementVector((element_from_cell(ring, code, X, X),))
            lo = phi_eval(x, cfg, 8)[0]
            hi = phi_eval(x, cfg, 11)[0]
            assert truncate(hi, 8) == lo
            assert lo.is_zero or lo.valuation >= 0
    report(3, "phi well-definedness (prefix consistency, range in R)")


def test_criterion_04_continuity_modulus_contract():
    """v(x - y) >= modulus(A) forces v(phi(x) - phi(y)) >= A, exhaustively
    for A = 1..4."""
    for ring in (F2, Z2):
        cfg = PhiConfig(ring)
        for A in range(1, 5):
            mod = continuity_modulus(A, cfg)
            depth = required_phi_input_depth(A, 2) + mod
            outs = [phi_eval(ElementVector(
                (element_from_cell(ring, c, depth, depth),)), cfg, A)[0]
                for c in range(2 ** depth)]
            group = 2 ** mod
            for c in range(2 ** depth):
                base = c % group
                for tail in range(2 ** (depth - mod)):
                    other = base + tail * group
                    d = sub(outs[c], outs[other])
                    assert d.is_zero or d.valuation >= A
    report(4, "continuity modulus contract")


def test_criterion_05_enumeration_recurrence():
    """All 16 first-block tables recur in the second block (nesting)."""
    cfg = PhiConfig(F2)
    m2 = sk_size(2, 2)
    for inner1 in range(16):
        r1 = MatrixFn(cfg, 1, inner1)
        inner2 = 0
        for c in range(4):
            inner2 += sk_index_of(r1.table_value(0, 0, c % 2), 2) * \
                m2 ** (4 - 1 - c)
        r2 = decode_matrix_fn(block_offset(2, cfg) + inner2, cfg)
        assert r2.k_block == 2
        for c in range(4):
            assert r2.table_value(0, 0, c) == r1.table_value(0, 0, c % 2)
    report(5, "enumeration recurrence across blocks")


def test_criterion_06_decomposition_identity():
    """Sum of the six terms equals f(x, phi(x), w) exactly at depth 12 for
    200 deterministic samples and N <= 5; bilinearity kills terms I-III."""
    for ring in (F2, Z2):
        fam = kakeya_line_family(ring)
        smp = DigitSampler(1)
        for _ in range(200):
            x = vector(smp.r_element(ring, 21))
            w = vector(smp.r_element(ring, 14))
            for N in range(1, 6):
                td = term_decomposition(fam, x, w, N, 12)
                assert td.identity_holds()
                for t in (td.term_i, td.term_ii, td.term_iii):
                    assert all(e.is_zero for e in t)
    report(6, "six-term decomposition identity")


def test_criterion_07_lemma_certification():
    """Minimal-N table over (A, B) in [0,8]^2, ell in {2,3}, N <= 10^6,
    frozen on first oracle run."""
    frozen = json.loads((FIXTURES / "lemma_minimal_n.json").read_text())
    for ell in (2, 3):
        for A in range(9):
            for B in range(9):
                rep = certify_lemma_bounds(A, B, 10 ** 6, ell)
                assert rep.minimal_n == frozen[str(ell)][f"{A},{B}"], \
                    (ell, A, B)
    report(7, "lemma certification against frozen scan")


def test_criterion_08_measure_decay_layered_phi():
    """Estimates non-increasing over D = 2..10; independent-depth re-check
    yields identical cell sets; table matches the frozen fixture."""
    fam = kakeya_line_family(F2)
    rep = decay_report(fam, PhiVariant.SAWYER, 2, 10)
    ests = [r.estimate for r in rep.rows]
    assert all(b <= a for a, b in zip(ests, ests[1:]))
    assert strip_timing(decay_csv(rep), "csv") == \
        (FIXTURES / "decay_kakeya_sawyer_fq2.csv").read_text()
    for D in range(2, 11):
        assert input_depth_sufficiency(fam, PhiVariant.SAWYER, D)
    report(8, "measure decay, layered phi over F2[[t]]")


def test_criterion_09_measure_decay_digit_shift_phi():
    """Same protocol for the digit-shift rule; additivity holds exhaustively
    carry-free at depth 8 and fails over the carrying ring at the pinned
    counterexample."""
    fam = kakeya_line_family(F2)
    rep = decay_report(fam, PhiVariant.DH, 2, 10)
    ests = [r.estimate for r in rep.rows]
    assert all(b <= a for a, b in zip(ests, ests[1:]))
    assert strip_timing(decay_csv(rep), "csv") == \
        (FIXTURES / "decay_kakeya_dh_fq2.csv").read_text()
    for D in range(2, 11):
        assert input_depth_sufficiency(fam, PhiVariant.DH, D)

    # additivity over the carry-free ring: exhaustive on depth-8 inputs
    out = [cell_index(phi_dh_eval(element_from_cell(F2, c, 9, 9), 8), 8)
           for c in range(2 ** 9)]
    codes = np.asarray(out[:2 ** 8], dtype=np.int64)
    a = np.arange(2 ** 8)
    for b in range(2 ** 8):
        assert (codes[a ^ b] == (codes[a] ^ codes[b])).all()

    # the carrying ring breaks additivity at the pinned pair
    pinned = json.loads((FIXTURES / "dh_carry_counterexample.json").read_text())
    ea, eb = parse_element(pinned["a"]), parse_element(pinned["b"])
    lhs = phi_dh_eval(truncate(add(ea, eb), 6), 5)
    rhs = truncate(add(phi_dh_eval(ea, 5), phi_dh_eval(eb, 5)), 5)
    assert lhs != rhs
    assert lhs == parse_element(pinned["map_of_sum"])
    assert rhs == parse_element(pinned["sum_of_maps"])
    report(9, "measure decay, digit-shift phi; carry non-additivity pinned")


REPLAYED_TABLES = [table for table in FROZEN_DECAY_TABLES
                   if (table[0], table[-1]) != ("kakeya", "fq2")]


@pytest.mark.parametrize(
    "family, ring, dmin, dmax, suffix", REPLAYED_TABLES,
    ids=[suffix if family == "kakeya" else f"{family}_{suffix}"
         for family, *_, suffix in REPLAYED_TABLES])
@pytest.mark.parametrize("variant", (PhiVariant.SAWYER, PhiVariant.DH),
                         ids=("sawyer", "dh"))
def test_frozen_decay_tables(variant, family, ring, dmin, dmax, suffix):
    """Every decay table the fixture script freezes (its ``DECAY_TABLES``,
    whose comment says which build froze each) but kakeya fq2, which
    criteria 08 and 09 replay, replays its frozen fixture exactly."""
    rep = decay_report(BUILTIN_FAMILIES[family](ring), variant, dmin, dmax)
    name = f"decay_{family}_{variant.value}_{suffix}.csv"
    assert strip_timing(decay_csv(rep), "csv") == \
        (FIXTURES / name).read_text()


def test_criterion_10_direction_coverage():
    """No missing (direction, w) pair at any depth <= 6, both families, with
    the vertical direction excluded by design."""
    for make in (kakeya_line_family, nikodym_line_family):
        fam = make(F2)
        for D in range(1, 7):
            rep = direction_coverage(fam, PhiVariant.SAWYER, D)
            assert rep.missing_count == 0
            assert rep.vertical_excluded
    report(10, "direction coverage with vertical excluded")


def test_criterion_11_differentiability_taxonomy():
    """Strict margins diverge (nondecreasing, final >= 13); strengthened
    margins stay negative from the frozen crossover on."""
    frozen = json.loads((FIXTURES / "diff_example.json").read_text())
    scan = vsd_counterexample_scan(2, 10 ** 4, Fraction(1, 10))
    ms = [r.strict_margin for r in scan.rows]
    assert ms == sorted(ms)
    assert scan.final_strict_margin >= 13
    assert scan.crossover == frozen["crossover"]
    assert scan.final_strict_margin == frozen["final_strict_margin"]
    assert all(r.very_strong_margin < 0
               for r in scan.rows[scan.crossover - 1:])
    report(11, "differentiability taxonomy scan")
