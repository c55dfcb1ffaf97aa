"""Decomposition identity, lemma certificates, defect scans."""

from fractions import Fraction

import pytest

from kakeya.analysis import (
    LEMMA_IDS,
    DigitSampler,
    SampleSpec,
    TermDecomposition,
    certificate_csv,
    certify_lemma_bounds,
    counterexample_scan_csv,
    decomposition_input_depth,
    holder_defect,
    lemma_predicate,
    term_decomposition,
    vsd_counterexample_scan,
    vsd_defect,
)
from kakeya.errors import BadIndex, InsufficientDepth
from kakeya.families import kakeya_line_family, nikodym_line_family
from kakeya.phi import (
    PhiConfig,
    alpha,
    input_partial,
    lambda_floor,
    phi_eval,
    phi_partial,
    projection,
    series_term,
)
from kakeya.ring import (
    INF,
    ElementVector,
    from_int,
    mat_vec,
    mul,
    one,
    truncate,
    vector,
)

from conftest import EQUIV_RINGS, F2, F3, Z2, Z3


def _decomposition_oracle(fam, x, w, N, D):
    """term_decomposition as it was before the series terms were shared:
    phi, phi^(N) and slice N from phi_eval, phi_partial and series_term,
    each evaluating its own terms."""
    cfg = PhiConfig(fam.ring, p_dim=fam.p_dim, q_dim=fam.q_dim)
    phi = phi_eval(x, cfg, D)
    phi_n = phi_partial(x, cfg, N)
    x_n = input_partial(x, N)
    x_n1 = input_partial(x, N + 1)
    p_n = projection(x, N)
    slice_n = series_term(x, cfg, N)
    phi_n1 = phi_n + slice_n
    dx = fam.dfdx(x, phi, w, D)
    dy = fam.dfdy(x, phi, w, D)
    dy_at_landmark = fam.dfdy(x_n, phi, w, D)
    f_value = fam.eval(x, phi, w, D)
    f_xn = fam.eval(x_n, phi, w, D)
    f_landmark = fam.eval(x_n, phi_n, w, D)
    term_i = f_value - f_xn - mat_vec(dx, x - x_n)
    term_ii = f_xn - f_landmark - mat_vec(dy_at_landmark, phi - phi_n)
    term_iii = mat_vec(dy_at_landmark - dy, phi - phi_n)
    term_iv = mat_vec(dy, phi - phi_n1) + mat_vec(dx, x - x_n1)
    term_v = mat_vec(dy, slice_n) + mat_vec(dx, p_n)

    def cut(v):
        return ElementVector(tuple(truncate(e, D) for e in v))

    return TermDecomposition(
        cut(term_i), cut(term_ii), cut(term_iii), cut(term_iv), cut(term_v),
        cut(f_landmark), cut(f_value), N, D)


class TestDigitSampler:
    def test_reproducible(self):
        a = [DigitSampler(9).digit(3) for _ in range(20)]
        b = [DigitSampler(9).digit(3) for _ in range(20)]
        assert a == b

    def test_element_has_exact_valuation(self):
        smp = DigitSampler(4)
        for v in (0, 1, 3):
            for ring in (Z2, F3):
                e = smp.element(ring, 12, valuation=v)
                assert e.valuation == v and e.depth == 12


class TestTermDecomposition:
    @pytest.mark.parametrize("ring", (F2, Z2), ids=str)
    def test_sum_identity_deterministic_samples(self, ring):
        fam = kakeya_line_family(ring)
        smp = DigitSampler(1)
        for _ in range(50):
            x = vector(smp.r_element(ring, 21))
            w = vector(smp.r_element(ring, 14))
            for N in range(1, 6):
                td = term_decomposition(fam, x, w, N, 12)
                assert td.identity_holds()

    def test_bilinear_families_have_zero_approximation_terms(self):
        for make in (kakeya_line_family, nikodym_line_family):
            fam = make(Z2)
            smp = DigitSampler(2)
            for _ in range(20):
                x = vector(smp.r_element(Z2, 21))
                w = vector(smp.r_element(Z2, 14))
                td = term_decomposition(fam, x, w, 3, 12)
                for t in (td.term_i, td.term_ii, td.term_iii):
                    assert all(e.is_zero for e in t)

    def test_tail_term_valuation_floor(self):
        fam = kakeya_line_family(F2)
        smp = DigitSampler(3)
        for _ in range(20):
            x = vector(smp.r_element(F2, 21))
            w = vector(smp.r_element(F2, 14))
            for N in (1, 2, 3, 4):
                td = term_decomposition(fam, x, w, N, 12)
                floor = alpha(N + 1) - lambda_floor(N + 1, 2)
                for e in td.term_iv:
                    assert e.is_zero or e.valuation >= floor

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_one_pass_equals_separate_evaluations(self, ring):
        """The shared list of series terms gives every piece, value and
        depth, that phi_eval, phi_partial and series_term gave, both for N
        below the cutoff and past it."""
        smp = DigitSampler(ring.ell)
        for make in (kakeya_line_family, nikodym_line_family):
            fam = make(ring)
            for D in (3, 12):
                for N in range(1, 7):
                    X = decomposition_input_depth(N, D, ring.ell)
                    for extra in (0, 3):
                        x = vector(smp.r_element(ring, X + extra))
                        w = vector(smp.element(ring, 14, valuation=1))
                        got = term_decomposition(fam, x, w, N, D)
                        want = _decomposition_oracle(fam, x, w, N, D)
                        assert (got.N, got.depth) == (want.N, want.depth)
                        for g, v in zip(got.terms() + (got.f_value,),
                                        want.terms() + (want.f_value,)):
                            assert [(e.lowest_degree, e.sig, e.depth)
                                    for e in g] == \
                                [(e.lowest_degree, e.sig, e.depth) for e in v]

    def test_x_of_another_dimension_is_refused(self):
        fam = kakeya_line_family(F2)
        x = DigitSampler(6).r_element(F2, 21)
        w = vector(DigitSampler(7).r_element(F2, 14))
        with pytest.raises(ValueError, match="expected dim 1, got 2"):
            term_decomposition(fam, vector(x, x), w, 3, 12)

    def test_depth_and_index_guards(self):
        fam = kakeya_line_family(F2)
        x = vector(DigitSampler(4).r_element(F2, 21))
        w = vector(DigitSampler(5).r_element(F2, 14))
        with pytest.raises(BadIndex):
            term_decomposition(fam, x, w, 0, 8)
        with pytest.raises(InsufficientDepth):
            term_decomposition(fam, vector(one(F2, 4)), w, 2, 8)
        with pytest.raises(ValueError, match="w has 2 entries, need d = 1"):
            term_decomposition(fam, x, vector(w[0], w[0]), 3, 12)


class TestCertificates:
    def test_minimal_n_ell2(self):
        rep = certify_lemma_bounds(1, 0, 10 ** 6, 2)
        assert rep.minimal_n == {"I": 1, "II": 3, "III": 3, "IV": 2, "V": 1}

    def test_minimal_n_ell3(self):
        rep = certify_lemma_bounds(0, 0, 10 ** 6, 3)
        assert rep.minimal_n == {"I": 1, "II": 2, "III": 2, "IV": 1, "V": 1}

    def test_tail_lemma_boundary_by_direct_evaluation(self):
        # A=1, B=0 at ell=2: N=1 fails (1 < lambda(2)+1 = 2), N=2 holds
        holds1, _ = lemma_predicate("IV", 1, 0, 1, 2)
        holds2, _ = lemma_predicate("IV", 1, 0, 2, 2)
        assert (holds1, holds2) == (False, True)

    def test_series_tail_lemma_first_n(self):
        # alpha(N) - lambda(N) > N: fails at 2 (3-1=2), holds from 3 (6-1=5)
        assert lemma_predicate("II", 0, 0, 2, 2)[0] is False
        assert lemma_predicate("II", 0, 0, 3, 2)[0] is True

    @pytest.mark.parametrize("ell", (2, 3))
    @pytest.mark.parametrize("A,B", [(0, 0), (1, 0), (2, 1), (5, 3)])
    def test_predicates_monotone_over_scan(self, ell, A, B):
        for lem in LEMMA_IDS:
            seen = False
            for N in range(1, 200):
                holds, _ = lemma_predicate(lem, A, B, N, ell)
                if seen:
                    assert holds, (lem, N)
                seen = seen or holds

    def test_nmax_below_one_refused(self):
        for n_max in (0, -5):
            with pytest.raises(BadIndex, match="n_max must be >= 1"):
                certify_lemma_bounds(0, 0, n_max, 2)

    def test_csv_shape(self):
        rep = certify_lemma_bounds(1, 0, 100, 2)
        lines = certificate_csv(rep).strip().splitlines()
        assert lines[0] == "lemma,A,B,N,holds,inequality"
        assert len(lines) == 6
        assert lines[1].startswith("I,1,0,1,true")

    def test_inequalities_rederivable(self):
        rep = certify_lemma_bounds(2, 1, 100, 2)
        for row in rep.rows:
            holds, ineq = lemma_predicate(row.lemma, row.A, row.B, row.N, 2)
            assert (holds, ineq) == (row.holds, row.inequality)


class TestVsdDefect:
    def test_linear_function_zero_defect(self):
        spec = SampleSpec(Z2, scales=(1, 2, 4), samples_per_scale=5, seed=7)
        rep = vsd_defect(lambda e: e, lambda e: one(Z2, 30),
                         Fraction(1, 10), spec)
        assert all(r.defect_valuation == INF and r.margin == INF
                   for r in rep.rows)

    @pytest.mark.parametrize("ring", (Z2, F3), ids=str)
    def test_squaring_defect_is_h_squared(self, ring):
        spec = SampleSpec(ring, scales=(1, 2, 3, 5), samples_per_scale=6,
                          seed=9, depth=24)
        two = from_int(2, ring, 48)
        rep = vsd_defect(lambda e: mul(e, e), lambda e: mul(two, e),
                         Fraction(1, 2), spec)
        for r in rep.rows:
            assert r.defect_valuation == 2 * r.scale
            assert r.margin == Fraction(2 * r.scale) - Fraction(3, 2) * r.scale

    def test_reports_reproducible(self):
        spec = SampleSpec(Z3, scales=(1, 3), samples_per_scale=4, seed=42)
        f = lambda e: mul(e, e)
        fp = lambda e: mul(from_int(2, Z3, 48), e)
        assert vsd_defect(f, fp, Fraction(1), spec) == \
            vsd_defect(f, fp, Fraction(1), spec)

    def test_rows_sorted_by_scale_and_csv_shape(self):
        from kakeya.analysis import defect_csv
        spec = SampleSpec(Z2, scales=(5, 1, 3), samples_per_scale=3, seed=2)
        rep = vsd_defect(lambda e: mul(e, e),
                         lambda e: mul(from_int(2, Z2, 48), e),
                         Fraction(1, 2), spec)
        assert [r.scale for r in rep.rows] == [1, 3, 5]
        lines = defect_csv(rep).strip().splitlines()
        assert lines[0] == "scale,defect_valuation,margin"
        assert lines[1] == "1,2,1/2"  # defect h^2: v=2, margin 2 - 3/2


class TestHolderDefect:
    def test_constant_derivative_inf_margin(self):
        spec = SampleSpec(Z2, scales=(1, 2, 3), samples_per_scale=4, seed=3)
        rep = holder_defect(lambda e: one(Z2, 30), Fraction(1), spec)
        assert all(r.margin == INF for r in rep.rows)

    def test_identity_derivative_margin_zero(self):
        spec = SampleSpec(F2, scales=(1, 2, 4), samples_per_scale=6, seed=5)
        rep = holder_defect(lambda e: e, Fraction(1), spec)
        assert all(r.margin == 0 for r in rep.rows)

    def test_doubling_margin_depends_on_ring(self):
        spec3 = SampleSpec(Z3, scales=(1, 2, 3), samples_per_scale=6, seed=8)
        rep3 = holder_defect(lambda e: mul(from_int(2, Z3, 40), e),
                             Fraction(1), spec3)
        assert all(r.margin == 0 for r in rep3.rows)
        spec2 = SampleSpec(Z2, scales=(1, 2, 3), samples_per_scale=6, seed=8)
        rep2 = holder_defect(lambda e: mul(from_int(2, Z2, 40), e),
                             Fraction(1), spec2)
        assert all(r.margin == 1 for r in rep2.rows)  # the factor 2


class TestCounterexampleScan:
    def test_pinned_values_p2(self):
        scan = vsd_counterexample_scan(2, 10000, Fraction(1, 10))
        assert scan.rows[7].strict_margin == 4  # g(8) = 4
        assert scan.final_strict_margin == 14

    def test_both_divergences_every_prime_to_13(self):
        for p in (2, 3, 5, 7, 11, 13):
            scan = vsd_counterexample_scan(p, 10000, Fraction(1, 10))
            ms = [r.strict_margin for r in scan.rows]
            assert ms == sorted(ms)
            assert ms[-1] > ms[0]  # strict quotient diverges upward
            # strengthened quotient diverges downward past its crossover
            assert scan.rows[-1].very_strong_margin < -900
            assert all(r.very_strong_margin < 0
                       for r in scan.rows[scan.crossover - 1:])

    def test_crossover_definition(self):
        scan = vsd_counterexample_scan(2, 10000, Fraction(1, 10))
        k0 = scan.crossover
        assert all(r.very_strong_margin < 0 for r in scan.rows[k0 - 1:])
        assert scan.rows[k0 - 2].very_strong_margin >= 0

    def test_csv_two_margin_columns(self):
        scan = vsd_counterexample_scan(2, 16, Fraction(1, 10))
        lines = counterexample_scan_csv(scan).strip().splitlines()
        assert lines[0] == "k,strict_margin,very_strong_margin"
        assert len(lines) == 17
