"""Built-in line families: evaluation, Jacobians, rank, surface points."""

import dataclasses

import pytest

from kakeya.analysis import DigitSampler
from kakeya.errors import InsufficientDepth, RankDeficient
from kakeya.families import (
    FamilyDescriptor,
    family_point,
    invert_element,
    kakeya_line_family,
    nikodym_line_family,
)
from kakeya.phi import PhiVariant, phi_dh_eval, required_phi_input_depth
from kakeya.ring import (
    cell_index,
    element_from_cell,
    element_from_digits,
    mat_mul,
    mul,
    one,
    sub,
    truncate,
    vector,
    zero,
)

from conftest import F2, F3, Z2, Z3


class TestDescriptors:
    def test_dimension_constraint_enforced(self):
        fam = kakeya_line_family(F2)
        with pytest.raises(ValueError):
            dataclasses.replace(fam, q_dim=0)  # violates n-d <= q

    @pytest.mark.parametrize("dims", (
        {"q_dim": 2},
        {"p_dim": 2, "q_dim": 2, "n_dim": 3},
        {"d_dim": 2, "n_dim": 3},
    ), ids=("q2", "p2", "d2"))
    def test_cells_eval_needs_scalar_dims(self, dims):
        """Packed codes exist only for p = q = d = 1, so a ``cells_eval``
        elsewhere is refused at construction, not skipped at enumeration."""
        fam = kakeya_line_family(F2)
        with pytest.raises(ValueError, match="cells_eval needs p = q = d = 1"):
            dataclasses.replace(fam, **dims)
        dataclasses.replace(fam, cells_eval=None, **dims)  # valid dims

    def test_kakeya_point_examples(self):
        fam = kakeya_line_family(Z2)
        w = vector(one(Z2, 8))
        y0 = vector(zero(Z2, 8))
        # x = 0: point (w, -y)
        z = fam.eval(vector(zero(Z2, 8)), vector(one(Z2, 8)), w, 8)
        assert z[0] == sub(zero(Z2, 8), one(Z2, 8))
        # x = 1, w = 1, y = 0 -> z = 1
        z = fam.eval(vector(one(Z2, 8)), y0, w, 8)
        assert z[0] == one(Z2, 8)

    def test_kakeya_eval_matches_ring_oracle(self):
        fam = kakeya_line_family(F3)
        smp = DigitSampler(11)
        for _ in range(100):
            x = vector(smp.r_element(F3, 10))
            y = vector(smp.r_element(F3, 10))
            w = vector(smp.r_element(F3, 10))
            assert fam.eval(x, y, w, 10)[0] == sub(mul(x[0], w[0]), y[0])

    def test_nikodym_examples(self):
        fam = nikodym_line_family(Z2)
        x1 = vector(one(Z2, 8))
        w = vector(one(Z2, 8))
        # y = 0 -> z = -x independent of w
        z = fam.eval(x1, vector(zero(Z2, 8)), w, 8)
        assert z[0] == sub(zero(Z2, 8), one(Z2, 8))
        # y = 1, w = 1, x = 1 -> 0
        z = fam.eval(x1, vector(one(Z2, 8)), w, 8)
        assert z[0].is_zero

    def test_nikodym_rank_deficient_at_w0(self):
        fam = nikodym_line_family(F2)
        with pytest.raises(RankDeficient):
            fam.dfdy_right_inverse(vector(one(F2, 8)), vector(one(F2, 8)),
                                   vector(zero(F2, 8)), 8)


class TestJacobians:
    @pytest.mark.parametrize("make", (kakeya_line_family, nikodym_line_family),
                             ids=("kakeya", "nikodym"))
    @pytest.mark.parametrize("ring", (Z2, F2, Z3), ids=str)
    def test_linear_approximation_error_exactly_zero(self, make, ring):
        """Bilinear families have identically vanishing defect (the pinned
        constant for the finite-difference bound is exact zero)."""
        fam = make(ring)
        smp = DigitSampler(5)
        for _ in range(30):
            x = vector(smp.r_element(ring, 12))
            y = vector(smp.r_element(ring, 12))
            w = vector(smp.r_element(ring, 12))
            h = vector(smp.element(ring, 12, valuation=2))
            fx = fam.eval(x, y, w, 10)
            # x direction
            fxh = fam.eval(vector(*(a + b for a, b in zip(x, h))), y, w, 10)
            lin = fam.dfdx(x, y, w, 10)[0, 0]
            defect = sub(sub(fxh[0], fx[0]), mul(lin, h[0]))
            assert truncate(defect, 9).is_zero
            # y direction
            fyh = fam.eval(x, vector(*(a + b for a, b in zip(y, h))), w, 10)
            lin = fam.dfdy(x, y, w, 10)[0, 0]
            defect = sub(sub(fyh[0], fx[0]), mul(lin, h[0]))
            assert truncate(defect, 9).is_zero

    @pytest.mark.parametrize("ring", (Z2, F2, F3), ids=str)
    def test_right_inverse_is_identity_exhaustive(self, ring):
        """dfdy . dfdy_right_inverse = identity wherever full rank holds."""
        for make in (kakeya_line_family, nikodym_line_family):
            fam = make(ring)
            for code in range(1, ring.ell ** 3):
                w = vector(element_from_cell(ring, code, 3, 9))
                x = y = vector(one(ring, 9))
                dy = fam.dfdy(x, y, w, 9)
                rinv = fam.dfdy_right_inverse(x, y, w, 9)
                prod = mat_mul(dy, rinv)
                e = prod[0, 0]
                assert not e.is_zero and e.valuation == 0
                assert truncate(sub(e, one(ring, e.depth)), e.depth).is_zero


class TestInversion:
    @pytest.mark.parametrize("ring", (Z2, F2, Z3, F3), ids=str)
    def test_unit_inverses_exhaustive(self, ring):
        for code in range(ring.ell ** 4):
            e = element_from_cell(ring, code, 4, 8)
            if e.is_zero:
                continue
            inv = invert_element(e)
            prod = mul(e, inv)
            assert truncate(sub(prod, one(ring, prod.depth)),
                            prod.depth).is_zero

    def test_zero_rejected(self):
        with pytest.raises(RankDeficient):
            invert_element(zero(Z2, 4))

    def test_depth_margin_required(self):
        deep = element_from_digits([1], 3, Z2, 5)  # valuation 3, depth 5
        with pytest.raises(InsufficientDepth):
            invert_element(deep)

    def test_negative_valuation_result(self):
        e = element_from_digits([1], 2, F2, 8)  # t^2
        inv = invert_element(e)
        assert inv.valuation == -2


class TestFamilyPoint:
    def test_zero_direction_gives_horizontal_line(self):
        fam = kakeya_line_family(F2)
        for wc in range(8):
            w = vector(element_from_cell(F2, wc, 3, 8))
            wout, z = family_point(fam, PhiVariant.SAWYER,
                                   vector(zero(F2, 30)), w, 8)
            assert wout is w and z[0].is_zero

    def test_prefix_consistency_in_depth(self):
        fam = kakeya_line_family(Z2)
        smp = DigitSampler(23)
        for _ in range(25):
            x = vector(smp.r_element(Z2, 16))
            w = vector(smp.r_element(Z2, 12))
            _, z6 = family_point(fam, PhiVariant.SAWYER, x, w, 6)
            _, z9 = family_point(fam, PhiVariant.SAWYER, x, w, 9)
            assert truncate(z9[0], 6) == z6[0]

    def test_dh_variant_all_ones(self):
        fam = kakeya_line_family(F2)
        D = 8
        x = vector(element_from_digits([1] * 10, 0, F2, 10))
        w = vector(one(F2, 10))
        _, z = family_point(fam, PhiVariant.DH, x, w, D)
        expect = truncate(sub(mul(x[0], w[0]), phi_dh_eval(x[0], D)), D)
        assert z[0] == expect

    def test_w_with_more_than_d_entries_refused(self):
        fam = kakeya_line_family(F2)
        x = vector(one(F2, 30))
        with pytest.raises(ValueError, match="w has 2 entries, need d = 1"):
            family_point(fam, PhiVariant.SAWYER, x,
                         vector(one(F2, 8), one(F2, 8)), 8)

    def test_insufficient_depth_propagates(self):
        fam = kakeya_line_family(F2)
        with pytest.raises(InsufficientDepth):
            family_point(fam, PhiVariant.SAWYER,
                         vector(one(F2, 2)), vector(one(F2, 12)), 8)

    @pytest.mark.parametrize("D", (1, 2, 3, 4, 5))
    def test_one_z_cell_per_direction_and_w(self, D):
        """For a full-depth direction, w determines the z-cell uniquely: the
        map really is a line at cell resolution."""
        fam = kakeya_line_family(F2)
        X = max(D, required_phi_input_depth(D, 2))
        for xc in range(0, 2 ** X, 3):
            x = vector(element_from_cell(F2, xc, X, X))
            seen = {}
            for wc in range(2 ** D):
                w = vector(element_from_cell(F2, wc, D, D))
                _, z = family_point(fam, PhiVariant.SAWYER, x, w, D)
                zc = cell_index(z[0], D)
                assert seen.setdefault(wc, zc) == zc
