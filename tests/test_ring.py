"""Ring layer: canonical forms, exact arithmetic, cells, text format."""

import dataclasses
import functools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya import ring as ring_module
from kakeya.errors import (
    BadDepth,
    DigitOutOfRange,
    NegativeValuation,
    RingMismatch,
)
from kakeya.ring import (
    INF,
    WALK_BLOCK_ENTRIES,
    Element,
    ElementMatrix,
    ElementVector,
    RingSpec,
    RingMode,
    add,
    cell_index,
    element_from_cell,
    element_from_digits,
    enumerate_residues,
    format_element,
    from_int,
    mat_mul,
    mat_vec,
    mul,
    neg,
    one,
    padic_ring,
    parse_element,
    power_series_ring,
    reduce_to_R,
    residue_add,
    residue_mul,
    residue_mul_sub,
    residue_neg,
    residue_sub,
    sub,
    truncate,
    vector,
    vector_cell_index,
    vector_from_cell,
    zero,
)

from conftest import (ALL_RINGS, EQUIV_RINGS, F2, F3, F5, F7, LARGE_RINGS,
                      Z2, Z3, Z5, Z7, check_class_rows, elements)


class TestConstruction:
    def test_leading_zero_stripping(self):
        e = element_from_digits([0, 0, 1], 0, Z2, 8)
        assert e.valuation == 2
        assert e.digits == (1,)

    def test_empty_digits_is_zero(self):
        e = element_from_digits([], 5, Z2, 8)
        assert e.is_zero
        assert e.valuation == INF

    def test_field_element_valuation_and_norm(self):
        e = element_from_digits([1, 1], -1, F3, 5)
        assert e.valuation == -1
        assert e.norm() == Fraction(3)

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRange):
            element_from_digits([2], 0, Z2, 4)

    def test_bad_depth(self):
        with pytest.raises(BadDepth):
            element_from_digits([1], 3, Z2, 3)

    def test_digits_beyond_depth_truncated(self):
        e = element_from_digits([1, 1, 1, 1], 0, Z2, 2)
        assert e.digits == (1, 1)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(4, RingMode.PADIC)
        with pytest.raises(ValueError):
            RingSpec(1, RingMode.POWER_SERIES)

    def test_ell_from_2_64_refused(self):
        """The Miller-Rabin bases are proved exact for 64-bit inputs, and
        this composite is the first to pass all twelve of them: it is
        refused by size in either mode.  The largest prime below 2^64 is
        still a ring."""
        ell = 318665857834031151167461
        assert ell == 399165290221 * 798330580441
        for mode in RingMode:
            with pytest.raises(ValueError, match="below 2\\^64"):
                RingSpec(ell, mode)
            with pytest.raises(ValueError, match="below 2\\^64"):
                RingSpec(2 ** 64, mode)
            assert RingSpec(2 ** 64 - 59, mode).ell == 2 ** 64 - 59

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @given(sig=st.integers(-(2 ** 40), 2 ** 40), lowest=st.integers(-4, 4),
           depth=st.integers(-3, 12))
    @settings(max_examples=150, deadline=None)
    def test_canonical_matches_reduction_by_mod(self, ring, sig, lowest, depth):
        """_canonical reduces by a mask at ell = 2 and by % above; both give
        the fields of the plain % reduction, for negative significands (zp
        differences) and significands longer than depth - lowest."""
        ell = ring.ell
        want_low, want_sig = 0, 0
        if depth > lowest and sig % ell ** (depth - lowest):
            want_low, want_sig = lowest, sig % ell ** (depth - lowest)
            while want_sig % ell == 0:
                want_sig //= ell
                want_low += 1
        e = ring_module._canonical(ring, lowest, sig, depth)
        assert type(e) is Element
        assert (e.ring, e.lowest_degree, e.sig, e.depth) == (
            ring, want_low, want_sig, depth)
        assert e == Element(ring, want_low, want_sig, depth)

    @pytest.mark.parametrize("ring", (Z2, F2, Z3, F3), ids=str)
    def test_built_elements_stay_frozen_dataclasses(self, ring):
        """Elements from the private constructor are frozen, compare and
        hash by value (not depth), and repr and pickle as the dataclass."""
        a = element_from_cell(ring, 5, 4, 6)
        built = (a, add(a, one(ring, 9)), mul(a, a), neg(a), zero(ring, 3),
                 element_from_cell(ring, 5, 4, 9))
        for e in built:
            for name in ("sig", "depth", "lowest_degree", "ring"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(e, name, 1)
            same = Element(e.ring, e.lowest_degree, e.sig, e.depth)
            assert e == same and hash(e) == hash(same)
            assert repr(e) == repr(same)
            assert pickle.loads(pickle.dumps(e)) == e
        deeper = built[-1]
        assert deeper.depth != a.depth
        assert deeper == a and hash(deeper) == hash(a)
        assert zero(ring, 3) == zero(ring, 8)
        assert hash(zero(ring, 3)) == hash(zero(ring, 8))


class TestArithmetic:
    def test_padic_three_squared(self):
        three = element_from_digits([1, 1], 0, Z2, 8)
        nine = mul(three, three)
        assert nine.lowest_degree == 0
        assert nine.digits == (1, 0, 0, 1)

    def test_power_series_char_two(self):
        e = element_from_digits([1, 1], 0, F2, 6)
        assert add(e, e).is_zero

    def test_padic_carry(self):
        s = add(one(Z2, 6), one(Z2, 6))
        assert s.lowest_degree == 1 and s.digits == (1,)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            add(one(Z2, 4), one(F2, 4))

    @pytest.mark.parametrize("other", (F2, Z3), ids=str)
    def test_equal_specs_accepted_other_rings_refused(self, other):
        """Ring checks take an identical spec first, then an equal one built
        separately; a different mode or ell is still refused."""
        twin = RingSpec(2, RingMode.PADIC)
        assert twin is not Z2 and twin == Z2
        a, b = from_int(3, Z2, 6), from_int(5, twin, 6)
        assert add(a, b) == from_int(8, Z2, 6)
        assert sub(b, a) == from_int(2, Z2, 6)
        assert mul(a, b) == from_int(15, Z2, 6)
        assert vector(a, b).entries == (a, b)
        assert ElementMatrix(((a, b), (b, a)))[1, 0] == b
        c = from_int(1, other, 6)
        for op in (add, sub, mul):
            with pytest.raises(RingMismatch):
                op(a, c)
        with pytest.raises(RingMismatch):
            vector(a, b, c)
        with pytest.raises(RingMismatch):
            ElementMatrix(((a, b), (c, a)))

    @pytest.mark.parametrize("ell", (2, 3, 13))
    def test_factories_share_one_spec_per_ring(self, ell):
        """The factories and ``parse_element`` hand out one spec per
        (ell, mode), so ring checks pass on identity; the modes stay
        apart and a bad ell is still refused."""
        assert padic_ring(ell) is padic_ring(ell)
        assert power_series_ring(ell) is power_series_ring(ell)
        assert padic_ring(ell) is not power_series_ring(ell)
        assert padic_ring(ell) == RingSpec(ell, RingMode.PADIC)
        assert parse_element(f"zp:{ell}:0:1").ring is padic_ring(ell)
        assert parse_element(f"fq:{ell}:0:1").ring is power_series_ring(ell)
        with pytest.raises(ValueError, match="must be prime"):
            padic_ring(ell * ell)

    def test_zero_mul_depth_is_sum(self):
        z = zero(Z2, 5)
        prod = mul(z, from_int(3, Z2, 7))
        assert prod.is_zero and prod.depth == 5

    def test_zero_mul_depth_may_be_nonpositive(self):
        # v(zero) >= 1 and v(t^-5) = -5 fix the product only below degree -4
        prod = mul(zero(Z2, 1), element_from_digits([1], -5, Z2, 1))
        assert prod.is_zero and prod.depth == -4

    @pytest.mark.parametrize("ring", (Z2, F2, Z3, F3), ids=str)
    def test_neg_is_additive_inverse_exhaustive(self, ring):
        for code in range(ring.ell ** 4):
            e = element_from_cell(ring, code, 4, 6)
            assert add(e, neg(e)).is_zero

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_signed_sums_keep_the_two_step_definition(self, ring, data):
        """sub, neg and add share one signed step.  The oracle is the
        two-step definition sub(a, b) = add(a, neg(b)); neg keeps the
        operand's depth and a + (-a) is zero, in value and in depth."""
        a = data.draw(elements(ring, min_low=-2, max_low=2, max_depth=6))
        b = data.draw(elements(ring, min_low=-2, max_low=2, max_depth=6))
        d, want = sub(a, b), add(a, neg(b))
        assert d == want and d.depth == want.depth
        assert neg(a).depth == a.depth
        s = add(a, neg(a))
        assert s.is_zero and s.depth == a.depth

    def test_padic_bigint_oracle_exhaustive_depth4(self):
        ell, W = 2, 4
        m = ell ** W
        for a in range(m):
            for b in range(m):
                ea, eb = element_from_cell(Z2, a, W, W), element_from_cell(Z2, b, W, W)
                assert cell_index(add(ea, eb), W) == (a + b) % m
                assert cell_index(mul(ea, eb), W) == (a * b) % m
                assert cell_index(sub(ea, eb), W) == (a - b) % m

    def test_power_series_poly_oracle_exhaustive_depth3(self):
        # independent oracle: coefficient convolution over F_3 mod t^3
        ell, W = 3, 3
        for a in range(ell ** W):
            for b in range(ell ** W):
                da = [(a // ell ** i) % ell for i in range(W)]
                db = [(b // ell ** i) % ell for i in range(W)]
                conv = [sum(da[i] * db[j - i] for i in range(j + 1)) % ell
                        for j in range(W)]
                ea, eb = element_from_cell(F3, a, W, W), element_from_cell(F3, b, W, W)
                assert cell_index(mul(ea, eb), W) == sum(
                    c * ell ** i for i, c in enumerate(conv))
                assert cell_index(add(ea, eb), W) == sum(
                    ((da[i] + db[i]) % ell) * ell ** i for i in range(W))

    @given(a=elements(Z3, min_low=-3), b=elements(Z3, min_low=-3))
    @settings(max_examples=200)
    def test_ultrametric_inequality(self, a, b):
        # a represented zero only bounds its value (valuation >= depth), so
        # the equality case is assertable only for nonzero operands
        s = add(a, b)
        if not s.is_zero:
            assert s.norm() <= max(a.norm(), b.norm())
        if not a.is_zero and not b.is_zero and a.norm() != b.norm():
            assert s.norm() == max(a.norm(), b.norm())

    @given(a=elements(F3, min_low=-2, max_depth=8),
           b=elements(F3, min_low=-2, max_depth=8))
    @settings(max_examples=200)
    def test_valuation_multiplicative(self, a, b):
        p = mul(a, b)
        if a.is_zero or b.is_zero:
            assert p.is_zero
        else:
            assert p.valuation == a.valuation + b.valuation


class TestValuationNorm:
    def test_twelve_in_z2(self):
        e = from_int(12, Z2, 8)
        assert e.valuation == 2
        assert e.norm() == Fraction(1, 4)

    def test_zero_valuation_inf(self):
        assert zero(Z2, 4).valuation == INF
        assert zero(Z2, 4).norm() == 0

    def test_laurent_valuation(self):
        e = element_from_digits([1, 1], -1, F3, 5)
        assert e.valuation == -1

    def test_unit_norm_one(self):
        assert one(Z3, 5).norm() == 1

    def test_negative_degree_norm(self):
        assert element_from_digits([1], -2, F2, 2).norm() == Fraction(4)


class TestTruncate:
    def test_basic(self):
        e = element_from_digits([1, 0, 1, 1], 0, Z2, 8)
        assert truncate(e, 2).digits == (1,)

    def test_zero(self):
        assert truncate(zero(Z2, 6), 3).is_zero

    def test_beyond_depth_rejected(self):
        with pytest.raises(BadDepth):
            truncate(one(Z2, 4), 5)

    @given(e=elements(Z2, max_depth=10), d=st.integers(0, 9))
    @settings(max_examples=200)
    def test_difference_valuation(self, e, d):
        D = min(d, e.depth)
        diff = sub(truncate(e, D), e)
        assert diff.is_zero or diff.valuation >= D

    @given(e=elements(F3, max_depth=10), d=st.integers(0, 9))
    @settings(max_examples=200)
    def test_agrees_below(self, e, d):
        D = min(d, e.depth)
        t = truncate(e, D)
        for deg in range(0, D):
            assert t.digit(deg) == e.digit(deg)


class TestCells:
    def test_positional_code(self):
        e = element_from_digits([1, 0, 1], 0, Z2, 4)
        assert cell_index(e, 3) == 5

    def test_zero_code(self):
        assert cell_index(zero(Z3, 5), 4) == 0

    def test_rejects_field_elements(self):
        with pytest.raises(NegativeValuation):
            cell_index(element_from_digits([1], -1, Z2, 3), 2)

    def test_injective_over_enumeration(self):
        seen = set()
        for e in enumerate_residues(Z2, 6):
            seen.add(cell_index(e, 6))
        assert seen == set(range(64))

    @pytest.mark.parametrize("ring,D,n", [(Z2, 1, 2), (Z2, 3, 8), (Z3, 2, 9)],
                             ids=("zp2-D1", "zp2-D3", "zp3-D2"))
    def test_enumeration_counts_and_order(self, ring, D, n):
        es = list(enumerate_residues(ring, D))
        assert len(es) == n
        assert [cell_index(e, D) for e in es] == list(range(n))

    def test_restartable(self):
        first = [cell_index(e, 2) for e in enumerate_residues(F2, 2)]
        second = [cell_index(e, 2) for e in enumerate_residues(F2, 2)]
        assert first == second

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_vector_from_cell_round_trip(self, ring, dim):
        """The combined-code decoder inverts vector_cell_index on every
        depth-D code, and each entry is the canonical depth-D cell
        representative, first entry lowest."""
        for D in (1, 2) if ring.ell > 3 else (1, 2, 3):
            base = ring.ell ** D
            for code in range(base ** dim):
                v = vector_from_cell(ring, code, D, dim)
                assert v.dim == dim and v.depth == D
                assert vector_cell_index(v, D) == code
                assert v[0] == element_from_cell(ring, code % base, D)


class TestReduceToR:
    def test_drops_negative_degrees(self):
        e = element_from_digits([1, 0, 1, 1], -2, F2, 4)  # t^-2 + 1 + t
        r = reduce_to_R(e)
        assert r.lowest_degree == 0 and r.digits == (1, 1)

    def test_identity_on_R(self):
        e = from_int(6, Z2, 6)
        assert reduce_to_R(e) is e

    def test_pure_negative_becomes_zero(self):
        assert reduce_to_R(element_from_digits([1], -1, F2, 3)).is_zero


class TestTextFormat:
    @given(e=elements(Z2, min_low=-3, max_depth=10))
    @settings(max_examples=200)
    def test_round_trip(self, e):
        back = parse_element(format_element(e))
        assert back == e
        assert back.depth == max(e.depth, 1 if e.is_zero else e.depth)

    def test_example(self):
        e = parse_element("zp:2:0:1,0,1")
        assert e.ring == Z2 and e.digits == (1, 0, 1) and e.depth == 3

    def test_zero_text(self):
        e = parse_element("fq:2:0:0")
        assert e.is_zero

    @pytest.mark.parametrize("bad", ["", "zp:2:0", "xx:2:0:1", "zp:2:0:",
                                     "zp:2:a:1", "zp:2:0:1,9"])
    def test_malformed(self, bad):
        with pytest.raises((ValueError, DigitOutOfRange)):
            parse_element(bad)


class TestVectorsMatrices:
    def test_vector_norm_is_max(self):
        v = vector(from_int(4, Z2, 6), one(Z2, 6))
        assert v.norm() == Fraction(1)

    def test_vector_normalizes_depth(self):
        v = vector(one(Z2, 9), one(Z2, 5))
        assert v.depth == 5 and all(e.depth == 5 for e in v)

    @pytest.mark.parametrize("depths", [(9, 5, 7), (5, 9, 7), (9, 7, 5),
                                        (6, 6, 6)], ids=str)
    def test_vector_entries_are_a_tuple_at_the_minimum_depth(self, depths):
        """Mixed depths are cut to the minimum wherever it sits (digits at
        or above it become unknown); equal depths keep the entries.  Either
        way the entries become a tuple."""
        es = [from_int(2 ** 6 + 1, Z2, W) for W in depths]
        v = ElementVector(es)
        W = min(depths)
        assert type(v.entries) is tuple and v.depth == W
        assert v.entries == tuple(from_int(2 ** 6 + 1, Z2, 9) if W > 6
                                  else one(Z2, W) for _ in depths)
        assert all(e.depth == W for e in v)
        if len(set(depths)) == 1:
            assert all(x is y for x, y in zip(v.entries, es))

    def test_matrix_vector_product(self):
        M = ElementMatrix(((one(Z2, 8), from_int(2, Z2, 8)),))
        v = vector(from_int(3, Z2, 8), one(Z2, 8))
        out = mat_vec(M, v)
        assert out.dim == 1
        assert cell_index(out[0], 3) == 5  # 3 + 2 = 5

    def test_mat_mul_identity(self):
        I2 = ElementMatrix(((one(Z3, 6), zero(Z3, 6)),
                            (zero(Z3, 6), one(Z3, 6))))
        M = ElementMatrix(((from_int(2, Z3, 6), one(Z3, 6)),
                           (from_int(4, Z3, 6), from_int(7, Z3, 6))))
        P = mat_mul(M, I2)
        for i in range(2):
            for j in range(2):
                assert P[i, j] == M[i, j]


class TestOneEntryPaths:
    """``vector()`` of one entry and 1 x 1 matrices skip the multi-entry
    checks and normalization; what they build and what they refuse are
    unchanged."""

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_one_entry_vector_keeps_its_entry(self, ring):
        for e in (zero(ring, 3), element_from_cell(ring, 5, 4, 9),
                  element_from_digits([1, 2 % ring.ell], -2, ring, 4)):
            entries = (e,)
            v = ElementVector(entries)
            assert v.entries is entries and v.depth == e.depth
            assert ElementVector([e]).entries == entries
            assert type(ElementVector([e]).entries) is tuple
            M = ElementMatrix((entries,))
            assert M.rows == (entries,) and M.shape == (1, 1)
            fast = vector(e)  # its slot set in place, no __init__
            assert type(fast) is ElementVector and fast.entries == entries
            assert fast == v and hash(fast) == hash(v)
            assert repr(fast) == repr(v)
            assert pickle.loads(pickle.dumps(fast)) == v
            for built in (v, fast):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    built.entries = ()

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_one_entry_cell_index_is_the_entry_code(self, ring):
        """The one-entry code is the entry's cell_index, as the base-ell^D
        loop gives it, with the entry's refusals."""
        for D in (1, 3, 6):
            for code in (0, 1, ring.ell ** D - 1):
                e = element_from_cell(ring, code, D, D + 2)
                assert vector_cell_index(vector(e), D) == code \
                    == cell_index(e, D)
        with pytest.raises(BadDepth):
            vector_cell_index(vector(one(ring, 3)), 4)
        with pytest.raises(NegativeValuation):
            vector_cell_index(vector(element_from_digits([1], -1, ring, 3)), 2)

    def test_refusals_are_unchanged(self):
        e, other = one(Z2, 4), one(F2, 4)
        with pytest.raises(ValueError, match="empty vector"):
            ElementVector(())
        with pytest.raises(RingMismatch):
            ElementVector((e, other))
        with pytest.raises(AttributeError):
            ElementVector((5,))
        with pytest.raises(ValueError, match="empty matrix"):
            ElementMatrix(())
        with pytest.raises(ValueError, match="empty matrix"):
            ElementMatrix(((),))
        with pytest.raises(ValueError, match="ragged"):
            ElementMatrix(((e,), (e, e)))
        with pytest.raises(RingMismatch):
            ElementMatrix(((e,), (other,)))
        with pytest.raises(AttributeError):
            ElementMatrix(((5,),))
        # the same refusals for rows built as lists
        with pytest.raises(ValueError, match="empty matrix"):
            ElementMatrix([])
        with pytest.raises(ValueError, match="empty matrix"):
            ElementMatrix([[]])
        with pytest.raises(ValueError, match="ragged"):
            ElementMatrix([[e], [e, e]])
        with pytest.raises(RingMismatch):
            ElementMatrix([[e], [other]])
        with pytest.raises(AttributeError):
            ElementMatrix([[5]])

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_list_built_matrix_holds_tuples_and_hashes(self, ring):
        """Rows given as lists, or as a list of tuples, are stored as a
        tuple of tuples: the matrix hashes, and it equals (with the same
        hash) the matrix built from tuples.  A tuple-built matrix keeps the
        very rows it was given."""
        e, f = one(ring, 4), from_int(2, ring, 4)
        for tuples in (((e,),), ((e, f), (f, e)), ((e,), (f,))):
            for given in ([list(r) for r in tuples], list(tuples),
                          tuple(list(r) for r in tuples)):
                M = ElementMatrix(given)
                assert type(M.rows) is tuple
                assert all(type(r) is tuple for r in M.rows)
                assert M == ElementMatrix(tuples)
                assert hash(M) == hash(ElementMatrix(tuples))
                assert M.shape == (len(tuples), len(tuples[0]))
            assert ElementMatrix(tuples).rows is tuples
            assert len({ElementMatrix(tuples), ElementMatrix(
                [list(r) for r in tuples])}) == 1


def _digit_loop_mul(a, b):
    """mul as a schoolbook digit convolution, the loop that the fq product
    ran before its Kronecker substitution: (lowest degree, sig, depth),
    carries propagated for zp and each digit reduced mod ell for fq."""
    ell = a.ring.ell
    va = a.lowest_degree if a.sig else a.depth
    vb = b.lowest_degree if b.sig else b.depth
    W = min(a.depth + vb, b.depth + va)
    if not a.sig or not b.sig:
        return 0, 0, W
    low = a.lowest_degree + b.lowest_degree
    span = W - low
    da, db = list(a.digits)[:span], list(b.digits)[:span]
    ds = [0] * span
    for i, x in enumerate(da):
        for j, y in enumerate(db[:span - i], i):
            ds[j] += x * y
    if a.ring.mode is RingMode.POWER_SERIES:
        ds = [d % ell for d in ds]
    sig = sum(d * ell ** i for i, d in enumerate(ds)) % ell ** span
    if not sig:
        return 0, 0, W
    while sig % ell == 0:
        sig //= ell
        low += 1
    return low, sig, W


class TestKroneckerProduct:
    """Element mul, whose fq ell >= 3 product packs the digits into spaced
    fields and takes one integer product, against the digit loop."""

    @staticmethod
    def _check(a, b):
        got = mul(a, b)
        assert (got.lowest_degree, got.sig, got.depth) == _digit_loop_mul(a, b)

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_random_operands(self, ring):
        """Spans 1..40 and beyond the depth of the other operand, valuations
        -3..3, zero and all-(ell - 1) digit strings among them."""
        ell = ring.ell
        rnd = random.Random(f"kronecker {ring}")

        def draw():
            low = rnd.randint(-3, 3)
            n = rnd.choice((1, 2, 12, 21, 40, rnd.randint(1, 40)))
            fill = rnd.choice(("random", "top", "zero"))
            ds = [ell - 1 if fill == "top" else 0 if fill == "zero"
                  else rnd.randrange(ell) for _ in range(n)]
            return element_from_digits(ds, low, ring, low + n + rnd.randint(
                max(1 - low - n, 0), 3))

        for _ in range(300):
            self._check(draw(), draw())

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_depth_limits(self, ring):
        """Zero operands of any depth, a one-digit span, and a long operand
        cut to the short one's span."""
        ell = ring.ell
        top = [ell - 1] * 60
        cases = [
            (zero(ring, 5), one(ring, 9)),
            (one(ring, 9), zero(ring, 2)),
            (zero(ring, 3), zero(ring, 7)),
            (element_from_digits([ell - 1], 0, ring, 1),
             element_from_digits(top, 0, ring, 60)),
            (element_from_digits(top, -2, ring, 58),
             element_from_digits([1, ell - 1], 3, ring, 5)),
            (element_from_digits(top, 0, ring, 60),
             element_from_digits(top, 0, ring, 60)),
            (element_from_digits(top, -5, ring, 1),
             element_from_digits(top[:7], -4, ring, 3)),
        ]
        for a, b in cases:
            self._check(a, b)
            self._check(b, a)

    def test_wide_fields(self):
        """A residue field near 2^61, whose fields outgrow any machine word."""
        ring = power_series_ring(2 ** 61 - 1)
        rnd = random.Random(61)
        for n in (1, 5, 30):
            ds = [rnd.randrange(ring.ell) for _ in range(n)]
            es = [element_from_digits(ds[:m] or [1], -1, ring, m + 1)
                  for m in (n, max(n // 2, 1))]
            self._check(es[0], es[1])
            self._check(es[0], es[0])


class TestScalarResidueMul:
    """residue_mul by one scalar code, the read-back's z_at(w); fq:2 loops
    over the scalar's set bits only."""

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_scalar_equals_array_path(self, ring):
        ell = ring.ell
        rnd = np.random.default_rng(ell)
        for D in range(1, 31):
            m = ell ** D
            if ell ** (2 * D) >= 2 ** 63:  # the zp product must fit int64
                break
            a = np.concatenate([[0, 1, m - 1],
                                rnd.integers(0, m, 40)]).astype(np.int64)
            for w in {0, 1, m - 1, m // 2, int(rnd.integers(0, m))}:
                want = residue_mul(ring, D, a, np.full(a.shape, w))
                for scalar in (w, np.int64(w)):
                    got = residue_mul(ring, D, a, scalar)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                got = residue_mul(ring, D, a.reshape(-1, 1), w)
                assert np.array_equal(got.reshape(-1), want)

    def test_fq2_scalar_path_to_depth_30(self):
        """fq:2 at every D <= 30, where the array path is the reference;
        scalar bits at and above D are dropped as the array path drops
        them."""
        rnd = np.random.default_rng(30)
        for D in range(1, 31):
            m = 2 ** D
            a = rnd.integers(0, m, 64, dtype=np.int64)
            for w in (0, 1, m - 1, m, m + 3, int(rnd.integers(0, m))):
                want = residue_mul(F2, D, a, np.full(a.shape, w))
                assert np.array_equal(residue_mul(F2, D, a, w), want)


# The bitmap checks' rings and depths: every ring of ALL_RINGS at D 1..4,
# the larger residue fields at D 1..2.
BITMAP_DEPTHS = [pytest.param(r, D, id=f"{r}-D{D}")
                 for rings, depths in ((ALL_RINGS, (1, 2, 3, 4)),
                                       (LARGE_RINGS, (1, 2)))
                 for r in rings for D in depths]


@functools.lru_cache(maxsize=1)
def _element_hits(ring, D, pairs):
    """The (ell^D, ell^D) hits of sub(mul(a, w), c) over every depth-D w,
    for the frozenset ``pairs`` of (a, c) codes, on Element arithmetic:
    each product a*w once, less each c paired with a.  Kept for one call,
    so a test run in both argument orders, one id after the other, builds
    it once."""
    m = ring.ell ** D
    subtrahends = {}  # a -> the Elements c of its pairs
    for ac, cc in pairs:
        subtrahends.setdefault(element_from_cell(ring, ac, D), []).append(
            element_from_cell(ring, cc, D))
    hits = np.zeros((m, m), dtype=bool)
    for w in range(m):
        ew = element_from_cell(ring, w, D)
        for ea, ecs in subtrahends.items():
            product = mul(ea, ew)
            for ec in ecs:
                hits[w, cell_index(sub(product, ec), D)] = True
    hits.setflags(write=False)
    return hits


class TestResidueLayer:
    """The packed-code fast path must agree with the element layer."""

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @pytest.mark.parametrize("D", (1, 3, 5))
    def test_scalar_ops_match_elements(self, ring, D):
        m = ring.ell ** D
        codes = range(m) if m <= 32 else range(0, m, max(1, m // 32))
        for a in codes:
            for b in codes:
                ea = element_from_cell(ring, a, D, D + 2)
                eb = element_from_cell(ring, b, D, D + 2)
                # int operands give one code, not always an int
                assert int(residue_add(ring, D, a, b)) == \
                    cell_index(add(ea, eb), D)
                assert int(residue_sub(ring, D, a, b)) == \
                    cell_index(sub(ea, eb), D)
                assert int(residue_mul(ring, D, a, b)) == \
                    cell_index(mul(ea, eb), D)
                assert int(residue_neg(ring, D, a)) == cell_index(neg(ea), D)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_vector_ops_match_scalar(self, ring):
        D = 4
        m = ring.ell ** D
        a = np.arange(m, dtype=np.int64)
        for b in (0, 1, m - 1, m // 3):
            vm = residue_mul(ring, D, a, b)
            va = residue_add(ring, D, a, b)
            for i in range(0, m, 7):
                assert vm[i] == residue_mul(ring, D, int(a[i]), b)
                assert va[i] == residue_add(ring, D, int(a[i]), b)

    @staticmethod
    def _oracle_row(ring, D, a, c, w):
        """Element sub(mul(a, w), c) entry by entry, as depth-D cell codes;
        each distinct (a, c) pair is evaluated once."""
        ew = element_from_cell(ring, w, D)
        pairs = list(zip(a.tolist(), c.tolist()))
        code = {(ac, cc): cell_index(sub(mul(element_from_cell(ring, ac, D),
                                             ew),
                                         element_from_cell(ring, cc, D)), D)
                for ac, cc in set(pairs)}
        return [code[p] for p in pairs]

    @staticmethod
    def _walk_blocks(ring, D, a, c, cap, oracle, rows=None, digits=None):
        """Walk a*u - c over the low w codes u < ell^digits (default
        digits = D - 1) for the pairs ``rows`` of ``a``, ``c`` (an index
        array of shape (n,), or (C, n) for C rows walked at once; default:
        every pair, as one row), in the blocks that :func:`_block_digits`
        gives one row of n pairs under a cap of ``cap`` entries: every u is
        visited exactly once, each block covers the contiguous run u0 ..
        u0 + B - 1, each row's block ``Z[p]`` is contiguous, and row r of it
        is ``z_at`` at u0 + r and the Element oracle's (memoized per u in
        ``oracle``), restricted to row p's pairs.  The top digits of w are
        the fold's, checked by ``_check_bitmap``.  Returns the block
        lengths B."""
        if rows is None:
            rows = np.arange(len(a))
        if digits is None:
            digits = D - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring_module, "WALK_BLOCK_ENTRIES", cap)
            z_at, _ = residue_mul_sub(ring, D, a, c)
            seen, lengths = [], set()
            J = ring_module._block_digits(ring.ell, D, rows.shape[-1], digits)
            for u0, Z in ring_module._walk(ring, D, a[rows], c[rows], digits,
                                           J):
                assert isinstance(u0, int)
                assert Z.ndim == rows.ndim + 1
                assert Z.shape[:-2] + Z.shape[-1:] == rows.shape
                lengths.add(Z.shape[-2])
                for p in np.ndindex(rows.shape[:-1]):
                    assert Z[p].flags.c_contiguous
                for r in range(Z.shape[-2]):
                    u, z = u0 + r, Z[..., r, :]
                    assert np.array_equal(z, z_at(u)[rows])
                    if u not in oracle:
                        oracle[u] = np.asarray(TestResidueLayer._oracle_row(
                            ring, D, a, c, u), dtype=np.int64)
                    assert np.array_equal(z, oracle[u][rows])
                    seen.append(u)
        assert sorted(seen) == list(range(ring.ell ** digits))
        return lengths

    @staticmethod
    def _check_walk(ring, D, a, c):
        """The walk under every block size a cap can give: ell^J rows for
        each J < D, and one-row blocks when even one row is over the cap;
        over all pairs as one row, and over three rows of n pairs walked at
        once, as ``bitmap`` walks its classes: an inner run of the pairs,
        two pairs repeated and one pair repeated, as a small class is
        padded.  A block of ell^J rows needs the cap to hold
        ell^J * max(8n, ell^D) / 8 entries for n pairs a row.  Only blocks
        of J < D - 1 rows take the high-digit steps."""
        assert len(a) > 5
        oracle = {}
        n = len(a) - 5
        for rows in (np.arange(len(a)),
                     np.stack([np.arange(3, 3 + n), np.arange(n) % 2,
                               np.full(n, len(a) - 1)])):
            per_row = max(8 * rows.shape[-1], ring.ell ** D)
            for J in range(D):
                cap = -(-ring.ell ** J * per_row // 8) if J else \
                    -(-per_row // 8) - 1
                assert TestResidueLayer._walk_blocks(
                    ring, D, a, c, cap, oracle, rows) == {ring.ell ** J}

    @staticmethod
    def _unpacked(rows, m):
        """The (ell^D, ell^D) bool hits of the packed ``bitmap()`` rows,
        after checking their shape, dtype and zero padding bits."""
        assert rows.shape == (m, -(-m // 8)) and rows.dtype == np.uint8
        flags = np.unpackbits(rows, axis=1)
        assert not flags[:, m:].any()
        return flags[:, :m].view(bool)

    @staticmethod
    def _check_bitmap(ring, D, a, c):
        """``bitmap()`` of residue_mul_sub, unpacked, equals a per-w
        scatter of ``z_at`` and one of the Element oracle
        (:func:`_element_hits`), over every w."""
        m = ring.ell ** D
        z_at, bitmap = residue_mul_sub(ring, D, a, c)
        got = TestResidueLayer._unpacked(bitmap(), m)
        assert got.shape == (m, m) and got.dtype == bool
        want = np.zeros((m, m), dtype=bool)
        for w in range(m):
            want[w, z_at(w)] = True
        assert np.array_equal(got, want)
        pairs = frozenset(zip(a.tolist(), c.tolist()))
        assert np.array_equal(got, _element_hits(ring, D, pairs))

    @staticmethod
    def _check_mul_sub(ring, D, a, c, w):
        """``z_at`` of residue_mul_sub against Element sub(mul(...)) at
        each w, and against the vectorized residue_sub(residue_mul(...))
        over all of ``w`` at once; its walk (when ell^D is small) block by
        block against ``z_at`` and the Element oracle."""
        z_at, _ = residue_mul_sub(ring, D, a, c)
        if ring.ell ** D <= 5 ** 4:
            TestResidueLayer._check_walk(ring, D, a, c)
        block = residue_sub(ring, D, residue_mul(ring, D, a, w[:, None]), c)
        for i, wc in enumerate(w.tolist()):
            got = z_at(wc)
            assert got.shape == (len(a),)
            assert np.array_equal(got, block[i])
            assert got.tolist() == TestResidueLayer._oracle_row(ring, D, a, c,
                                                                wc)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @pytest.mark.parametrize("D", (1, 2, 3, 4))
    def test_mul_sub_matches_residue_ops_and_elements(self, ring, D):
        """Even and odd D: the fq ell >= 3 walk splits z into equal or
        unequal halves."""
        m = ring.ell ** D
        rnd = random.Random(10 * ring.ell + D)
        a = [rnd.randrange(m) for _ in range(12)]
        a = np.asarray(a + a[:5] + [0, m - 1, 0], dtype=np.int64)  # repeats
        assert len(np.unique(a)) < len(a)
        c = np.asarray([rnd.randrange(m) for _ in a], dtype=np.int64)
        w = np.asarray([0, 1, m - 1] + [rnd.randrange(m) for _ in range(4)],
                       dtype=np.int64)
        self._check_mul_sub(ring, D, a, c, w)

    @pytest.mark.parametrize("ring", (Z3, Z5, Z7), ids=str)
    @pytest.mark.parametrize("D", (1, 3))
    def test_mul_sub_zp_walk_reduction_edges(self, ring, D):
        """The zp walk reduces z + a by one conditional subtraction; on its
        first step these pairs give z + a = m - 1, m and 2m - 2, the sums
        just below, at and furthest above the modulus."""
        m = ring.ell ** D
        a = np.asarray([m - 1, 1, m - 1, m - 1, 1, 0], dtype=np.int64)
        c = np.asarray([1, 1, m - 1, 0, 2, 0], dtype=np.int64)
        first_sums = set(((-c) % m + a).tolist())
        assert {m - 1, m, 2 * m - 2} <= first_sums
        self._check_walk(ring, D, a, c)

    def test_mul_sub_deep_fq3(self):
        """No lane-width limit: fq:3 at D = 19, the deepest depth whose
        pair codes fit int64 (3^19 > 2^30)."""
        D = 19
        assert 3 ** (2 * D) < 2 ** 63 <= 3 ** (2 * D + 2)
        m = 3 ** D
        rnd = random.Random(D)
        a = [rnd.randrange(m) for _ in range(5)]
        a = np.asarray(a + a[:2] + [m - 1], dtype=np.int64)
        c = np.asarray([rnd.randrange(m) for _ in a], dtype=np.int64)
        w = np.asarray([0, m - 1, rnd.randrange(m)], dtype=np.int64)
        self._check_mul_sub(F3, D, a, c, w)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_mul_sub_empty_pairs(self, ring):
        """No pairs: one block of every low w, each row empty, for one row
        and for two, and an empty bitmap."""
        empty = np.zeros(0, dtype=np.int64)
        z_at, bitmap = residue_mul_sub(ring, 3, empty, empty)
        assert z_at(5).shape == (0,)
        for rows in (empty, np.zeros((2, 0), dtype=np.int64)):
            assert self._walk_blocks(ring, 3, empty, empty,
                                     WALK_BLOCK_ENTRIES, {},
                                     rows) == {ring.ell ** 2}
        assert not bitmap().any()

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_mul_sub_block_sizes_at_the_cap(self, ring):
        """Under the module cap: a short pair array fits every low w of
        depth 2 in one block, one longer than the cap gets one-row blocks.
        The block size follows the length of a row, not the number of
        rows: 800 rows of the short array, over the cap together, still
        take one block, and two rows of the long one take one-row blocks.
        The long rows repeat 22 pairs, so the oracle stays cheap."""
        D = 2
        m = ring.ell ** D
        rnd = random.Random(ring.ell)
        a = np.asarray([rnd.randrange(m) for _ in range(20)] + [0, m - 1],
                       dtype=np.int64)
        c = np.asarray([rnd.randrange(m) for _ in a], dtype=np.int64)
        short = np.arange(len(a))
        assert 800 * len(short) > WALK_BLOCK_ENTRIES
        for rows in (short, np.stack([np.roll(short, p) for p in range(800)])):
            assert self._walk_blocks(ring, D, a, c, WALK_BLOCK_ENTRIES,
                                     {}, rows) == {ring.ell}
        long = np.resize(short, WALK_BLOCK_ENTRIES + 1)
        for rows in (long, np.stack([long, long[::-1]])):
            assert self._walk_blocks(ring, D, a, c, WALK_BLOCK_ENTRIES,
                                     {}, rows) == {1}

    @staticmethod
    def _fold_codes(ring, D, kind, rnd):
        """Codes for the argument ``a`` of one class mix: every a = 0
        (mod ell), none, or both, with the first four repeated last; or no
        pairs."""
        m, ell = ring.ell ** D, ring.ell
        if kind == "empty":
            return []
        if kind == "all_zero":
            return [0] + [ell * rnd.randrange(m // ell) for _ in range(8)]
        if kind == "none_zero":
            return [1, m - 1] + [ell * rnd.randrange(m // ell)
                                 + rnd.randrange(1, ell) for _ in range(8)]
        codes = [0, m - 1] + [rnd.randrange(m) for _ in range(8)]
        return codes + codes[:4]

    @pytest.mark.parametrize("order", ("kakeya", "nikodym"))
    @pytest.mark.parametrize("kind",
                             ("all_zero", "none_zero", "mixed", "empty"))
    @pytest.mark.parametrize("ring, D", BITMAP_DEPTHS)
    def test_bitmap_folds_the_top_w_digit(self, ring, D, kind, order):
        """The folded bitmap against a per-w scatter of ``z_at`` and of the
        Element oracle, for each class mix of ``a``, in both argument
        orders over pairs sorted by x: kakeya passes (x, y), so ``a`` is
        sorted, and nikodym (y, x), so ``c`` is."""
        m = ring.ell ** D
        rnd = random.Random(f"{ring}-{D}-{kind}")
        first = self._fold_codes(ring, D, kind, rnd)
        second = [rnd.randrange(m) for _ in first]
        if kind == "mixed":  # the repeated codes repeat whole pairs
            second[-4:] = second[:4]
            assert {v % ring.ell for v in first} >= {0, ring.ell - 1}
            assert len(set(zip(first, second))) < len(first)
        x, y = (first, second) if order == "kakeya" else (second, first)
        pairs = sorted(zip(x, y))
        x = np.asarray([p[0] for p in pairs], dtype=np.int64)
        y = np.asarray([p[1] for p in pairs], dtype=np.int64)
        a, c = (x, y) if order == "kakeya" else (y, x)
        self._check_bitmap(ring, D, a, c)

    @pytest.mark.parametrize("big", ("class_0", "class_last"))
    @pytest.mark.parametrize("ring, D", [
        pytest.param(r, D, id=f"{r}-D{D}")
        for r, D in ((Z2, 4), (F2, 4), (Z3, 3), (F3, 3), (Z5, 2), (F5, 2))])
    def test_bitmap_pads_unbalanced_classes(self, ring, D, big):
        """One class of a mod ell holds a single pair and another 40: the
        fold walks them as two rows of 40 pairs, the single pair repeated
        (``check_class_rows``), and the bitmap equals a per-w scatter of
        ``z_at`` and of the Element oracle.  c's top digit is never
        ell - 1, so no group is full and every pair is folded."""
        ell, m = ring.ell, ring.ell ** D
        top = m // ell
        rnd = random.Random(f"{ring}-{D}-{big}")
        g_big, g_one = (0, ell - 1) if big == "class_0" else (ell - 1, 0)

        def pair(g):
            return (rnd.randrange(top) * ell + g,
                    rnd.randrange(top) + rnd.randrange(ell - 1) * top)
        many = set()
        while len(many) < 40:
            many.add(pair(g_big))
        pairs = sorted(many | {pair(g_one)})
        a = np.asarray([p[0] for p in pairs], dtype=np.int64)
        c = np.asarray([p[1] for p in pairs], dtype=np.int64)
        walked, real = [], ring_module._walk

        def spy(rg, depth, a, c, *rest):
            walked.append((a, c))
            return real(rg, depth, a, c, *rest)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring_module, "_walk", spy)
            self._check_bitmap(ring, D, a, c)
        (wa, wc), = walked
        assert wa.shape == (2, 40)
        check_class_rows(ell, wa, wc, pairs)

    @staticmethod
    def _lift_pairs(ring, D, rnd):
        """(a, c) pairs of up to four distinct groups (a, c mod ell^(D-1)):
        two full, with all ell top digits of c; one missing top digit 0,
        followed by the pair (a, c1 + 1), whose sort key is next to its
        last, so ell keys in a row straddle two groups; one as long as a
        full group, its repeated pair hiding a missing top digit.  Pairs of
        the first and last group repeat."""
        ell, m = ring.ell, ring.ell ** D
        top = m // ell
        heads = [divmod(h, top)
                 for h in rnd.sample(range(m * top), min(4, m * top))]
        pairs = []
        for i, (a, c1) in enumerate(heads):
            digits = list(range(ell))
            if i >= 2:
                del digits[0 if i == 2 else rnd.randrange(ell)]
            if i == 3:
                digits.append(digits[0])
            pairs += [(a, c1 + s * top) for s in digits]
            if i == 2:
                pairs.append((a, (c1 + 1) % top))
        return pairs + pairs[:2] + pairs[-2:]

    @pytest.mark.parametrize("ring, D", BITMAP_DEPTHS)
    def test_bitmap_lifts_the_full_top_digit_groups(self, ring, D):
        """Planted full groups, groups missing a top digit and repeated
        pairs, in both argument orders (sorted by a, as kakeya passes them,
        and by c, as nikodym does): the bitmap against a per-w scatter of
        ``z_at`` and of the Element oracle.  The full groups, and only they,
        go one depth down, projected once each; every other distinct pair
        is folded, in the walk row of its class a mod ell."""
        ell, m = ring.ell, ring.ell ** D
        top = m // ell
        pairs = self._lift_pairs(ring, D, random.Random(f"{ring}-{D}"))
        groups = {}
        for ac, cc in pairs:
            groups.setdefault((ac, cc % top), set()).add(cc // top)
        full = {g for g, s in groups.items() if len(s) == ell} if D > 1 \
            else set()
        assert len(full) == 2 or D == 1
        lifted = sorted((ac % top, c1) for ac, c1 in full)
        folded = sorted({p for p in pairs if (p[0], p[1] % top) not in full})
        for key in (None, lambda p: p[::-1]):
            pairs.sort(key=key)
            a = np.asarray([p[0] for p in pairs], dtype=np.int64)
            c = np.asarray([p[1] for p in pairs], dtype=np.int64)
            seen = {}

            def spy(name, real):
                def call(rg, depth, a, c, *rest):
                    seen.setdefault((name, depth), []).append((a, c))
                    return real(rg, depth, a, c, *rest)
                return call
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ring_module, "_bitmap",
                           spy("lift", ring_module._bitmap))
                mp.setattr(ring_module, "_walk",
                           spy("fold", ring_module._walk))
                self._check_bitmap(ring, D, a, c)
            assert sorted(p for la, lc in seen.get(("lift", D - 1), [])
                          for p in zip(la.tolist(), lc.tolist())) == lifted
            (fa, fc), = seen[("fold", D)]
            check_class_rows(ell, fa, fc, folded)

    @pytest.mark.parametrize("ring, D", [
        pytest.param(r, D, id=f"{r}-D{D}")
        for rings, depths in ((ALL_RINGS, (2, 3, 4)), (LARGE_RINGS, (2,)))
        for r in rings for D in depths])
    def test_full_groups_lift_the_bitmap_one_depth_down(self, ring, D):
        """The identity itself: on full groups only, ``bitmap()`` at depth
        D is the depth-(D-1) hit array of the projected pairs (a mod
        ell^(D-1), c mod ell^(D-1)), scattered from its ``z_at``, copied to
        every top digit of w and of z."""
        ell, m = ring.ell, ring.ell ** D
        top = m // ell
        rnd = random.Random(f"{ring}-{D}-identity")
        heads = [(rnd.randrange(m), rnd.randrange(top)) for _ in range(5)]
        a = np.asarray([h[0] for h in heads for _ in range(ell)],
                       dtype=np.int64)
        c = np.asarray([c1 + s * top for _, c1 in heads for s in range(ell)],
                       dtype=np.int64)
        z_low, _ = residue_mul_sub(ring, D - 1, a % top, c % top)
        low = np.zeros((top, top), dtype=bool)
        for u in range(top):
            low[u, z_low(u)] = True
        want = np.tile(low, (ell, ell))
        assert np.array_equal(
            self._unpacked(residue_mul_sub(ring, D, a, c)[1](), m), want)

    @pytest.mark.parametrize("cap", (WALK_BLOCK_ENTRIES, 1),
                             ids=("blocks", "one_row_blocks"))
    @pytest.mark.parametrize("ring, D", [
        pytest.param(r, D, id=f"{r}-D{D}")
        for rings, depths in (((F3, Z3, F5, Z5), (2, 3, 4)),
                              ((F7, Z7), (2,)), ((F2, Z2), range(2, 8)))
        for r in rings for D in depths])
    def test_bitmap_lift_and_bool_fold_across_blocks(self, ring, D, cap):
        """Six full groups mixed with random pairs, some of both repeated:
        the tiled lift with the bool fold or-ed into it equals, row for
        row, ``np.packbits`` of a per-w scatter of ``z_at``.  Under a cap
        of one entry every block of the fold is one row u, and every block
        of the bool lift tile (where a lower row is not whole bytes) is at
        most 8 // ell^D rows, one row but at ell = 2 D 2, so each must land
        at its own rows; under the module's cap they are larger.  Only the
        fold's block size is asserted."""
        ell, m = ring.ell, ring.ell ** D
        top = m // ell
        rnd = random.Random(f"{ring}-{D}-lift-fold")
        heads = [(rnd.randrange(m), rnd.randrange(top)) for _ in range(6)]
        full = [(ac, c1 + s * top) for ac, c1 in heads for s in range(ell)]
        folded = [(rnd.randrange(m), rnd.randrange(m)) for _ in range(20)]
        pairs = full + folded + full[:3] + folded[:3]
        a = np.asarray([p[0] for p in pairs], dtype=np.int64)
        c = np.asarray([p[1] for p in pairs], dtype=np.int64)
        lifts, blocks, real_walk = [], [], ring_module._walk
        real_bitmap = ring_module._bitmap

        def lift(rg, depth, a, c):
            lifts.append(depth)
            return real_bitmap(rg, depth, a, c)

        def walk(rg, depth, a, c, digits, J):
            if depth == D:
                blocks.append(ell ** J)
            return real_walk(rg, depth, a, c, digits, J)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring_module, "WALK_BLOCK_ENTRIES", cap)
            mp.setattr(ring_module, "_bitmap", lift)
            mp.setattr(ring_module, "_walk", walk)
            rows = residue_mul_sub(ring, D, a, c)[1]()
        assert D - 1 in lifts
        (B,) = blocks
        assert (B == 1) == (cap == 1)
        z_at, _ = residue_mul_sub(ring, D, a, c)
        assert rows.shape == (m, -(-m // 8)) and rows.dtype == np.uint8
        row = np.empty(m, dtype=bool)
        for w in range(m):
            row[:] = False
            row[z_at(w)] = True
            assert np.array_equal(rows[w], np.packbits(row)), w


# (ring, D, k) of the packed fold: every depth from the first whose chunks
# of 2^(D-k) z cells are whole bytes (D - k = 3) to D = 9, for k = 2 and 3
PACKED_FOLDS = [pytest.param(r, D, k, id=f"{r}-D{D}-k{k}")
                for r in (F2, Z2) for D in range(5, 10) for k in (2, 3)
                if D - k >= 3]


class TestPackedFold:
    """At ell = 2 ``bitmap()`` folds the top k digits of w in packed bytes:
    row w = u + t*2^(D-k) of class g = a mod 2^k is row u with z's 2^k
    chunks permuted, z's top k digits moved by g*t (+ on zp, the carry-free
    product's xor on fq).  Each test forces k (and k = 1, the bool fold,
    for comparison) through ``_fold_digits``."""

    @staticmethod
    def _pairs(D, kind, rnd):
        """(a, c) code pairs of one kind: random; one class of a mod 8 (so
        one mod 4); every class mod 8, of unequal sizes; one pair; a few
        pairs each repeated; or full groups (both top digits of c over one
        (a, c mod 2^(D-1))) mixed with folded pairs, some repeated."""
        m, top = 2 ** D, 2 ** (D - 1)
        if kind == "random":
            return [(rnd.randrange(m), rnd.randrange(m)) for _ in range(60)]
        if kind == "one_class":
            return [(8 * rnd.randrange(m // 8) + 3, rnd.randrange(m))
                    for _ in range(30)]
        if kind == "every_class":
            return [(8 * rnd.randrange(m // 8) + g, rnd.randrange(m))
                    for g in range(8) for _ in range(1 + 3 * g)]
        if kind == "single":
            return [(rnd.randrange(1, m, 2), rnd.randrange(m))]
        if kind == "repeated":
            few = [(rnd.randrange(m), rnd.randrange(m)) for _ in range(3)]
            return few * 5
        heads = [(rnd.randrange(m), rnd.randrange(top)) for _ in range(6)]
        full = [(ac, c1 + s * top) for ac, c1 in heads for s in range(2)]
        folded = [(rnd.randrange(m), rnd.randrange(m)) for _ in range(20)]
        return full + folded + full[:3] + folded[:3]

    @staticmethod
    def _bitmap(ring, D, a, c, k, cap=WALK_BLOCK_ENTRIES):
        """``bitmap()`` with ``_fold_digits`` forced to k at every depth
        whose chunks are whole bytes, and 1 below, and walk blocks capped
        at ``cap`` entries; and the arrays and block lengths of each packed
        fold's walk at depth D."""
        walked = []
        real = ring_module._walk

        def spy(rg, depth, a, c, digits, J):
            if depth == D:
                walked.append((a, c, digits, 2 ** J))
            return real(rg, depth, a, c, digits, J)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring_module, "_fold_digits",
                       lambda ell, depth: k if depth - k >= 3 else 1)
            mp.setattr(ring_module, "_walk", spy)
            mp.setattr(ring_module, "WALK_BLOCK_ENTRIES", cap)
            return residue_mul_sub(ring, D, a, c)[1](), walked

    @pytest.mark.parametrize("cap", (WALK_BLOCK_ENTRIES, 1),
                             ids=("blocks", "one_row_blocks"))
    @pytest.mark.parametrize("kind", ("random", "one_class", "every_class",
                                      "single", "repeated", "lift_and_fold"))
    @pytest.mark.parametrize("ring, D, k", PACKED_FOLDS)
    def test_packed_fold_equals_bool_fold_and_z_at(self, ring, D, k, kind,
                                                   cap):
        """Row for row, the packed fold equals the bool fold of one digit
        and ``np.packbits`` of a per-w scatter of ``z_at``; its walk steps
        one row per class a mod 2^k over the 2^(D-k) low w codes.  Under
        the module's cap the rows often fit one block; under a cap of one
        entry each block is one row, and the fold ors rounds of 8 blocks."""
        m, top = 2 ** D, 2 ** (D - 1)
        pairs = self._pairs(D, kind, random.Random(f"{ring}-{D}-{k}-{kind}"))
        a = np.asarray([p[0] for p in pairs], dtype=np.int64)
        c = np.asarray([p[1] for p in pairs], dtype=np.int64)
        got, walked = self._bitmap(ring, D, a, c, k, cap)
        bool_fold, _ = self._bitmap(ring, D, a, c, 1)
        z_at, _ = residue_mul_sub(ring, D, a, c)
        flags = np.zeros((m, m), dtype=bool)
        for w in range(m):
            flags[w, z_at(w)] = True
        want = np.packbits(flags, axis=1)
        assert got.shape == want.shape and got.dtype == np.uint8
        for w in range(m):
            assert np.array_equal(got[w], want[w]), w
        assert np.array_equal(got, bool_fold)
        groups = {}
        for ac, cc in pairs:
            groups.setdefault((ac, cc % top), set()).add(cc // top)
        folded = {p for p in pairs if len(groups[p[0], p[1] % top]) < 2}
        assert folded
        if kind == "lift_and_fold":
            assert len(folded) < len(set(pairs))
        (fa, fc, digits, B), = walked
        assert digits == D - k and (B == 1 or cap > 1)
        check_class_rows(2 ** k, fa, fc, folded)

    def test_fold_digits_rule(self):
        """The bool fold of one digit up to D = 7 and at ell >= 3, k = 2 at
        D = 8 and k = 3 from D = 9, where a chunk is whole bytes."""
        fold = ring_module._fold_digits
        assert [fold(2, D) for D in range(1, 17)] == \
            [1] * 7 + [2] + [3] * 8
        assert all(D - fold(2, D) >= 3 for D in range(8, 17))
        assert {fold(ell, D) for ell in (3, 5, 7) for D in range(1, 12)} \
            == {1}


def _oracle(ring, op, a, b):
    """(depth, lowest degree, digits over [lowest, depth)) of a op b, where
    a and b are (lowest degree, digit list) pairs: integer arithmetic for
    zp, digitwise sums and a convolution mod ell for fq."""
    ell = ring.ell
    (la, da), (lb, db) = a, b
    if op == "add":
        low, W = min(la, lb), min(la + len(da), lb + len(db))
        pa = [0] * (la - low) + da
        pb = [0] * (lb - low) + db
    elif op == "neg":
        low, W, pa, pb = la, la + len(da), da, []
    else:
        def eff(lo, ds):  # valuation; the depth bounds a zero's
            nz = [i for i, d in enumerate(ds) if d]
            return lo + nz[0] if nz else lo + len(ds)
        low = la + lb
        W = min(la + len(da) + eff(lb, db), lb + len(db) + eff(la, da))
        pa, pb = da, db
        if not any(da) or not any(db):
            return W, low, [0] * max(W - low, 0)
    n = W - low
    if ring.mode is RingMode.PADIC:
        ia = sum(d * ell ** i for i, d in enumerate(pa))
        ib = sum(d * ell ** i for i, d in enumerate(pb))
        value = {"add": ia + ib, "neg": -ia, "mul": ia * ib}[op] % ell ** n
        ds = []
        for _ in range(n):
            value, r = divmod(value, ell)
            ds.append(r)
    else:
        ga = pa + [0] * n
        gb = pb + [0] * n
        ds = [{"add": ga[j] + gb[j], "neg": -ga[j],
               "mul": sum(ga[i] * gb[j - i] for i in range(j + 1))}[op] % ell
              for j in range(n)]
    return W, low, ds


class TestWideOracle:
    """Element add/neg/mul against integer and polynomial arithmetic on spans
    whose ell^span passes 2^63 (beyond any int64 code)."""

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_ops_match_oracle(self, ring):
        ell = ring.ell
        max_span = 70 if ell == 2 else 40
        assert ell ** max_span > 2 ** 63
        rnd = random.Random(str(ring))

        def draw():
            low = rnd.randint(-3, 3)
            span = rnd.choice((1, 2, max_span, rnd.randint(1, max_span)))
            span = max(span, 1 - low)
            ds = [rnd.randrange(ell) for _ in range(span)]
            ds[0] = rnd.choice((0, ds[0]))
            return low, ds

        for _ in range(60):
            a, b = draw(), draw()
            ea, eb = (element_from_digits(ds, lo, ring, lo + len(ds))
                      for lo, ds in (a, b))
            for op, got in (("add", add(ea, eb)), ("neg", neg(ea)),
                            ("mul", mul(ea, eb))):
                W, low, ds = _oracle(ring, op, a, b)
                assert got.depth == W, op
                assert [got.digit(d) for d in range(low, W)] == ds, op
                assert type(got.digits) is tuple
                assert all(type(d) is int for d in got.digits)

    def test_digits_are_python_ints_from_numpy_codes(self):
        e = element_from_cell(F3, np.int64(17), 4)
        assert e.digits == (2, 2, 1)
        assert all(type(d) is int for d in e.digits)
