"""The layered construction: schedule, value sets, enumeration, evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.errors import BadIndex, InsufficientDepth, NotInSk
from kakeya.phi import (
    MatrixFn,
    PhiConfig,
    PhiVariant,
    alpha,
    block_offset,
    continuity_modulus,
    decode_matrix_fn,
    dh_residue_table,
    index_of_constant_matrix,
    lambda_floor,
    matrix_fn_eval,
    omega_block_size,
    phi_dh_eval,
    phi_eval,
    phi_input_depth,
    phi_partial,
    phi_residue_table,
    projection,
    required_phi_input_depth,
    series_sum,
    series_term,
    series_terms,
    sk_element_at,
    sk_elements,
    sk_index_of,
    sk_size,
    summand_valuation_floor,
    tail_cutoff,
)
from kakeya.phi import _radix_digits
from kakeya.ring import (
    ElementMatrix,
    ElementVector,
    add,
    cell_index,
    element_from_cell,
    element_from_digits,
    format_element,
    mat_vec,
    mul,
    reduce_to_R,
    sub,
    truncate,
    vector,
    zero,
)

from conftest import (ALL_RINGS, EQUIV_RINGS, F2, F3, F5, F7, Z2, Z3, Z5, Z7,
                      elements)

CFG_F2 = PhiConfig(F2)
CFG_Z2 = PhiConfig(Z2)


def cell_vec(ring, code, depth, W=None):
    return ElementVector((element_from_cell(ring, code, depth, W or depth),))


class TestSchedule:
    def test_alpha_values(self):
        assert [alpha(j) for j in (0, 1, 2, 3)] == [0, 1, 3, 6]

    def test_alpha_increment_identity(self):
        for n in range(101):
            assert alpha(n + 1) - alpha(n) == n + 1

    def test_alpha_negative_rejected(self):
        with pytest.raises(BadIndex):
            alpha(-1)

    def test_lambda_floor_against_power_scan(self):
        # independent oracle: largest e with ell^e <= k, found by scanning
        for ell in (2, 3, 5):
            for k in range(1, 300):
                e = 0
                while ell ** (e + 1) <= k:
                    e += 1
                assert lambda_floor(k, ell) == e

    def test_lambda_examples(self):
        assert lambda_floor(1, 2) == 0
        assert lambda_floor(2, 2) == 1
        assert lambda_floor(9, 3) == 2

    def test_lambda_rejects_zero(self):
        with pytest.raises(BadIndex):
            lambda_floor(0, 2)


class TestProjection:
    def test_slice_one(self):
        x = vector(element_from_digits([1, 1, 1, 1, 1], 0, F2, 8))
        p1 = projection(x, 1)[0]
        assert [p1.digit(d) for d in range(5)] == [0, 1, 1, 0, 0]

    def test_zero(self):
        for j in range(4):
            assert projection(vector(zero(F2, 20)), j)[0].is_zero

    def test_depth_checked(self):
        with pytest.raises(InsufficientDepth):
            projection(vector(element_from_digits([1], 0, F2, 2)), 2)

    def test_partial_sums_equal_truncation_exhaustive(self):
        # digit bookkeeping identity: sum_{j<=m} p_j(x) = truncate(x, alpha(m+1))
        depth = alpha(5)
        for code in range(2 ** 10):
            x = vector(element_from_cell(F2, code, 10, depth))
            for m in range(4):
                acc = zero(F2, depth)
                for j in range(m + 1):
                    acc = add(acc, projection(x, j)[0])
                assert acc == truncate(x[0], alpha(m + 1))


class TestValueSets:
    def test_s1_elements(self):
        got = [format_element(e) for e in sk_elements(1, F2)]
        assert got == ["fq:2:0:0,0", "fq:2:0:1,0", "fq:2:1:1", "fq:2:0:1,1"]

    def test_s2_count(self):
        assert len(list(sk_elements(2, F2))) == 16
        assert sk_size(2, 2) == 16

    def test_zero_in_every_sk(self):
        for k in (1, 2, 3, 5):
            assert next(iter(sk_elements(k, F3))).is_zero

    def test_index_round_trip(self):
        for k in (1, 2):
            for n in range(sk_size(k, 3)):
                assert sk_index_of(sk_element_at(k, F3, n), k) == n

    def test_support_bounds(self):
        for k in (1, 2, 3):
            lam = lambda_floor(k, 2)
            for e in sk_elements(k, Z2):
                if not e.is_zero:
                    assert e.lowest_degree >= -lam
                    assert e.lowest_degree + len(e.digits) - 1 <= k


class TestEnumeration:
    def test_block_sizes(self):
        assert omega_block_size(1, 2, 1, 1) == 16
        assert omega_block_size(2, 2, 1, 1) == 16 ** 4
        assert omega_block_size(1, 2, 1, 2) == 256

    def test_index_zero_is_constant_zero(self):
        r = decode_matrix_fn(0, CFG_F2)
        assert r.k_block == 1
        assert all(r.table_value(0, 0, c).is_zero for c in range(2))

    def test_first_of_second_block(self):
        r = decode_matrix_fn(16, CFG_F2)
        assert r.k_block == 2 and r.inner_index == 0

    @pytest.mark.parametrize("cfg", (CFG_F2, PhiConfig(F2, 1, 2),
                                     PhiConfig(Z3, 2, 2), PhiConfig(F5)),
                             ids=("f2", "f2-q2", "z3-2x2", "f5"))
    def test_members_at_block_bounds(self, cfg):
        """The first and last members of Omega_1 to Omega_3 decode to the
        block and inner index that ``block_offset`` places them at."""
        for k in (1, 2, 3):
            first, nxt = block_offset(k, cfg), block_offset(k + 1, cfg)
            for j in (first, first + 1, nxt - 1):
                r = decode_matrix_fn(j, cfg)
                assert (r.k_block, r.inner_index) == (k, j - first), j

    def test_zero_matrix_index_zero(self):
        M = ElementMatrix(((zero(F2, 2),),))
        assert index_of_constant_matrix(M, 1) == 0

    def test_constant_round_trip_all_k1(self):
        for n in range(4):
            M = ElementMatrix(((sk_element_at(1, F2, n),),))
            j = index_of_constant_matrix(M, 1)
            r = decode_matrix_fn(j, CFG_F2)
            assert r.k_block == 1
            for c in range(2):
                assert r.table_value(0, 0, c) == M[0, 0]

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    @pytest.mark.parametrize("shape", ((1, 2), (2, 1), (2, 2)), ids=str)
    @pytest.mark.parametrize("k", (1, 2))
    def test_constant_round_trip_multi_entry(self, ring, shape, k):
        """Entries carry distinct S_k values.  The index is pinned to the
        documented layout, read independently: entries row-major outermost,
        then cells, the first slot most significant."""
        q, p = shape
        m = sk_size(k, ring.ell)
        values = [[m - 1 - (row * p + col) for col in range(p)]
                  for row in range(q)]
        M = ElementMatrix(tuple(tuple(sk_element_at(k, ring, n) for n in vs)
                                for vs in values))
        cfg = PhiConfig(ring, p_dim=p, q_dim=q)
        radix = m ** ring.ell ** (k * p)  # one entry's run of cell digits
        inner = 0
        for vs in values:
            for n in vs:  # n in every cell: digits n...n = n (radix-1)/(m-1)
                inner = inner * radix + n * (radix - 1) // (m - 1)
        j = index_of_constant_matrix(M, k)
        assert j == block_offset(k, cfg) + inner < block_offset(k + 1, cfg)
        r = decode_matrix_fn(j, cfg)
        assert r.k_block == k
        # every cell of every entry: at ell = 7, k = 2, 2 x 2 that is
        # 9,604 slots of an index of about 81,000 bits
        for cell in range(r.n_cells):
            for row in range(q):
                for col in range(p):
                    assert r.table_value(row, col, cell) == M[row, col]

    def test_not_in_sk(self):
        bad = element_from_digits([1], 2, F2, 4)  # degree k+1 digit
        with pytest.raises(NotInSk):
            index_of_constant_matrix(ElementMatrix(((bad,),)), 1)

    def test_depth_discipline(self):
        for j in range(100):
            r = decode_matrix_fn(j, CFG_F2)
            assert r.k_block <= max(j, 1)

    def test_every_block1_table_recurs_in_block2(self):
        """Each Omega_1 member reappears in the Omega_2 block with the same
        values on refined cells (nesting of the blocks)."""
        m2 = sk_size(2, 2)
        lam2 = lambda_floor(2, 2)
        for inner1 in range(16):
            r1 = MatrixFn(CFG_F2, 1, inner1)
            # build the Omega_2 inner index of the same function
            inner2 = 0
            for c in range(4):
                v = r1.table_value(0, 0, c % 2)
                n2 = sk_index_of(v, 2)
                inner2 += n2 * m2 ** (4 - 1 - c)
            j2 = block_offset(2, CFG_F2) + inner2
            r2 = decode_matrix_fn(j2, CFG_F2)
            assert r2.k_block == 2
            for c in range(4):
                assert r2.table_value(0, 0, c) == r1.table_value(0, 0, c % 2)


class TestMatrixFnEval:
    def test_constant_everywhere(self):
        val = sk_element_at(1, F2, 3)
        j = index_of_constant_matrix(ElementMatrix(((val,),)), 1)
        r = decode_matrix_fn(j, CFG_F2)
        for code in range(8):
            out = matrix_fn_eval(r, cell_vec(F2, code, 3))
            assert out[0, 0] == val

    def test_locally_constant(self):
        for j in range(16):
            r = decode_matrix_fn(j, CFG_F2)
            for code in range(8):
                a = matrix_fn_eval(r, cell_vec(F2, code, 3))
                b = matrix_fn_eval(r, cell_vec(F2, code % 2, 3))  # same depth-1 cell
                assert a[0, 0] == b[0, 0]

    def test_depth_requirement(self):
        r = decode_matrix_fn(16, CFG_F2)  # k_block 2
        with pytest.raises(InsufficientDepth):
            matrix_fn_eval(r, cell_vec(F2, 1, 1))

    def test_omega1_sweep_valuations(self):
        for j in range(16):
            r = decode_matrix_fn(j, CFG_F2)
            for code in range(2):
                e = matrix_fn_eval(r, cell_vec(F2, code, 2))[0, 0]
                assert e.is_zero or e.valuation >= -lambda_floor(1, 2)


class TestPhiEval:
    def test_phi_zero_is_zero(self):
        out = phi_eval(vector(zero(F2, 30)), CFG_F2, 8)
        assert out[0].is_zero

    def test_range_in_R_exhaustive(self):
        X = required_phi_input_depth(8, 2)
        for code in range(2 ** X):
            e = phi_eval(cell_vec(F2, code, X), CFG_F2, 8)[0]
            assert e.is_zero or e.valuation >= 0

    def test_prefix_consistency_exhaustive_small(self):
        X = required_phi_input_depth(7, 2)
        for code in range(2 ** X):
            x = cell_vec(Z2, code, X)
            a = phi_eval(x, CFG_Z2, 4)[0]
            b = truncate(phi_eval(x, CFG_Z2, 7)[0], 4)
            assert a == b

    @given(code=st.integers(0, 3 ** 7 - 1), d=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_prefix_consistency_ell3(self, code, d):
        cfg = PhiConfig(F3)
        X = max(required_phi_input_depth(d + 3, 3), 7)
        x = cell_vec(F3, code, 7, X)
        lo = phi_eval(x, cfg, d)[0]
        hi = phi_eval(x, cfg, d + 3)[0]
        assert truncate(hi, d) == lo

    def test_pure_function_of_required_cell(self):
        D = 5
        X = required_phi_input_depth(D, 2)
        tail = element_from_digits([1], X, F2, X + 1)
        for code in range(0, 2 ** X, 5):
            x1 = cell_vec(F2, code, X, X + 1)
            x2 = vector(add(x1[0], tail))
            assert phi_eval(x1, CFG_F2, D)[0] == phi_eval(x2, CFG_F2, D)[0]

    def test_insufficient_depth_reports_requirement(self):
        with pytest.raises(InsufficientDepth) as ei:
            phi_eval(vector(element_from_digits([1], 0, F2, 2)), CFG_F2, 6)
        assert ei.value.required == required_phi_input_depth(6, 2)

    def test_extension_drops_negative_digits(self):
        xk = vector(element_from_digits([1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1],
                                        -2, F2, 10))
        xr = vector(element_from_digits([1, 1, 0, 1, 1, 0, 1, 1, 0, 1],
                                        0, F2, 10))
        assert phi_eval(xk, CFG_F2, 4)[0] == phi_eval(xr, CFG_F2, 4)[0]

    def test_summand_valuation_floor_exhaustive(self):
        X = alpha(4)
        for code in range(2 ** X):
            x = cell_vec(F2, code, X)
            for k in range(3):
                r = decode_matrix_fn(k, CFG_F2)
                s = mul(matrix_fn_eval(r, x)[0, 0], projection(x, k)[0])
                assert s.is_zero or s.valuation >= summand_valuation_floor(k, 2)

    def test_multidim_shapes(self):
        cfg = PhiConfig(F2, p_dim=2, q_dim=2)
        D = 3
        X = required_phi_input_depth(D, 2)
        x = ElementVector((element_from_cell(F2, 5, X, X),
                           element_from_cell(F2, 9, X, X)))
        out = phi_eval(x, cfg, D)
        assert out.dim == 2
        for e in out:
            assert e.is_zero or e.valuation >= 0

    def test_partial_agrees_below_tail_floor(self):
        # phi - phi_partial(N) is a sum of terms of valuation >= the floor
        # of term N, so the two agree on all digits below that floor.
        X = alpha(5)
        for code in range(0, 2 ** X, 3):
            x = cell_vec(F2, code, X, X + 5)
            for N in (1, 2, 3):
                cut = summand_valuation_floor(N, 2)
                if cut < 1:
                    continue
                full = phi_eval(x, CFG_F2, cut)[0]
                part = phi_partial(x, CFG_F2, N)[0]
                assert truncate(part, cut) == full

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_partial_sum_steps_by_one_term(self, ring):
        """phi^(N) + r_N(x) p_N(x) is phi^(N+1) in values and depths: the
        step the decomposition takes from its landmark."""
        cfg = PhiConfig(ring)
        X = alpha(6)
        n = ring.ell ** X
        for code in (0, 1, n - 1, pow(3, 41, n), n // 3):
            x = cell_vec(ring, code, X, X + 2)
            for N in range(1, 6):
                r_n = matrix_fn_eval(decode_matrix_fn(N, cfg), x)
                step = phi_partial(x, cfg, N) + mat_vec(r_n, projection(x, N))
                full = phi_partial(x, cfg, N + 1)
                assert step == full
                assert [e.depth for e in step] == [e.depth for e in full]


class TestRequiredDepth:
    def test_monotone(self):
        vals = [required_phi_input_depth(d, 2) for d in range(1, 20)]
        assert vals == sorted(vals)

    def test_pinned_values(self):
        assert required_phi_input_depth(12, 2) == alpha(5)  # 15
        assert required_phi_input_depth(1, 2) == alpha(tail_cutoff(1, 2) + 1)

    @pytest.mark.parametrize("ell", (2, 3, 5, 7))
    @pytest.mark.parametrize("variant", tuple(PhiVariant), ids=str)
    def test_input_depth_covers_output_depth(self, variant, ell):
        """X >= D for both variants: sawyer's alpha(K + 1) is at least
        alpha(K + 1) - lambda(K + 1) >= D by the cutoff, dh's is D + 1.  The
        enumeration's x depth is phi_input_depth itself, with no max(D, .)."""
        for D in range(1, 41):
            assert phi_input_depth(variant, D, ell) >= D

    @pytest.mark.parametrize("variant", tuple(PhiVariant), ids=str)
    def test_input_depth_refuses_output_depth_below_one(self, variant):
        """Both variants refuse D_out < 1 with the same error, and so does
        the continuity modulus at A < 1."""
        for D in (0, -1):
            with pytest.raises(BadIndex, match="output depth must be >= 1"):
                phi_input_depth(variant, D, 2)
            with pytest.raises(BadIndex, match="output depth must be >= 1"):
                continuity_modulus(D, CFG_F2)

    def test_smallest_exact_depth(self):
        """At the advertised depth the evaluation is already exact: deepening
        the input never changes the output (the prefix oracle)."""
        for D in (1, 2, 4, 6):
            X = required_phi_input_depth(D, 2)
            for code in range(2 ** X):
                x_min = cell_vec(F2, code, X)
                x_deep = cell_vec(F2, code, X, X + 4)
                assert phi_eval(x_min, CFG_F2, D)[0] == phi_eval(x_deep, CFG_F2, D)[0]


class TestDepthRuleCache:
    """The cached depth rules against the uncached functions they wrap."""

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_cached_equals_uncached(self, ring):
        ell = ring.ell
        for D in range(1, 41):
            assert tail_cutoff(D, ell) == tail_cutoff.__wrapped__(D, ell)
            assert required_phi_input_depth(D, ell) \
                == required_phi_input_depth.__wrapped__(D, ell)
            for variant in PhiVariant:
                assert phi_input_depth(variant, D, ell) \
                    == phi_input_depth.__wrapped__(variant, D, ell)

    @pytest.mark.parametrize("variant", tuple(PhiVariant), ids=str)
    def test_refusal_is_not_cached(self, variant):
        """A refused depth raises on every call, not only the first."""
        for _ in range(2):
            with pytest.raises(BadIndex):
                phi_input_depth(variant, 0, 2)
            with pytest.raises(BadIndex):
                tail_cutoff(0, 2)


def _fields(v):
    return [(e.ring, e.lowest_degree, e.sig, e.depth) for e in v]


def _series_oracle(x, cfg, n_terms, W):
    """sum_{k < n_terms} r_k(x) p_k(x) as the evaluator summed it before
    the terms were added entry by entry: one ElementVector per partial
    sum, each normalized to its entries' least depth."""
    xr = ElementVector(tuple(reduce_to_R(e) for e in x))
    acc = ElementVector(tuple(zero(cfg.ring, W) for _ in range(cfg.q_dim)))
    for k in range(n_terms):
        acc = acc + series_term(xr, cfg, k)
    return acc


class TestSeriesOnePass:
    """phi_eval and phi_partial sum one list of terms (series_terms,
    series_sum); values and depths equal the per-term vector sums."""

    @pytest.mark.parametrize("ring", EQUIV_RINGS, ids=str)
    def test_sums_equal_vector_sums(self, ring):
        ell = ring.ell
        rnd = np.random.default_rng(ell)
        for p, q, D in ((1, 1, 1), (1, 1, 4), (1, 1, 7), (2, 2, 2),
                        (1, 2, 3), (2, 1, 3)):
            cfg = PhiConfig(ring, p_dim=p, q_dim=q)
            K = tail_cutoff(D, ell)
            X = alpha(K + 1)
            for _ in range(4):
                # entries built at distinct depths (the vector cuts them to
                # the least), the second with a digit below degree 0
                x = ElementVector(tuple(
                    element_from_digits(
                        [int(d) for d in rnd.integers(0, ell, X + 2 + i)],
                        -i, ring, X + 2 * i) for i in range(p)))
                got = phi_eval(x, cfg, D)
                assert _fields(got) == _fields(_series_oracle(x, cfg, K + 1, D))
                for N in range(K + 2):
                    if alpha(N) <= x.depth:
                        assert _fields(phi_partial(x, cfg, N)) == _fields(
                            _series_oracle(x, cfg, N, x.depth))
                terms = series_terms(x, cfg, K + 1)
                assert _fields(series_sum(terms, cfg, D)) == _fields(got)
                xr = ElementVector(tuple(reduce_to_R(e) for e in x))
                assert [_fields(t) for t in terms] == [
                    _fields(series_term(xr, cfg, k)) for k in range(K + 1)]


class TestMatrixCache:
    @pytest.mark.parametrize("ring", (F2, Z3), ids=str)
    def test_cached_matrix_is_at_the_input_depth(self, ring):
        """Each (cell, depth) matrix is built once and read back: the
        values of every cell at depth max(x.depth, k + 1), whichever depth
        was asked for first."""
        cfg = PhiConfig(ring, p_dim=1, q_dim=2)
        r = decode_matrix_fn(3, cfg)
        k = r.k_block
        for W in (k + 4, k, k + 1, k + 4, k + 9):
            for cell in range(r.n_cells):
                M = matrix_fn_eval(r, cell_vec(ring, cell, k, W))
                assert M is matrix_fn_eval(r, cell_vec(ring, cell, k, W))
                for row in range(2):
                    want = r.table_value(row, 0, cell)
                    assert M[row, 0] == want
                    assert M[row, 0].depth == max(W, k + 1)


class TestRadixDigits:
    """Every slot decoded at once, against one power and division per
    slot."""

    def test_digits_equal_per_slot_reads(self):
        """Also at the bounds of a zero high half: n just below and at
        m^half, and below and at 2^(half*(bits(m) - 1)), where n's bit
        length stops showing it."""
        rnd = np.random.default_rng(7)
        for m in (2, 3, 4, 27, 343):
            for count in (1, 2, 31, 32, 33, 64, 100, 257):
                half, bits = count // 2, m.bit_length() - 1
                for n in (0, 1, m ** count - 1,
                          int.from_bytes(rnd.bytes(count * 2), "little")
                          % m ** count, m ** count + 5, m ** half - 1,
                          m ** half, 2 ** (half * bits) - 1,
                          2 ** (half * bits)):
                    assert _radix_digits(n, m, count) == [
                        n // m ** (count - 1 - i) % m for i in range(count)]

    def test_slot_outside_the_member_is_refused(self):
        r = MatrixFn(PhiConfig(F2, p_dim=1, q_dim=2), 1, 3)
        for row, col, cell in ((0, 0, -1), (0, 0, r.n_cells), (2, 0, 0),
                               (-1, 0, 0), (0, 1, 0)):
            with pytest.raises(BadIndex, match="outside a 2x1 member"):
                r.value_index(row, col, cell)
            with pytest.raises(BadIndex, match="outside a 2x1 member"):
                r.table_value(row, col, cell)

    @pytest.mark.parametrize("ring", (F2, Z3, F5), ids=str)
    def test_value_index_is_the_mixed_radix_read(self, ring):
        cfg = PhiConfig(ring, p_dim=2, q_dim=2)
        for k, inner in ((1, 0), (1, 12345678901234567), (2, 3 ** 200 + 7)):
            r = MatrixFn(cfg, k, inner % omega_block_size(k, ring.ell, 2, 2))
            for row in range(2):
                for col in range(2):
                    for cell in range(r.n_cells):
                        assert r.value_index(row, col, cell) == \
                            r.inner_index // r.slot_weight(row, col, cell) \
                            % sk_size(k, ring.ell)


class TestContinuityModulus:
    def test_first_value(self):
        assert continuity_modulus(1, CFG_F2) == alpha(1)

    def test_monotone(self):
        vals = [continuity_modulus(a, CFG_F2) for a in range(1, 12)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_equals_phi_input_depth(self, ring):
        """The modulus is phi_eval's input depth at A: alpha(n) for the
        least n >= 1 with alpha(n) - lambda(n) >= A, found here by search."""
        cfg = PhiConfig(ring)
        for A in range(1, 61):
            n = 1
            while summand_valuation_floor(n, ring.ell) < A:
                n += 1
            assert continuity_modulus(A, cfg) == alpha(n) == \
                required_phi_input_depth(A, ring.ell)

    @pytest.mark.parametrize("A", (1, 2, 3))
    def test_contract_exhaustive(self, A):
        mod = continuity_modulus(A, CFG_F2)
        depth = required_phi_input_depth(A, 2) + mod
        outs = [phi_eval(cell_vec(F2, c, depth), CFG_F2, A)[0]
                for c in range(2 ** depth)]
        group = 2 ** mod
        for c in range(2 ** depth):
            base = c % group
            for tail in range(2 ** (depth - mod)):
                other = base + tail * group
                d = sub(outs[c], outs[other])
                assert d.is_zero or d.valuation >= A


class TestDigitShift:
    def test_all_ones_pattern(self):
        a = element_from_digits([1] * 16, 0, F2, 16)
        out = phi_dh_eval(a, 15)
        got = [out.digit(j) for j in range(15)]
        want = [0 if j in (0, 2, 6, 14) else 1 for j in range(15)]
        assert got == want

    def test_zero(self):
        assert phi_dh_eval(zero(Z2, 10), 8).is_zero

    def test_depth_requirement(self):
        with pytest.raises(InsufficientDepth):
            phi_dh_eval(element_from_digits([1], 0, F2, 5), 5)

    def test_additive_over_power_series_exhaustive(self):
        tables = [phi_dh_eval(element_from_cell(F2, c, 9, 9), 8)
                  for c in range(2 ** 9)]
        for a in range(2 ** 8):
            for b in range(2 ** 8):
                s = a ^ b  # carry-free addition of packed codes
                assert cell_index(
                    add(tables[a], tables[b]), 8) == cell_index(tables[s], 8)

    def test_not_additive_over_padic(self):
        found = None
        for a in range(2 ** 6):
            for b in range(2 ** 6):
                ea = element_from_cell(Z2, a, 6, 6)
                eb = element_from_cell(Z2, b, 6, 6)
                lhs = phi_dh_eval(truncate(add(ea, eb), 6), 5)
                rhs = truncate(add(phi_dh_eval(ea, 5), phi_dh_eval(eb, 5)), 5)
                if lhs != rhs:
                    found = (a, b)
                    break
            if found:
                break
        assert found == (1, 3)  # pinned by the first exhaustive search


class TestResidueTables:
    @pytest.mark.parametrize("ring", (F2, Z2), ids=str)
    @pytest.mark.parametrize("D", (1, 3, 5))
    def test_phi_table_matches_evaluator(self, ring, D):
        cfg = PhiConfig(ring)
        X = max(D, required_phi_input_depth(D, 2))
        tab = phi_residue_table(cfg, D, X)
        for code in range(2 ** X):
            e = phi_eval(cell_vec(ring, code, X), cfg, D)[0]
            assert tab[code] == cell_index(e, D)

    @pytest.mark.parametrize("ring", (F3, Z3), ids=str)
    def test_phi_table_matches_evaluator_ell3(self, ring):
        cfg, D = PhiConfig(ring), 3
        X = max(D, required_phi_input_depth(D, 3))
        tab = phi_residue_table(cfg, D, X)
        for code in range(3 ** X):
            e = phi_eval(cell_vec(ring, code, X), cfg, D)[0]
            assert tab[code] == cell_index(e, D)

    @pytest.mark.parametrize("ring", (F5, Z5, F7, Z7), ids=str)
    @pytest.mark.parametrize("D", (2, 3, 4))
    def test_phi_table_matches_evaluator_ell5_7(self, ring, D):
        """ell >= 5: every input cell while the table is small, about 1,000
        of them at D = 4 (the first table with K = 2, ell^6 cells)."""
        ell = ring.ell
        cfg = PhiConfig(ring)
        X = max(D, required_phi_input_depth(D, ell))
        tab = phi_residue_table(cfg, D, X)
        step = 1 + ell ** X // 1024
        for code in range(0, ell ** X, step):
            e = phi_eval(cell_vec(ring, code, X), cfg, D)[0]
            assert tab[code] == cell_index(e, D)

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_table_reads_only_block_one(self, ring):
        """phi_residue_table takes each S_1 index as a cell code (lambda(1)
        = 0).  At the deepest packed depth every member up to the cutoff
        lies in Omega_1, and a cutoff past Omega_1 needs 153 input digits."""
        ell = ring.ell
        cfg = PhiConfig(ring)
        D = max(d for d in range(1, 64) if ell ** (2 * d) < 2 ** 63)
        assert decode_matrix_fn(tail_cutoff(D, ell), cfg).k_block == 1
        first_outside = omega_block_size(1, ell, 1, 1)
        assert first_outside >= 16
        assert decode_matrix_fn(first_outside - 1, cfg).k_block == 1
        assert decode_matrix_fn(first_outside, cfg).k_block == 2
        # a cutoff K >= first_outside means an input depth alpha(K + 1)
        assert alpha(first_outside + 1) >= alpha(17) == 153
        if ell == 2:
            D_out = summand_valuation_floor(first_outside, ell) + 1
            assert tail_cutoff(D_out, ell) == first_outside
            assert required_phi_input_depth(D_out, ell) == 153

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_table_depends_only_on_x_mod_ell_d(self, ring):
        """phi mod ell^D reads x mod ell^D: the full ell^X table equals the
        table on the ell^D codes, read at x mod ell^D, at every D whose
        full table has at most 2^15 cells."""
        ell = ring.ell
        cfg = PhiConfig(ring)
        depths = [D for D in range(1, 12)
                  if ell ** max(D, required_phi_input_depth(D, ell)) <= 2 ** 15]
        assert len(depths) >= 3
        for D in depths:
            X = max(D, required_phi_input_depth(D, ell))
            full = phi_residue_table(cfg, D, X)
            short = phi_residue_table(cfg, D, X, cells=ell ** D)
            assert short.shape == (ell ** D,)
            assert np.array_equal(full, short[np.arange(ell ** X) % ell ** D])

    @pytest.mark.parametrize("ring", (F2, Z2, F3), ids=str)
    def test_dh_table_matches_evaluator(self, ring):
        D, X = 5, 6
        tab = dh_residue_table(ring, D, X)
        for code in range(ring.ell ** X):
            e = phi_dh_eval(element_from_cell(ring, code, X, X), D)
            assert tab[code] == cell_index(e, D)
