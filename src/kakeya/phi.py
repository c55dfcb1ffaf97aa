"""The layered series construction of a universal function phi : R^p -> R^q.

The construction combines three ingredients:

* a digit schedule ``alpha(j) = j(j+1)/2`` slicing an input into blocks of
  degrees [alpha(j), alpha(j+1)) (:func:`projection`);
* finite value sets ``S_k`` (digit support on degrees [-lambda(k), k]) and the
  finite spaces ``Omega_k`` of S_k-valued functions constant on depth-k cells,
  enumerated as q-by-p matrix functions r_0, r_1, ... block by block
  (:func:`decode_matrix_fn`);
* the series  phi(x) = sum_k r_k(x) . p_k(x),  which converges because the
  slice valuations grow quadratically while the value floors sink only
  logarithmically.

Everything here is exact at an explicit digit depth.  A vectorized twin of
the evaluator (:func:`phi_residue_table`) computes phi on every residue cell
at once using the packed-code layer of :mod:`kakeya.ring`; tests pin it to
the element-level evaluator.

The alternative digit-shift construction (variant tag ``dh``) is
:func:`phi_dh_eval`: output digit j is input digit j+1, except forced to zero
when j+2 is a power of two.  Applied verbatim in both ring modes; over the
carrying ring it is deliberately *not* additive, and tests pin a
counterexample.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BadIndex, InsufficientDepth, NegativeValuation, NotInSk
from .ring import (
    Element,
    ElementMatrix,
    ElementVector,
    RingSpec,
    _canonical,
    _element,
    add,
    cell_index,
    element_from_digits,
    mat_vec,
    reduce_to_R,
    residue_add,
    residue_mul,
    truncate,
    vector,
    vector_cell_index,
    zero,
)


class PhiVariant(enum.Enum):
    """Which universal function a construction should use."""

    SAWYER = "sawyer"   # the layered series construction (this module's phi)
    DH = "dh"           # the digit-shift rule (phi_dh_eval)


@dataclass(frozen=True, slots=True)
class PhiConfig:
    """Ring and dimensions (p inputs, q outputs) of the construction."""

    ring: RingSpec
    p_dim: int = 1
    q_dim: int = 1

    def __post_init__(self):
        if self.p_dim < 1 or self.q_dim < 1:
            raise ValueError("dimensions must be >= 1")


def alpha(j: int) -> int:
    """Schedule boundary: digit block j covers degrees [alpha(j), alpha(j+1))."""
    if j < 0:
        raise BadIndex(f"alpha needs j >= 0, got {j}")
    return j * (j + 1) // 2


def lambda_floor(k: int, ell: int) -> int:
    """floor(log_ell k), by integer comparison against powers of ell."""
    if k < 1:
        raise BadIndex(f"lambda_floor needs k >= 1, got {k}")
    if ell < 2:
        raise BadIndex(f"lambda_floor needs a base ell >= 2, got {ell}")
    e, p = 0, 1
    while p * ell <= k:
        p *= ell
        e += 1
    return e


def summand_valuation_floor(k: int, ell: int) -> int:
    """Worst-case valuation of the k-th series term: alpha(k) - lambda(max(k,1)).

    Nondecreasing in k, so it also drives the truncation index and the
    continuity modulus.
    """
    return alpha(k) - lambda_floor(max(k, 1), ell)


def projection(x: ElementVector, j: int) -> ElementVector:
    """Componentwise digit slice of degrees [alpha(j), alpha(j+1))."""
    return vector(*[projection_element(e, j) for e in x.entries])


def projection_element(e: Element, j: int) -> Element:
    lo, hi = alpha(j), alpha(j + 1)
    if not e.is_zero and e.lowest_degree < 0:
        raise NegativeValuation("projection is defined on R only")
    if e.depth < hi:
        raise InsufficientDepth(hi, e.depth, f"projection p_{j}")
    return _canonical(e.ring, lo, cell_index(e, hi) // e.ring.ell ** lo,
                      e.depth)


# ---------------------------------------------------------------------------
# Value sets S_k and the enumerated matrix-function blocks Omega_k
# ---------------------------------------------------------------------------

def sk_size(k: int, ell: int) -> int:
    """Number of K-elements supported on degrees [-lambda(k), k]."""
    return ell ** (k + lambda_floor(k, ell) + 1)


def sk_element_at(k: int, ring: RingSpec, n: int) -> Element:
    """The n-th S_k element: base-ell digits of n laid over degrees
    -lambda(k), ..., k.  Index 0 is the zero element."""
    return _canonical(ring, -lambda_floor(k, ring.ell), n, k + 1)


def sk_elements(k: int, ring: RingSpec) -> Iterator[Element]:
    """All S_k elements in index order (restartable generator)."""
    for n in range(sk_size(k, ring.ell)):
        yield sk_element_at(k, ring, n)


def sk_index_of(e: Element, k: int) -> int:
    """Index of an S_k element; NotInSk if the support bounds are violated."""
    ell = e.ring.ell
    lam = lambda_floor(k, ell)
    if e.is_zero:
        return 0
    if e.lowest_degree < -lam or e.sig >= ell ** (k + 1 - e.lowest_degree):
        raise NotInSk(
            f"digit support [{e.lowest_degree}, "
            f"{e.lowest_degree + len(e.digits) - 1}] not within [{-lam}, {k}]")
    return e.sig * ell ** (e.lowest_degree + lam)


def omega_block_size(k: int, ell: int, p_dim: int, q_dim: int) -> int:
    """Number of q-by-p matrices of S_k-valued functions on depth-k cells.

    Each of the q*p entries independently assigns an S_k value to each of
    the ell^(k*p) cells.
    """
    return sk_size(k, ell) ** (ell ** (k * p_dim) * q_dim * p_dim)


class MatrixFn:
    """One member r_j of the enumeration: a q-by-p matrix of functions from
    depth-k_block cells of R^p into S_k_block.

    The table is decoded lazily: nothing at construction, every slot's digit
    at the first read (by :func:`_radix_digits`, divide and conquer), and
    each S_k value, and each cell's matrix of them at a depth, as it is
    first asked for.  Decoding is a pure
    mixed-radix read of ``inner_index``: entries in row-major order are the
    outermost radix, input cells by ascending cell index next, and the
    innermost digit indexes S_k in :func:`sk_elements` order (the first slot
    is the most significant digit).
    """

    def __init__(self, cfg: PhiConfig, k_block: int, inner_index: int):
        self.cfg = cfg
        self.k_block = k_block
        self.inner_index = inner_index
        self.n_cells = cfg.ring.ell ** (k_block * cfg.p_dim)
        self.n_slots = self.n_cells * cfg.p_dim * cfg.q_dim
        self._m = sk_size(k_block, cfg.ring.ell)
        self._digits: list[int] | None = None
        self._values: dict[tuple[int, int, int], Element] = {}
        self._matrices: dict[tuple[int, int], ElementMatrix] = {}

    def _slot(self, row: int, col: int, cell: int) -> int:
        p, q = self.cfg.p_dim, self.cfg.q_dim
        if not (0 <= row < q and 0 <= col < p and 0 <= cell < self.n_cells):
            raise BadIndex(f"slot ({row}, {col}, {cell}) outside a {q}x{p} "
                           f"member on {self.n_cells} cells")
        return (row * p + col) * self.n_cells + cell

    def slot_weight(self, row: int, col: int, cell: int) -> int:
        """Place value of one (entry, cell) slot in ``inner_index``."""
        return self._m ** (self.n_slots - 1 - self._slot(row, col, cell))

    def value_index(self, row: int, col: int, cell: int) -> int:
        if self._digits is None:
            self._digits = _radix_digits(self.inner_index, self._m,
                                         self.n_slots)
        return self._digits[self._slot(row, col, cell)]

    def table_value(self, row: int, col: int, cell: int, W: int | None = None) -> Element:
        """S_k value assigned to one matrix entry on one input cell."""
        key = (row, col, cell)
        e = self._values.get(key)
        if e is None:
            e = sk_element_at(self.k_block, self.cfg.ring,
                              self.value_index(row, col, cell))
            self._values[key] = e
        if W is not None and W != e.depth:
            return _element(e.ring, e.lowest_degree, e.sig, W)
        return e

    def matrix(self, cell: int, W: int) -> ElementMatrix:
        """The q-by-p values on one input cell at depth W, built once."""
        M = self._matrices.get((cell, W))
        if M is None:
            p = self.cfg.p_dim
            M = self._matrices[cell, W] = ElementMatrix(tuple([
                tuple([self.table_value(row, col, cell, W) for col in range(p)])
                for row in range(self.cfg.q_dim)]))
        return M

    def __repr__(self):
        return (f"MatrixFn(k={self.k_block}, inner={self.inner_index}, "
                f"dims={self.cfg.q_dim}x{self.cfg.p_dim})")


def _radix_digits(n: int, m: int, count: int) -> list[int]:
    """The ``count`` lowest base-m digits of n, most significant first.

    Divide and conquer: one division by m^(count // 2) splits the digits
    into two halves, each converted alike, so all of them cost about one
    division of n, where a power and a division per digit cost ``count``
    of them."""
    if count <= 32:
        ds = [0] * count
        for i in range(count - 1, -1, -1):
            n, ds[i] = divmod(n, m)
        return ds
    half = count // 2
    hi, lo = divmod(n, m ** half)
    return _radix_digits(hi, m, count - half) + _radix_digits(lo, m, half)


def block_offset(k: int, cfg: PhiConfig) -> int:
    """Enumeration index of the first member of the Omega_k block."""
    return sum(omega_block_size(i, cfg.ring.ell, cfg.p_dim, cfg.q_dim)
               for i in range(1, k))


# keyed on (ell, mode, p, q, j), which hash faster than the PhiConfig
_decode_cache: dict[tuple, MatrixFn] = {}


def decode_matrix_fn(j: int, cfg: PhiConfig) -> MatrixFn:
    """The j-th member of the enumeration (block Omega_1 first, then Omega_2,
    ...); every j >= 0 decodes."""
    if j < 0:
        raise BadIndex(f"enumeration index must be >= 0, got {j}")
    key = (cfg.ring.ell, cfg.ring.mode, cfg.p_dim, cfg.q_dim, j)
    cached = _decode_cache.get(key)
    if cached is not None:
        return cached
    k = next(k for k in itertools.count(1) if j < block_offset(k + 1, cfg))
    # Needed by the continuity argument: member j never looks deeper than
    # digit max(j, 1).  Block sizes grow fast enough that this is automatic.
    assert k <= max(j, 1), "enumeration blocks are misordered"
    fn = MatrixFn(cfg, k, j - block_offset(k, cfg))
    if j < 4096:
        _decode_cache[key] = fn
    return fn


def index_of_constant_matrix(M: ElementMatrix, k: int) -> int:
    """Enumeration index of the Omega_k member constantly equal to M."""
    q, p = M.shape
    cfg = PhiConfig(M.ring, p_dim=p, q_dim=q)
    layout = MatrixFn(cfg, k, 0)
    # an entry's cells are consecutive slots: their weights sum geometrically
    m, n = layout._m, layout.n_cells
    run = (m ** n - 1) // (m - 1)
    inner = sum(sk_index_of(M[row, col], k) * run
                * layout.slot_weight(row, col, n - 1)
                for row in range(q) for col in range(p))
    return block_offset(k, cfg) + inner


def matrix_fn_eval(r: MatrixFn, x: ElementVector) -> ElementMatrix:
    """Table lookup on the depth-k_block cell of x."""
    cfg = r.cfg
    if x.dim != cfg.p_dim:
        raise ValueError(f"expected dim {cfg.p_dim}, got {x.dim}")
    k = r.k_block
    if x.depth < k:
        raise InsufficientDepth(k, x.depth, "matrix_fn_eval input")
    return r.matrix(vector_cell_index(x, k), max(x.depth, k + 1))


# ---------------------------------------------------------------------------
# The series evaluator
# ---------------------------------------------------------------------------

# The depth rules are pure, and every evaluation, table and enumeration
# asks for them, so each argument set is worked out once.

@functools.cache
def tail_cutoff(D_out: int, ell: int) -> int:
    """Largest k whose series term can still touch a digit below D_out."""
    if D_out < 1:
        raise BadIndex(f"output depth must be >= 1, got {D_out}")
    k = 0
    while summand_valuation_floor(k + 1, ell) < D_out:
        k += 1
    return k


@functools.cache
def required_phi_input_depth(D_out: int, ell: int) -> int:
    """Smallest input working depth for which phi_eval at D_out is exact.

    Equals alpha(K+1) for the cutoff index K: the deepest digit any retained
    term reads.  Validated by the prefix-consistency oracle in the tests.
    """
    return alpha(tail_cutoff(D_out, ell) + 1)


@functools.cache
def phi_input_depth(variant: PhiVariant, D_out: int, ell: int) -> int:
    """Input depth a variant needs for exact output at depth D_out >= 1."""
    if variant is PhiVariant.SAWYER:
        return required_phi_input_depth(D_out, ell)
    if D_out < 1:
        raise BadIndex(f"output depth must be >= 1, got {D_out}")
    return D_out + 1


def phi_eval(x: ElementVector, cfg: PhiConfig, D_out: int) -> ElementVector:
    """Evaluate phi at x in K^p, exact to D_out output digits.

    Negative-degree digits of x are dropped first (the extension from R to
    the field).  Terms beyond the cutoff index all have valuation >= D_out,
    so omitting them cannot change any reported digit.
    """
    if x.dim != cfg.p_dim:
        raise ValueError(f"expected dim {cfg.p_dim}, got {x.dim}")
    K = tail_cutoff(D_out, cfg.ring.ell)
    need = alpha(K + 1)
    if x.depth < need:
        raise InsufficientDepth(need, x.depth, f"phi input for D_out={D_out}")
    return series_sum(series_terms(x, cfg, K + 1), cfg, D_out)


def phi_partial(x: ElementVector, cfg: PhiConfig, N: int) -> ElementVector:
    """Partial sum of the first N series terms (an exact finite sum)."""
    if x.dim != cfg.p_dim:
        raise ValueError(f"expected dim {cfg.p_dim}, got {x.dim}")
    if N > 0 and x.depth < alpha(N):
        raise InsufficientDepth(alpha(N), x.depth, f"phi_partial N={N}")
    return series_sum(series_terms(x, cfg, N), cfg, x.depth)


def series_terms(x: ElementVector, cfg: PhiConfig,
                 n_terms: int) -> list[ElementVector]:
    """The terms r_k(x) p_k(x), k < n_terms, of x reduced to R: one list
    from which several sums (phi, a partial sum) and a slice are read."""
    xr = vector(*[reduce_to_R(e) for e in x.entries])
    return [series_term(xr, cfg, k) for k in range(n_terms)]


def series_sum(terms: list[ElementVector], cfg: PhiConfig,
               W: int) -> ElementVector:
    """The sum of ``terms``, accumulated from zero at depth W entry by
    entry, in order, with no vector per partial sum: a term's entries
    share one depth, so the sums' entries do too."""
    acc = [zero(cfg.ring, W) for _ in range(cfg.q_dim)]
    for t in terms:
        acc = list(map(add, acc, t.entries))
    return vector(*acc)


def series_term(x: ElementVector, cfg: PhiConfig, k: int) -> ElementVector:
    """The k-th series term r_k(x) p_k(x), x in R^p."""
    r = decode_matrix_fn(k, cfg)
    return mat_vec(matrix_fn_eval(r, x), projection(x, k))


def input_partial(x: ElementVector, N: int) -> ElementVector:
    """Sum of the first N digit slices of x: its depth-alpha(N) truncation."""
    return vector(*[truncate(e, alpha(N)) for e in x.entries])


def continuity_modulus(A: int, cfg: PhiConfig) -> int:
    """Input agreement depth that forces output agreement to depth A: the
    input depth phi_eval needs at A.

    If x and y agree on all digits below it, then phi(x) - phi(y) has
    componentwise valuation at least A.
    """
    return required_phi_input_depth(A, cfg.ring.ell)


# ---------------------------------------------------------------------------
# The digit-shift construction (variant tag "dh")
# ---------------------------------------------------------------------------

def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def phi_dh_eval(a: Element, D_out: int) -> Element:
    """Digit-shift rule: output digit j is input digit j+1, forced to 0
    whenever j+2 is a power of two.

    A pure digit map in both ring modes; over the carrying ring it is not a
    homomorphism (carries break additivity).
    """
    if not a.is_zero and a.lowest_degree < 0:
        raise NegativeValuation("digit-shift rule is defined on R only")
    need = phi_input_depth(PhiVariant.DH, D_out, a.ring.ell)
    if a.depth < need:
        raise InsufficientDepth(need, a.depth, "digit-shift input")
    ds = [0 if _is_power_of_two(j + 2) else a.digit(j + 1)
          for j in range(D_out)]
    return element_from_digits(ds, 0, a.ring, D_out)


# ---------------------------------------------------------------------------
# Vectorized residue-table twins (p = q = 1), used by the measure module
# ---------------------------------------------------------------------------

def phi_residue_table(cfg: PhiConfig, D_out: int, input_depth: int,
                      cells: int | None = None) -> np.ndarray:
    """phi on depth-``input_depth`` cells at once, as packed codes.

    Returns an array whose entry at cell code c is the packed depth-D_out
    code of phi(representative of c), for every c below ``cells`` (default:
    all ell^input_depth cells; else a multiple of ell).  Scalar case only
    (p = q = 1).  Exactness is the same cutoff argument as phi_eval;
    agreement with it is pinned by tests.

    Every member r_k it reads lies in block Omega_1, whose S_1 values have
    lambda(1) = 0: they are R-elements on degrees [0, 1], and their S_1
    index is their cell code.  Leaving Omega_1 takes K >= |Omega_1| =
    ell^(2 ell) >= 16 and so an input depth of at least alpha(17) = 153,
    a table of ell^153 cells that no int64 array can index.

    So each summand is R-valued: the digits lo..hi-1 of x times r_k(x mod
    ell), and its depth-D_out code reads only the digits of x below D_out.
    phi(x) mod ell^D_out is therefore a function of x mod ell^D_out, and
    ``cells = ell^D_out`` -- those codes taken as depth-``input_depth``
    representatives -- is the whole table: entry c of the full table equals
    entry c mod ell^D_out of this one.
    """
    if cfg.p_dim != 1 or cfg.q_dim != 1:
        raise ValueError("residue table is scalar-only (p = q = 1)")
    ell = cfg.ring.ell
    K = tail_cutoff(D_out, ell)
    need = alpha(K + 1)
    if input_depth < need:
        raise InsufficientDepth(need, input_depth, "phi residue table")
    codes = np.arange(ell ** input_depth if cells is None else cells,
                      dtype=np.int64)
    acc = np.zeros_like(codes)
    for k in range(K + 1):
        r = decode_matrix_fn(k, cfg)
        values = np.asarray([r.value_index(0, 0, cell) for cell in range(ell)],
                            dtype=np.int64)
        lo, hi = alpha(k), alpha(k + 1)
        pk = codes % ell ** hi - codes % ell ** lo
        # column c of the (-1, ell) view holds the codes of depth-1 cell c
        prod = residue_mul(cfg.ring, D_out, pk.reshape(-1, ell), values)
        acc = residue_add(cfg.ring, D_out, acc, prod.reshape(-1))
    return acc


def residue_table_cells(variant: PhiVariant, D: int, X: int, ell: int) -> int:
    """How many x codes a variant's depth-D table on depth-X inputs needs:
    ell^D for sawyer at its own input depth, where phi mod ell^D reads only
    x mod ell^D (proved in :func:`phi_residue_table`); ell^X otherwise."""
    if variant is PhiVariant.SAWYER and X == phi_input_depth(variant, D, ell):
        return ell ** D
    return ell ** X


def dh_residue_table(ring: RingSpec, D_out: int, input_depth: int,
                     cells: int | None = None) -> np.ndarray:
    """Digit-shift rule applied to every depth-``input_depth`` cell code
    below ``cells`` (default: all ell^input_depth of them)."""
    ell = ring.ell
    need = phi_input_depth(PhiVariant.DH, D_out, ell)
    if input_depth < need:
        raise InsufficientDepth(need, input_depth, "digit-shift table")
    codes = np.arange(ell ** input_depth if cells is None else cells,
                      dtype=np.int64)
    out = np.zeros_like(codes)
    for j in range(D_out):
        if _is_power_of_two(j + 2):
            continue
        out += ((codes // ell ** (j + 1)) % ell) * ell ** j
    return out


def variant_residue_table(variant: PhiVariant, cfg: PhiConfig,
                          D_out: int, input_depth: int,
                          cells: int | None = None) -> np.ndarray:
    """The variant's phi table on the depth-``input_depth`` codes below
    ``cells`` (default: all of them)."""
    if variant is PhiVariant.SAWYER:
        return phi_residue_table(cfg, D_out, input_depth, cells)
    return dh_residue_table(cfg.ring, D_out, input_depth, cells)
