"""Exact finite-depth arithmetic over a discrete valuation ring and its
fraction field.

Two rings are supported, selected by :class:`RingMode`:

* ``PADIC`` -- the ``ell``-adic integers / numbers; digit arithmetic carries
  (base-``ell`` big-integer arithmetic).
* ``POWER_SERIES`` -- formal power / Laurent series over the field with
  ``ell`` elements; digit arithmetic is carry-free (mod ``ell`` per digit).

An :class:`Element` is a packed significand -- its base-``ell`` digits from
the valuation up, as one Python integer -- together with its valuation and
an explicit working depth ``W``: every digit of degree below ``W`` is exact,
degrees at or above ``W`` are unknown.  All operations propagate depth
pessimistically, so a result never claims more digits than its inputs
justify.  Norms are exact rationals; nothing in this module touches floating
point.  Operations build their results through one private constructor,
``_element``, which sets the frozen slots directly and so skips the
dataclass ``__init__``; ``_canonical`` reduces the fields before calling it
(a product's fields need no reduction past its depth).  :func:`vector`
sets a one-entry vector's slot the same way.

The module also provides a vectorized "residue" layer (``residue_*``)
operating on packed cell codes with numpy.  A cell code is the same packing
of the digits from degree 0 up, so ``cell_index`` and ``element_from_cell``
are shifts of the significand.  The layer implements the same ring
arithmetic at a fixed depth ``D`` and exists purely for speed in exhaustive
enumerations; its agreement with the Element layer is enforced by tests.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadDepth,
    DigitOutOfRange,
    InsufficientDepth,
    NegativeValuation,
    RankDeficient,
    RingMismatch,
)

#: Valuation of the zero element.  A float so it compares exactly with ints.
INF = float("inf")


class RingMode(enum.Enum):
    PADIC = "zp"
    POWER_SERIES = "fq"


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, valid for all 64-bit inputs.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RingSpec:
    """Residue field size ``ell``, a prime below 2^64, and arithmetic mode of
    a discrete valuation ring.  :func:`_is_prime` is proved exact for 64-bit
    inputs; its first failure is the composite 318665857834031151167461."""

    ell: int
    mode: RingMode

    def __post_init__(self):
        if self.ell >= 2 ** 64:
            raise ValueError(f"residue field size must be below 2^64, got "
                             f"{self.ell}")
        if not _is_prime(self.ell):
            raise ValueError(f"residue field size must be prime, got {self.ell}")

    @property
    def tag(self) -> str:
        return self.mode.value

    def __str__(self):
        return f"{self.tag}:{self.ell}"


# The factories hand out one shared spec per (ell, mode), so the ring
# checks' identity test holds for every ring built through them.
@functools.cache
def padic_ring(ell: int) -> RingSpec:
    """The ring of ``ell``-adic integers (carrying digit arithmetic)."""
    return RingSpec(ell, RingMode.PADIC)


@functools.cache
def power_series_ring(ell: int) -> RingSpec:
    """Formal power series over the ``ell``-element field (no carries)."""
    return RingSpec(ell, RingMode.POWER_SERIES)


@dataclass(frozen=True, slots=True)
class Element:
    """A ring or field element known exactly up to (not including) degree
    ``depth``.

    ``sig`` packs the digits positionally from the valuation up: the
    coefficient of degree ``lowest_degree + i`` is ``sig // ell**i % ell``.
    Canonical form: ``sig`` is 0 for zero (with ``lowest_degree`` 0);
    otherwise ``sig`` is not divisible by ``ell``, ``lowest_degree`` is the
    valuation and ``sig < ell**(depth - lowest_degree)``.  Equality and
    hashing compare the represented value (ring + digit content), not the
    working depth.
    """

    ring: RingSpec
    lowest_degree: int
    sig: int
    depth: int = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return not self.sig

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits from the valuation up to the highest nonzero one (empty
        for zero); a view of ``sig``."""
        return tuple(_unpack_sig(self.sig, self.ring.ell))

    @property
    def valuation(self):
        """Largest k with the element in p^k; INF for zero."""
        return INF if not self.sig else self.lowest_degree

    def norm(self) -> Fraction:
        """Ultrametric norm ell^(-valuation), as an exact rational."""
        if not self.sig:
            return Fraction(0)
        v = self.lowest_degree
        if v >= 0:
            return Fraction(1, self.ring.ell ** v)
        return Fraction(self.ring.ell ** (-v))

    def digit(self, degree: int) -> int:
        """Coefficient of the given degree (0 outside the stored span)."""
        i = degree - self.lowest_degree
        if i < 0:
            return 0
        return self.sig // self.ring.ell ** i % self.ring.ell

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"<{format_element(self)} @W={self.depth}>"


def _unpack_sig(sig: int, ell: int) -> list[int]:
    """Base-ell digits of a nonnegative integer, lowest first."""
    ds = []
    while sig:
        sig, r = divmod(sig, ell)
        ds.append(r)
    return ds


def _pack_sig(digits, ell: int) -> int:
    """Inverse of :func:`_unpack_sig`; each digit is reduced mod ell."""
    sig = 0
    for d in reversed(digits):
        sig = sig * ell + d % ell
    return sig


def _digitwise(ell: int, sa: int, sb: int, sign: int) -> int:
    """Carry-free sa + sign * sb: each base-ell digit pair summed mod ell."""
    s, p = 0, 1
    while sa or sb:
        sa, x = divmod(sa, ell)
        sb, y = divmod(sb, ell)
        s += (x + sign * y) % ell * p
        p *= ell
    return s


_new = object.__new__
_set_ring, _set_lowest, _set_sig, _set_depth = (
    Element.ring.__set__, Element.lowest_degree.__set__, Element.sig.__set__,
    Element.depth.__set__)


def _element(ring: RingSpec, lowest: int, sig: int, depth: int) -> Element:
    """``Element(ring, lowest, sig, depth)`` of canonical fields, its slots
    set through their descriptors instead of the frozen ``__init__``."""
    e = _new(Element)
    _set_ring(e, ring)
    _set_lowest(e, lowest)
    _set_sig(e, sig)
    _set_depth(e, depth)
    return e


def _canonical(ring: RingSpec, lowest: int, sig: int, depth: int) -> Element:
    """The canonical Element of sig * t^lowest known below ``depth``: sig is
    reduced mod ell^(depth - lowest), then its low zero digits move into the
    valuation."""
    ell = ring.ell
    if depth <= lowest:
        return _element(ring, 0, 0, depth)
    if ell == 2:
        sig &= (1 << (depth - lowest)) - 1
        if not sig:
            return _element(ring, 0, 0, depth)
        low = (sig & -sig).bit_length() - 1
        return _element(ring, lowest + low, sig >> low, depth)
    sig %= ell ** (depth - lowest)
    if not sig:
        return _element(ring, 0, 0, depth)
    while sig % ell == 0:
        sig //= ell
        lowest += 1
    return _element(ring, lowest, sig, depth)


def element_from_digits(digits: Sequence[int], lowest_degree: int,
                        ring: RingSpec, W: int) -> Element:
    """Build an element from a digit vector starting at ``lowest_degree``.

    Digits at degrees >= W are discarded (they are beyond the working depth);
    leading zeros are stripped and the valuation adjusted.
    """
    if W <= lowest_degree or W < 1:
        raise BadDepth(f"working depth {W} must exceed lowest degree "
                       f"{lowest_degree} and be positive")
    for d in digits:
        if not 0 <= d < ring.ell:
            raise DigitOutOfRange(f"digit {d} not in [0, {ring.ell})")
    return _canonical(ring, lowest_degree, _pack_sig(digits, ring.ell), W)


def zero(ring: RingSpec, W: int) -> Element:
    if W < 1:
        raise BadDepth(f"working depth {W} must be positive")
    return _element(ring, 0, 0, W)


def one(ring: RingSpec, W: int) -> Element:
    return element_from_digits([1], 0, ring, W)


def from_int(n: int, ring: RingSpec, W: int) -> Element:
    """The image of a nonnegative integer (base-ell digit expansion)."""
    if n < 0:
        raise ValueError("use neg() for negatives; they differ per ring mode")
    return element_from_cell(ring, n, W)


def _check_same_ring(a: Element, b: Element):
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")


def _with_depth(e: Element, W: int) -> Element:
    """Restrict an element to a smaller working depth (digits >= W become
    unknown, not zero)."""
    if W == e.depth:
        return e
    return _canonical(e.ring, e.lowest_degree, e.sig, W)


def _signed_sum(a: Element, b: Element, sign: int) -> Element:
    """a + sign * b, sign = +1 or -1, exact below min of the operand depths:
    the significands aligned at the lower degree, summed once (the Element
    twin of :func:`_signed_add`)."""
    if a.ring is not b.ring:  # the factories share one spec per ring
        _check_same_ring(a, b)
    ell = a.ring.ell
    sa, sb, m = a.sig, b.sig, a.lowest_degree
    if b.lowest_degree < m:
        sa *= ell ** (m - b.lowest_degree)
        m = b.lowest_degree
    elif b.lowest_degree > m:
        sb *= ell ** (b.lowest_degree - m)
    if a.ring.mode is RingMode.PADIC:
        s = sa + sign * sb
    elif ell == 2:
        s = sa ^ sb
    else:
        s = _digitwise(ell, sa, sb, sign)
    return _canonical(a.ring, m, s, a.depth if a.depth < b.depth else b.depth)


def add(a: Element, b: Element) -> Element:
    return _signed_sum(a, b, 1)


def neg(a: Element) -> Element:
    """Additive inverse at the operand's own depth."""
    return _signed_sum(_element(a.ring, 0, 0, a.depth), a, -1)


def sub(a: Element, b: Element) -> Element:
    return _signed_sum(a, b, -1)


def mul(a: Element, b: Element) -> Element:
    """Product, exact below min(W_a + v(b), W_b + v(a)).

    For zero operands the unknown valuation is bounded below by the zero's
    own depth, which keeps the result depth an integer.
    """
    if a.ring is not b.ring:
        _check_same_ring(a, b)
    eff_va = a.lowest_degree if a.sig else a.depth
    eff_vb = b.lowest_degree if b.sig else b.depth
    Wa, Wb = a.depth + eff_vb, b.depth + eff_va
    W = Wa if Wa < Wb else Wb
    if not a.sig or not b.sig:
        return _element(a.ring, 0, 0, W)
    lowest = a.lowest_degree + b.lowest_degree
    span = W - lowest  # >= 1: each operand is known past its valuation
    ell = a.ring.ell
    if a.ring.mode is RingMode.PADIC:
        s = a.sig * b.sig
        s = s & (1 << span) - 1 if ell == 2 else s % ell ** span
    elif ell == 2:
        # carry-less product: one shifted copy of b per set bit of a
        s, x = 0, a.sig
        while x:
            bit = x & -x
            s ^= b.sig * bit
            x ^= bit
        s &= (1 << span) - 1
    else:
        s = _kronecker(a.sig, b.sig, span, ell)
    # The operands' lowest digits are units, so their product's is one
    # (ell is prime): s has no low zero digit and is canonical as it is.
    return _element(a.ring, lowest, s, W)


def _kronecker(sa: int, sb: int, span: int, ell: int) -> int:
    """Carry-free product of two base-ell significands, to ``span`` digits,
    by Kronecker substitution: each of the low ``span`` digits of each
    operand goes into its own f-bit field, one integer product convolves
    the fields, and each of its low ``span`` fields, reduced mod ell, is a
    digit of the product.  A field sums at most ``span`` digit products,
    each below ell^2, so f bits hold it and no field carries into the
    next."""
    f = ((ell - 1) ** 2 * span).bit_length()
    prod = _spread(sa, ell, f, span) * _spread(sb, ell, f, span)
    mask = (1 << f) - 1
    ds = []
    for _ in range(span):
        if not prod:
            break
        ds.append(prod & mask)
        prod >>= f
    return _pack_sig(ds, ell)


def _spread(sig: int, ell: int, f: int, n: int) -> int:
    """The lowest n base-ell digits of ``sig``, digit i in bits f*i up."""
    out, shift = 0, 0
    for _ in range(n):
        if not sig:
            break
        sig, d = divmod(sig, ell)
        out |= d << shift
        shift += f
    return out


def invert_element(a: Element) -> Element:
    """Multiplicative inverse in the fraction field, exact at the depth the
    operand supports.

    Needs working margin: an element of valuation v known to depth W has an
    inverse known to depth W - 2v.  Raises RankDeficient for zero.
    """
    if a.is_zero:
        raise RankDeficient("zero has no inverse")
    v = a.lowest_degree
    span = a.depth - v
    out_depth = a.depth - 2 * v
    if out_depth < 1:
        raise InsufficientDepth(2 * v + 1, a.depth, "inversion operand")
    ell = a.ring.ell
    if a.ring.mode is RingMode.PADIC:
        return _canonical(a.ring, -v, pow(a.sig, -1, ell ** span), out_depth)
    # the digits once, lowest first; sig < ell^span, so zeros pad them
    u = a.digits + (0,) * (span - len(a.digits))
    u0_inv = pow(u[0], -1, ell)
    ds = [u0_inv]
    for i in range(1, span):
        acc = sum(u[j] * ds[i - j] for j in range(1, i + 1)) % ell
        ds.append((-u0_inv * acc) % ell)
    return element_from_digits(ds, -v, a.ring, out_depth)


def truncate(a: Element, D: int) -> Element:
    """Zero every digit of degree >= D; the canonical coset representative."""
    if D > a.depth:
        raise BadDepth(f"truncation depth {D} exceeds working depth {a.depth}")
    keep = a.ring.ell ** max(D - a.lowest_degree, 0)
    return _canonical(a.ring, a.lowest_degree, a.sig % keep, a.depth)


def reduce_to_R(a: Element) -> Element:
    """Drop all digits of negative degree, mapping K onto R."""
    if a.lowest_degree >= 0:
        return a
    return _canonical(a.ring, 0, a.sig // a.ring.ell ** -a.lowest_degree,
                      a.depth)


def cell_index(a: Element, D: int) -> int:
    """Positional code of the depth-D residue cell containing ``a``.

    Bijective with cosets of p^D in R: code = sum digit_i * ell^i over
    degrees 0..D-1.
    """
    if a.lowest_degree < 0:
        raise NegativeValuation(f"cell_index needs an R-element, got valuation "
                                f"{a.lowest_degree}")
    if D > a.depth:
        raise BadDepth(f"cell depth {D} exceeds working depth {a.depth}")
    ell = a.ring.ell
    return a.sig * ell ** a.lowest_degree % ell ** D


def vector_cell_index(v: ElementVector, D: int) -> int:
    """Combined code of the depth-D cell of a vector: the entries'
    :func:`cell_index` codes as base-ell^D digits, the first entry lowest."""
    if len(v.entries) == 1:
        return cell_index(v.entries[0], D)
    base = v.ring.ell ** D
    code = 0
    for e in reversed(v.entries):
        code = code * base + cell_index(e, D)
    return code


def element_from_cell(ring: RingSpec, code: int, D: int, W: int | None = None) -> Element:
    """Canonical representative of the depth-D cell with the given code."""
    if W is None:
        W = D
    if W < 1:
        raise BadDepth(f"working depth {W} must be positive")
    return _canonical(ring, 0, int(code) % ring.ell ** D, W)


def vector_from_cell(ring: RingSpec, code: int, D: int, dim: int) -> ElementVector:
    """Inverse of :func:`vector_cell_index`: canonical entry representatives."""
    base = ring.ell ** D
    return vector(*[element_from_cell(ring, code // base ** i, D)
                    for i in range(dim)])


def enumerate_residues(ring: RingSpec, D: int) -> Iterator[Element]:
    """All ell^D depth-D cell representatives, ordered by cell_index.

    A generator; call again to restart.
    """
    if D < 1:
        raise BadDepth(f"enumeration depth {D} must be >= 1")
    for code in range(ring.ell ** D):
        yield element_from_cell(ring, code, D)


# ---------------------------------------------------------------------------
# Text format: <ring>:<ell>:<lowest_degree>:<d0,d1,...>  e.g. zp:2:0:1,0,1
# ---------------------------------------------------------------------------

_FACTORIES = {RingMode.PADIC.value: padic_ring,
              RingMode.POWER_SERIES.value: power_series_ring}


def format_element(a: Element) -> str:
    """Digit-string form; digits run from the valuation up to depth-1.

    Zero is emitted as a single 0 digit at degree 0, padded to the depth."""
    low = a.lowest_degree
    ds = _unpack_sig(a.sig, a.ring.ell)
    ds += [0] * (max(a.depth - low, 1) - len(ds))
    return f"{a.ring.tag}:{a.ring.ell}:{low}:{','.join(map(str, ds))}"


def parse_element(text: str, min_depth: int | None = None) -> Element:
    """Inverse of :func:`format_element`; the digit count fixes the depth.

    With ``min_depth`` the digit string is an exact finite expansion
    instead: the digits past it are known zeros, and the element is known
    to at least that depth, even when its digits all lie below degree 0."""
    parts = text.strip().split(":")
    if len(parts) != 4:
        raise ValueError(f"malformed element {text!r}: expected 4 ':'-separated "
                         "fields <ring>:<ell>:<lowest_degree>:<digits>")
    tag, ell_s, low_s, digits_s = parts
    if tag not in _FACTORIES:
        raise ValueError(f"unknown ring tag {tag!r} (expected zp or fq)")
    try:
        ell = int(ell_s)
        low = int(low_s)
        ds = [int(p) for p in digits_s.split(",")] if digits_s else []
    except ValueError as e:
        raise ValueError(f"malformed element {text!r}: {e}") from None
    if not ds:
        raise ValueError(f"malformed element {text!r}: empty digit list")
    ring = _FACTORIES[tag](ell)
    depth = low + len(ds)
    if min_depth is not None:
        depth = max(depth, min_depth)
    return element_from_digits(ds, low, ring, depth)


# ---------------------------------------------------------------------------
# Vectors and matrices (entrywise max norm)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ElementVector:
    """A tuple of elements over one ring, normalized to a shared depth."""

    entries: tuple[Element, ...]

    def __post_init__(self):
        entries = self.entries
        if not entries:
            raise ValueError("empty vector")
        r, W = entries[0].ring, entries[0].depth
        mixed = False
        for e in entries:
            if e.ring is not r and e.ring != r:
                raise RingMismatch("vector entries must share one ring")
            if e.depth != W:
                mixed, W = True, min(W, e.depth)
        object.__setattr__(self, "entries", tuple(
            _with_depth(e, W) for e in entries) if mixed else tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def ring(self) -> RingSpec:
        return self.entries[0].ring

    @property
    def depth(self) -> int:
        return self.entries[0].depth

    def norm(self) -> Fraction:
        return max(e.norm() for e in self.entries)

    def valuation(self):
        return min(e.valuation for e in self.entries)

    def __getitem__(self, i) -> Element:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "ElementVector") -> "ElementVector":
        return vector(*[add(a, b) for a, b in
                        zip(self.entries, other.entries, strict=True)])

    def __sub__(self, other: "ElementVector") -> "ElementVector":
        return vector(*[sub(a, b) for a, b in
                        zip(self.entries, other.entries, strict=True)])

    def __neg__(self) -> "ElementVector":
        return vector(*[neg(e) for e in self.entries])


_set_entries = ElementVector.entries.__set__


def vector(*entries: Element) -> ElementVector:
    """``ElementVector(entries)``; one Element, with nothing to check or
    normalize, is set in place as ``_element`` sets an Element's slots."""
    if len(entries) == 1 and type(entries[0]) is Element:
        v = _new(ElementVector)
        _set_entries(v, entries)
        return v
    return ElementVector(entries)


@dataclass(frozen=True, slots=True)
class ElementMatrix:
    """Row-major matrix of elements, its rows a tuple of tuples (as given,
    or made so, so that a matrix hashes); norm is the max entry norm."""

    rows: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        rows = self.rows
        if type(rows) is tuple and len(rows) == 1 and type(rows[0]) is tuple \
                and len(rows[0]) == 1 and type(rows[0][0]) is Element:
            return  # 1 x 1: neither ragged nor over two rings
        if type(rows) is not tuple or any(type(r) is not tuple for r in rows):
            rows = tuple(tuple(r) for r in rows)
            object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        w = len(rows[0])
        r = rows[0][0].ring
        for row in rows:
            if len(row) != w:
                raise ValueError("ragged matrix")
            for e in row:
                if e.ring is not r and e.ring != r:
                    raise RingMismatch("matrix entries must share one ring")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def ring(self) -> RingSpec:
        return self.rows[0][0].ring

    def norm(self) -> Fraction:
        return max(e.norm() for row in self.rows for e in row)

    def valuation(self):
        return min(e.valuation for row in self.rows for e in row)

    def __getitem__(self, rc) -> Element:
        return self.rows[rc[0]][rc[1]]

    def __sub__(self, other: "ElementMatrix") -> "ElementMatrix":
        return ElementMatrix(tuple(
            tuple(sub(a, b) for a, b in zip(ra, rb, strict=True))
            for ra, rb in zip(self.rows, other.rows, strict=True)))


def mat_vec(M: ElementMatrix, v: ElementVector) -> ElementVector:
    """Matrix-vector product; dims (r x c) . (c) -> (r)."""
    ve = v.entries
    if len(ve) != len(M.rows[0]):
        raise ValueError(f"shape mismatch: {M.shape} . {v.dim}")
    out = []
    for row in M.rows:
        acc = mul(row[0], ve[0])
        for j in range(1, len(ve)):
            acc = add(acc, mul(row[j], ve[j]))
        out.append(acc)
    return vector(*out)


def mat_mul(A: ElementMatrix, B: ElementMatrix) -> ElementMatrix:
    ra, ca = A.shape
    rb, cb = B.shape
    if ca != rb:
        raise ValueError(f"shape mismatch: {A.shape} . {B.shape}")
    rows = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = mul(A.rows[i][0], B.rows[0][j])
            for k in range(1, ca):
                acc = add(acc, mul(A.rows[i][k], B.rows[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return ElementMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Residue layer: depth-D ring arithmetic on packed cell codes in numpy int64
# arrays.  PADIC codes are plain integers mod ell^D; POWER_SERIES codes
# pack the digit vector positionally in base ell.  Only nonnegative-valuation
# values are representable here.
# ---------------------------------------------------------------------------

def _unpack_digits(ring: RingSpec, a, D: int) -> np.ndarray:
    """Digit array of shape a.shape + (D,)."""
    arr = np.asarray(a, dtype=np.int64)
    pows = ring.ell ** np.arange(D, dtype=np.int64)
    return (arr[..., None] // pows) % ring.ell


def _pack_digits(ring: RingSpec, digits: np.ndarray) -> np.ndarray:
    pows = ring.ell ** np.arange(digits.shape[-1], dtype=np.int64)
    return digits @ pows


def _signed_add(ring: RingSpec, D: int, a, b, sign: int):
    """Depth-D a + sign * b of packed codes, sign = +1 or -1."""
    if ring.mode is RingMode.PADIC:
        return (a + b if sign > 0 else a - b) % ring.ell ** D
    if ring.ell == 2:
        return a ^ b
    da = _unpack_digits(ring, a, D)
    db = _unpack_digits(ring, b, D)
    return _pack_digits(ring, (da + sign * db) % ring.ell)


def residue_add(ring: RingSpec, D: int, a, b):
    return _signed_add(ring, D, a, b, 1)


def residue_neg(ring: RingSpec, D: int, a):
    return _signed_add(ring, D, 0, a, -1)


def residue_sub(ring: RingSpec, D: int, a, b):
    return _signed_add(ring, D, a, b, -1)


def residue_mul(ring: RingSpec, D: int, a, b):
    """Depth-D product of packed codes.

    POWER_SERIES is a truncated carry-free convolution; ell = 2 uses
    shift/xor, one step per bit set in the scalar ``b``, else per bit set
    in any code of ``a`` (a phi table summand's multiplicand holds only its
    own digits); ell >= 3 a matmul by ``_toeplitz(b)``: pass the smaller
    as b.
    """
    if ring.mode is RingMode.PADIC:
        return (a * b) % ring.ell ** D
    if ring.ell == 2:
        mask = (1 << D) - 1
        if np.ndim(b) == 0:  # the read-back's z_at(w)
            aa = np.asarray(a, dtype=np.int64)
            acc = np.zeros(aa.shape, dtype=np.int64)
            x = int(b) & mask
            while x:
                i = (x & -x).bit_length() - 1
                acc ^= (aa << i) & mask
                x &= x - 1
            return acc
        aa, bb = np.asarray(a), np.asarray(b)
        acc = np.zeros(np.broadcast_shapes(aa.shape, bb.shape), dtype=np.int64)
        x = int(np.bitwise_or.reduce(aa, axis=None)) & mask if aa.size else 0
        while x:
            i = (x & -x).bit_length() - 1
            acc ^= ((aa >> i) & 1) * ((bb << i) & mask)
            x &= x - 1
        return acc
    da = _unpack_digits(ring, a, D)[..., None, :]
    prod = np.matmul(da, _toeplitz(ring, D, b))[..., 0, :]
    return _pack_digits(ring, prod % ring.ell)


def _toeplitz(ring: RingSpec, D: int, b) -> np.ndarray:
    """Digit convolution matrices of the codes ``b``, shape b.shape + (D, D).

    Row i holds b's digits moved up i places, so ``digits(a) @ T`` is the
    truncated carry-free product a*b digit by digit, before the mod ell."""
    db = _unpack_digits(ring, b, D)
    T = np.zeros(db.shape + (D,), dtype=np.int64)
    for i in range(D):
        T[..., i, i:] = db[..., :D - i]
    return T


# An eighth of the most bytes one block of any pass over packed rows
# holds, a bool pass's unpacked flags included, and so the most int64
# entries in one block of walk rows (see _walk); block_rows alone reads it,
# for the walk's blocks (_block_digits) too.  Each walk step moves a
# whole block with a few numpy calls, so a block must be large enough to
# amortize the Python step and small enough to stay in cache.
# BENCH_14.json records the sweep: 2^14 to 2^16 ran equally fast, and 2^14
# holds the least memory.
WALK_BLOCK_ENTRIES = 2 ** 14


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes a pass over packed rows takes
    at once: as many as hold at most 8 * ``WALK_BLOCK_ENTRIES`` bytes, one
    row at least.  A bool pass counts a row's unpacked flags, a byte each,
    and a pass that stays packed its bytes.  The one rule for every pass
    over packed rows: the bool lift tile of :func:`_bitmap`, the folds'
    walk blocks (:func:`_block_digits`) and measure's projection."""
    return max(1, 8 * WALK_BLOCK_ENTRIES // row_bytes)


def residue_mul_sub(ring: RingSpec, D: int, a: np.ndarray, c: np.ndarray):
    """Prepare w -> a*w - c for the 1-D arrays ``a`` and ``c`` of depth-D
    codes (each in [0, ell^D)).

    Returns ``(z_at, bitmap)``.  ``z_at`` maps one int w code to the 1-D
    row of depth-D codes of a*w - c.  ``bitmap()`` is :func:`_bitmap` of
    the same pairs: the hits packed, eight z cells per byte, a uint8 array
    of shape (ell^D, ceil(ell^D / 8)) whose row w is ``np.packbits`` of the
    ell^D flags set exactly at ``z_at(w)`` (z = 8k + i is bit 7 - i of byte
    k), its padding bits zero.
    """

    def z_at(w: int) -> np.ndarray:
        return residue_sub(ring, D, residue_mul(ring, D, a, w), c)

    return z_at, functools.partial(_bitmap, ring, D, a, c)


def _bitmap(ring: RingSpec, D: int, a: np.ndarray, c: np.ndarray
            ) -> np.ndarray:
    """The packed hits of the pairs (a, c) at depth D, as ``bitmap()`` of
    :func:`residue_mul_sub` returns them.

    It rests on two identities, true in both rings since a carry past
    digit D - 1 vanishes mod ell^D (and fq has none).  With c = c1 +
    s*ell^(D-1) (c1 < ell^(D-1), s < ell), a*w - c = (a*w - c1) -
    s*ell^(D-1): s moves only z's top digit, and z mod ell^(D-1) reads only
    a, w and c1 mod ell^(D-1).  With w = u + t*ell^(D-k) (u < ell^(D-k),
    t < ell^k), a*w - c = (a*u - c) + g*t*ell^(D-k) for g = a mod ell^k,
    g*t taken at depth k (carry-free on fq): t moves only z's top k digits.

    * Lift.  Pairs sharing a and c1 and taking all ell values of s (a full
      group) hit, at every w, each top digit over that low part.  For
      D >= 2 their hits are the ell^2 lifts, over w's and z's top digit,
      of ``_bitmap(ring, D - 1, a mod ell^(D-1), c1)`` of their pairs,
      which lifts its own full groups in turn.  Repeated pairs count once.
    * Fold.  The other pairs of class g hit in row w their cells of row u
      with z's top k digits moved by g*t.  They are laid out as one row of
      n pairs per class, each padded to the largest class's length by
      repeating its own pairs (a repeat sets no new cell), and one
      :func:`_walk` steps all the rows together over the ell^(D-k) rows u
      in blocks of B rows, so each pair is stepped and scattered ell^(D-k)
      times, not ell^D.  k is one digit but at ell = 2 from D = 8, where
      it is 2 or 3 (:func:`_fold_digits`): there each of z's 2^k chunks of
      2^(D-k) cells is whole bytes, so the move is a permutation of the
      chunks of a packed row, and :func:`_fold_packed` ors each class's
      packed rows, chunks permuted, into the output.  With k = 1,
      :func:`_fold` finishes each block of rows u for every t in a small
      bool working block, then packs and ors it in once.  Both folds take
      B and n from here; :func:`_block_digits` sizes B.

    The output is started in one place: it holds the tiled lift, or no
    cell; a fold ors its rows in.  The packed lower rows are tiled straight
    into it where a row of ell^(D-1) cells fills whole bytes (ell = 2,
    D >= 4), and through bool otherwise, in the blocks of rows that
    :func:`block_rows` gives every pass over packed rows, measure's
    projection too.  The folds' bool blocks are bounded by
    :func:`_block_digits`, so no ell^(2D) bool array is allocated.
    """
    ell, m = ring.ell, ring.ell ** D
    top = m // ell
    k = _fold_digits(ell, D)
    K = ell ** k
    U = m // K
    # One sort of the pairs, keyed class-major (a mod K, a // K, c1, s):
    # each group is a run of distinct keys, each class a run of the
    # folded pairs.  A stable argsort raised general_ell's peak RSS by
    # 0.1-0.2 MB, and np.unique (numpy 2.4) took 4x as long on 1,024 keys.
    keys = (a % K * U + a // K) * m + c % top * ell + c // top
    keys.sort()
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    grp, s = np.divmod(keys[distinct], ell)
    # ell distinct keys in a row in one group (a, c1) are all of it, a
    # full group; with fewer than ell keys both sides are empty
    starts = np.flatnonzero(grp[ell - 1:]
                            == grp[:max(len(grp) - ell + 1, 0)])
    lower = None
    if D > 1 and len(starts):  # ar = g*U + a // K, the key's a
        ar, c1 = np.divmod(grp[starts], top)
        lower = _bitmap(ring, D - 1, ar % U * K % top + ar // U, c1)
        rest = np.ones(len(grp), dtype=bool)
        rest[starts[:, None] + np.arange(ell)] = False
        grp, s = grp[rest], s[rest]
    out = np.zeros((ell, top, -(-m // 8)), dtype=np.uint8)
    if lower is not None and top % 8 == 0:
        out.reshape(ell, top, ell, top // 8)[:] = lower[:, None, :]
    elif lower is not None:  # through bool, a block of rows at a time
        B = block_rows(m)
        for u0 in range(0, top, B):
            out[:, u0:u0 + B] = np.packbits(np.tile(np.unpackbits(
                lower[u0:u0 + B], axis=1, count=top), ell), axis=1)
    if len(grp):  # a walk's set-up took 26-100 us, pairs or none
        counts = np.bincount(grp // (top * U), minlength=K)  # per class
        classes = np.flatnonzero(counts)
        size = counts[classes, None]
        n = int(size.max())  # the width of a row of pairs
        # row p takes class p's run of pairs, repeated up to the largest
        # class's length: a repeated pair sets no new cell
        pick = np.cumsum(counts)[classes, None] - size + np.arange(n) % size
        ar, c1 = np.divmod(grp[pick], top)
        rows = 2 * len(classes) if k > 1 else 1  # see _block_digits
        J = _block_digits(ell, D, n, D - k, rows)
        walk = _walk(ring, D, ar % U * K + ar // U, c1 + s[pick] * top,
                     D - k, J)
        if k == 1:
            _fold(out, classes.tolist(), walk, ell ** J, n)
        else:  # row w = t*U + u; a chunk of U z cells is whole bytes
            j = np.arange(K)
            perms = residue_sub(ring, k, j, residue_mul(
                ring, k, j[:, None], classes[:, None, None]))
            _fold_packed(out.reshape(K, U, K, U // 8), [
                None if g == 0 else p
                for g, p in zip(classes.tolist(), perms)], walk, ell ** J, n)
    return out.reshape(m, -1)


def _fold_digits(ell: int, D: int) -> int:
    """How many top digits k of w :func:`_bitmap` folds at depth D: at
    ell = 2, k = D - 6 up to 3, and 1 below D = 8 and at ell >= 3.  Each
    chunk of z's ell^(D-k) low cells is then whole bytes.  Timed on the
    sawyer pairs (``BENCH_27.json``), the bool fold of one digit was
    fastest up to D = 7, k = 2 at D = 8, and k = 3 from D = 9 to 16."""
    return min(3, max(1, D - 6)) if ell == 2 else 1


def _fold(out: np.ndarray, classes: list, walk, B: int, n: int):
    """The fold of w's top digit (k = 1) in bool: at ell >= 3, and at
    ell = 2 below D = 8, where the packed fold measured no faster.  Or
    into ``out`` (axes: w's top digit t, its low code u, packed z) the
    hits of the class rows that ``walk`` (:func:`_walk`) yields, one
    ``(u0, Z)`` per block of B rows u, where ``Z[p]``, of shape (B, n),
    holds the rows of class ``classes[p]`` (the classes in increasing
    order); :func:`_bitmap` passes the B and n it set the walk up with.

    Each block is finished in a bool working block, packed and or-ed in
    once: class 0 hits the same cells at every t, so it is set once, and
    packed once when no other class follows; another class is set in a
    scratch, or-ed into a copy for each t rolled by g*t*ell^(D-1)."""
    ell, top, _ = out.shape
    m = ell * top
    rolled = classes[-1] > 0
    work = np.empty((ell if rolled else 1, B, m), dtype=bool)
    scratch = np.empty((B, m) if rolled else 0, dtype=bool)
    # row r of a class's block sets working row r; the offsets are
    # materialized, since adding a broadcast column took 2.5x as long
    offsets = np.broadcast_to(np.arange(0, B * m, m)[:, None], (B, n)).copy()
    idx = np.empty((B, n), dtype=np.int64)  # one scatter's index at a time
    for u0, Z in walk:
        base = work[0]
        base[:] = False
        rows = zip(classes, Z)
        if classes[0] == 0:
            base.reshape(-1)[np.add(next(rows)[1], offsets, out=idx)] = True
        work[1:] = base
        for g, z in rows:
            scratch[:] = False
            scratch.reshape(-1)[np.add(z, offsets, out=idx)] = True
            for t in range(ell):
                sh = g * t % ell * top
                part = work[t, :, sh:]
                part |= scratch[:, :m - sh]
                if sh:
                    part = work[t, :, :sh]
                    part |= scratch[:, m - sh:]
        out[:, u0:u0 + B] |= np.packbits(work, axis=-1)


def _fold_packed(out: np.ndarray, perms: list, walk, B: int, n: int):
    """The fold of w's top k >= 2 digits at ell = 2, in packed bytes.  Or
    into ``out`` (axes: w's top k digits t, its low code u, z's top k
    digits j, the bytes of z's 2^(D-k) low cells) the hits of the class
    rows that ``walk`` (:func:`_walk`) yields, one ``(u0, Z)`` per block of
    B rows u, as :func:`_bitmap` set it up; ``Z[p]``, of shape (B, n),
    holds the rows of the p-th class, and ``perms[p]`` its chunk map: row
    u + t*2^(D-k) takes, as its chunk j, chunk ``perms[p][t, j]`` of row u
    (None for class 0, whose chunks stay).

    Each block of every class is scattered into one bool scratch and
    packed once into a round of S blocks, S <= 8, whose packed rows take
    no more bytes than the scratch.  The walk's aligned runs of S blocks
    cover aligned runs of S*B rows u, so after each run every class is
    or-ed into those rows for every t: class 0 as it is, another class
    with its chunks gathered by one ``take``.  The ors thus run once per
    S blocks, on S times the rows; one round per block took 1.3-1.6x as
    long at D = 10 to 14 (``BENCH_27.json``)."""
    K, U, _, cb = out.shape
    m = K * cb * 8
    C = len(perms)
    S = min(8, U // B)  # blocks a round: no more packed bytes than flags
    flags = np.empty((C, B, m), dtype=bool)
    offsets = np.broadcast_to(np.arange(0, C * B * m, m).reshape(C, B, 1),
                              (C, B, n)).copy()
    idx = np.empty((C, B, n), dtype=np.int64)
    packed = np.empty((C, S * B, K, cb), dtype=np.uint8)
    moved = np.empty((S * B, K, K, cb), dtype=np.uint8)
    for done, (u0, Z) in enumerate(walk, 1):
        flags.fill(False)
        flags.reshape(-1)[np.add(Z, offsets, out=idx)] = True
        r = u0 % (S * B)
        packed[:, r:r + B] = np.packbits(flags, axis=-1).reshape(C, B, K, cb)
        if done % S:
            continue
        rows = out[:, u0 - r:u0 - r + S * B]
        for perm, P in zip(perms, packed):
            if perm is None:
                rows |= P
            else:
                P.take(perm, axis=1, out=moved)
                rows |= moved.transpose(1, 0, 2, 3)


def _block_digits(ell: int, D: int, n: int, digits: int,
                  rows: int = 1) -> int:
    """The J of :func:`_walk`'s blocks of B = ell^J rows u < ell^digits,
    for ``rows`` rows of n pairs: the largest J <= ``digits`` with B at
    most the :func:`block_rows` of a row of ``rows`` * max(8n, ell^D)
    bytes, so a block's int64 codes and its flags, a byte each, take
    no more bytes than every pass over packed rows.  The bool fold
    scatters one class at a time (rows = 1); the packed fold scatters its
    C classes at once and holds a round of packed rows as large as their
    flags, so it passes rows = 2C."""
    B, J = block_rows(rows * max(8 * n, ell ** D)), 0
    while J < digits and ell ** (J + 1) <= B:
        J += 1
    return J


def _walk(ring: RingSpec, D: int, a: np.ndarray, c: np.ndarray,
          digits: int, J: int):
    """The rows z_at(u) = a*u - c of :func:`residue_mul_sub` at the w codes
    u < ell^digits (digits = D - k for a fold of k top digits of w), in
    blocks of B = ell^J rows (J <= digits, from :func:`_block_digits`),
    for every row of pairs at once.

    ``a`` and ``c`` have shape (C, n), C rows of n pairs (the classes of
    :func:`_bitmap`), or (n,) for one row.  The generator visits every such
    u once, yielding one ``(u0, Z)`` per step: ``Z`` has shape (C, B, n), or
    (B, n), and row r of the contiguous block ``Z[p]`` is ``z_at(u0 + r)``
    of row p's pairs; the next step may overwrite ``Z``.  The addends
    a*t^i (code a*ell^i mod ell^D in either ring), the fq ell >= 3 addition
    table and the block buffers are built once, for all rows, and each step
    is one set of numpy calls over all of them.

    A block holds the rows of the J low digits of u.  The first block
    (u0 = 0) is filled by ell-ary doubling from the row -c: rows
    k*ell^j + r are rows (k-1)*ell^j + r plus a*t^j, for j < J,
    k = 1..ell-1 and r < ell^j.  Each later step raises one digit i of u0,
    J <= i < digits, and adds a*t^i to the whole block:

    * PADIC steps u0 by B: Z += a*B mod ell^D.  At ell = 2 a mask reduces;
      at ell >= 3 Z + a*B < 2 ell^D, so one conditional subtraction does,
      taken as the unsigned minimum of Z and Z - ell^D into a reused
      scratch block: no division.
    * POWER_SERIES walks the digits J..digits-1 in an ell-ary (modular)
      Gray order: step k raises digit i of u0 by 1 mod ell, i = J +
      v_ell(k) (lowest digit first) at ell = 2 and i = digits - 1 -
      v_ell(k) (highest first) at ell >= 3.  At ell = 2 the step is
      Z ^= a*t^i, and, as on PADIC, each aligned run of 2^s steps covers
      an aligned run of 2^s blocks, which :func:`_fold_packed` ors
      together.  At ell >= 3 Z is held as a low half of h = ceil(D/2)
      digits and a high half of D - h digits; each half is added with one
      ``take`` from the ell^h x ell^h carry-free addition table (so
      ``z_at`` never allocates it).  A step with i >= h changes only the
      high half.
    """
    ell, m = ring.ell, ring.ell ** D
    B = ell ** J
    # the addends and -c broadcast over a block's rows; a step's src and
    # dst index the rows of every pair row at once
    adds = [(a * ell ** i % m)[..., None, :] for i in range(digits)]
    z0 = residue_neg(ring, D, c)[..., None, :]
    z = np.empty(a.shape[:-1] + (B, a.shape[-1]), dtype=np.int64)
    split = ring.mode is RingMode.POWER_SERIES and ell > 2
    if split:
        h = (D + 1) // 2
        half = ell ** h
        u = np.arange(half, dtype=np.int64)
        table = residue_add(ring, h, u[:, None], u[None, :]).ravel()
        scaled = table * half
        # The table is symmetric, so either operand may pick its row: the
        # low addend is scaled to pick it, while z's high half is held
        # scaled by ell^h, picks the row and is read back scaled from
        # ``scaled``, making the row hi + lo.
        lo_adds = [x % half * half for x in adds[:h]]
        adds = [x // half for x in adds]  # the high halves, for the walk
        lo, hi = np.empty_like(z), np.empty_like(z)
        lo[..., :1, :] = z0 % half
        hi[..., :1, :] = z0 - lo[..., :1, :]
        # z holds a step's take indices, in range, so mode="clip" takes
        # unbuffered, and between steps the block hi + lo

        def step(src, dst, i):
            if i < h:
                np.add(lo_adds[i], lo[src], out=z[dst])
                table.take(z[dst], out=lo[dst], mode="clip")
            elif src != dst:
                lo[dst] = lo[src]
            np.add(adds[i], hi[src], out=z[dst])
            scaled.take(z[dst], out=hi[dst], mode="clip")
    else:
        z[..., :1, :] = z0
        if ring.mode is RingMode.POWER_SERIES:
            def step(src, dst, i):
                np.bitwise_xor(z[src], adds[i], out=z[dst])
        elif ell == 2:  # a mask is 3-5x cheaper than %
            def step(src, dst, i):
                np.add(z[src], adds[i], out=z[dst])
                np.bitwise_and(z[dst], m - 1, out=z[dst])
        else:
            # z + a*ell^i < 2m; z - m wraps above z as uint64 exactly when
            # z < m, so an unsigned min is the reduction, with no %.
            t = np.empty_like(z)
            zu, tu = z.view(np.uint64), t.view(np.uint64)

            def step(src, dst, i):
                np.add(z[src], adds[i], out=z[dst])
                np.subtract(z[dst], m, out=t[dst])
                np.minimum(zu[dst], tu[dst], out=zu[dst])

    def block():
        return np.add(hi, lo, out=z) if split else z

    for j in range(J):
        s = ell ** j
        for k in range(1, ell):
            step(np.s_[..., (k - 1) * s:k * s, :],
                 np.s_[..., k * s:(k + 1) * s, :], j)
    yield 0, block()
    u0, ud = 0, [0] * D
    for k in range(1, ell ** digits // B):
        if ring.mode is RingMode.PADIC:
            i, u0 = J, u0 + B
        else:
            v = 0  # v_ell(k)
            while k % ell ** (v + 1) == 0:
                v += 1
            i = J + v if ell == 2 else digits - 1 - v
            ud[i] = (ud[i] + 1) % ell
            u0 += ell ** i if ud[i] else -(ell - 1) * ell ** i
        step(..., ..., i)
        yield u0, block()


def residue_shift_down(ring: RingSpec, k: int, a):
    """Drop the k lowest digits (exact division by the uniformizer^k).

    Caller guarantees those digits are zero; both modes reduce to an
    integer floor-division by ell^k on the packed code.
    """
    return a // ring.ell ** k
