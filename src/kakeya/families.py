"""Surface families f(x, y, w) with analytic Jacobians.

A :class:`FamilyDescriptor` bundles the evaluation map together with the
Jacobians in x and y and a right inverse of the y-Jacobian, all as pure
callables on exact elements.  Construction code maps a parameter x to the
surface point (w, f(x, phi(x), w)).

Two line families are built in:

* ``kakeya``:  f(x, y, w) = x*w - y   (a line of slope x, translated by y)
* ``nikodym``: f(x, y, w) = y*w - x   (slope and translation exchanged)

Descriptors never differentiate numerically; the built-in families are
bilinear, so their Jacobians are exact and their linear-approximation error
is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InsufficientDepth, RankDeficient, RingMismatch
from .phi import PhiConfig, PhiVariant, phi_dh_eval, phi_eval
from .ring import (
    Element,
    ElementMatrix,
    ElementVector,
    RingMode,
    RingSpec,
    _canonical,
    element_from_digits,
    mul,
    neg,
    one,
    reduce_to_R,
    residue_mul_sub,
    sub,
    truncate,
    vector,
)


@dataclass(frozen=True)
class FamilyDescriptor:
    """A family of d-dimensional surfaces in n-space indexed by (x, y).

    ``eval``, ``dfdx``, ``dfdy`` and ``dfdy_right_inverse`` are pure
    callables taking (x, y, w, depth).  The right inverse must satisfy
    dfdy . dfdy_right_inverse = identity wherever the descriptor declares
    full rank; where it does not, the callable raises RankDeficient.

    ``cells_eval``, when present, evaluates the same map on packed depth-D
    residue codes and exists purely to accelerate exhaustive enumeration;
    the measure tests pin it to ``eval``.  ``cells_eval(ring, D, x_res,
    y_res)`` takes the 1-D code arrays of the (x, y) pairs once, which may
    repeat, and returns ``(z_at, bitmap)``: ``z_at`` maps one int w code to
    the 1-D row of the pairs' z codes, one per pair, and ``bitmap()``
    returns the hits packed, eight per byte: a uint8 array of shape
    (ell^D, ceil(ell^D / 8)) whose row w is ``np.packbits`` of the ell^D
    flags set at ``z_at(w)``, padding bits zero (the rows of
    :class:`~kakeya.measure.CellSet`); :func:`~kakeya.ring.residue_mul_sub`,
    the kakeya ``cells_eval``, which nikodym calls with its arguments
    swapped, gives the build.  Per-pair work that does not depend on w is
    done once, in the call that prepares them.  Without
    ``cells_eval``, a hit-set enumeration takes its element-level twin
    (:func:`~kakeya.measure._element_eval`), with the same contract on
    combined cell codes: it calls ``eval`` on the depth-D cell
    representatives of x and phi(x), whose digits at D and above are
    unknown, so a family whose z-cell needs those digits gets a z known to
    fewer than D digits and the enumeration raises BadDepth.  The packed
    scalar codes exist only for p = q = d = 1, so a ``cells_eval`` on
    other dimensions is refused with ``ValueError``.
    """

    name: str
    ring: RingSpec
    p_dim: int
    q_dim: int
    d_dim: int
    n_dim: int
    eval: Callable[[ElementVector, ElementVector, ElementVector, int], ElementVector]
    dfdx: Callable[[ElementVector, ElementVector, ElementVector, int], ElementMatrix]
    dfdy: Callable[[ElementVector, ElementVector, ElementVector, int], ElementMatrix]
    dfdy_right_inverse: Callable[
        [ElementVector, ElementVector, ElementVector, int], ElementMatrix]
    cells_eval: Callable | None = None

    def __post_init__(self):
        out = self.n_dim - self.d_dim
        if not self.p_dim <= out <= self.q_dim:
            raise ValueError(
                f"need p <= n-d <= q, got p={self.p_dim}, n-d={out}, "
                f"q={self.q_dim}")
        dims = (self.p_dim, self.q_dim, self.d_dim)
        if self.cells_eval is not None and dims != (1, 1, 1):
            raise ValueError(f"cells_eval needs p = q = d = 1, got {dims}")

    @property
    def out_dim(self) -> int:
        return self.n_dim - self.d_dim

    def check_w(self, w: ElementVector):
        """Refuse a ``w`` over another ring or with other than d entries."""
        if w.ring != self.ring:
            raise RingMismatch(f"w is over {w.ring}, the family over {self.ring}")
        if w.dim != self.d_dim:
            raise ValueError(f"w has {w.dim} entries, need d = {self.d_dim}")


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
    u = [a.digit(v + i) for i in range(span)]
    u0_inv = pow(u[0], -1, ell)
    ds = [u0_inv]
    for i in range(1, span):
        acc = sum(u[j] * ds[i - j] for j in range(1, i + 1)) % ell
        ds.append((-u0_inv * acc) % ell)
    return element_from_digits(ds, -v, a.ring, out_depth)


def kakeya_line_family(ring: RingSpec) -> FamilyDescriptor:
    """f(x, y, w) = x*w - y: one line per direction x, translated by y."""

    def f_eval(x, y, w, depth):
        return vector(sub(mul(x[0], w[0]), y[0]))

    def f_dfdx(x, y, w, depth):
        return ElementMatrix(((w[0],),))

    def f_dfdy(x, y, w, depth):
        return ElementMatrix(((neg(one(ring, depth)),),))

    return FamilyDescriptor(
        name="kakeya", ring=ring, p_dim=1, q_dim=1, d_dim=1, n_dim=2,
        eval=f_eval, dfdx=f_dfdx, dfdy=f_dfdy,
        dfdy_right_inverse=f_dfdy, cells_eval=residue_mul_sub)


def nikodym_line_family(ring: RingSpec) -> FamilyDescriptor:
    """f(x, y, w) = y*w - x: the roles of direction and translation swapped.

    The y-Jacobian is w itself, so the right inverse exists only for
    nonzero w (and eats working depth proportional to v(w))."""

    def f_eval(x, y, w, depth):
        return vector(sub(mul(y[0], w[0]), x[0]))

    def f_dfdx(x, y, w, depth):
        return ElementMatrix(((neg(one(ring, depth)),),))

    def f_dfdy(x, y, w, depth):
        return ElementMatrix(((w[0],),))

    def f_dfdy_rinv(x, y, w, depth):
        if w[0].is_zero:
            raise RankDeficient("nikodym family: dF/dy = w is zero at w = 0")
        return ElementMatrix(((invert_element(w[0]),),))

    def f_cells(rg, D, x_res, y_res):
        return residue_mul_sub(rg, D, y_res, x_res)

    return FamilyDescriptor(
        name="nikodym", ring=ring, p_dim=1, q_dim=1, d_dim=1, n_dim=2,
        eval=f_eval, dfdx=f_dfdx, dfdy=f_dfdy,
        dfdy_right_inverse=f_dfdy_rinv, cells_eval=f_cells)


BUILTIN_FAMILIES = {
    "kakeya": kakeya_line_family,
    "nikodym": nikodym_line_family,
}


def phi_for_family(fam: FamilyDescriptor, variant: PhiVariant,
                   x: ElementVector, D: int) -> ElementVector:
    """The universal function the construction pairs with x, at depth D."""
    if variant is PhiVariant.SAWYER:
        cfg = PhiConfig(fam.ring, p_dim=fam.p_dim, q_dim=fam.q_dim)
        return phi_eval(x, cfg, D)
    if fam.p_dim != 1 or fam.q_dim != 1:
        raise ValueError("the digit-shift variant is scalar-only (p = q = 1)")
    return vector(phi_dh_eval(reduce_to_R(x[0]), D))


def family_point(fam: FamilyDescriptor, phi_variant: PhiVariant,
                 x: ElementVector, w: ElementVector,
                 D: int) -> tuple[ElementVector, ElementVector]:
    """The surface point (w, z) with z = f(x, phi(x), w), exact to D digits."""
    fam.check_w(w)
    y = phi_for_family(fam, phi_variant, x, D)
    z = fam.eval(x, y, w, D)
    if z.depth < D:
        raise InsufficientDepth(D, z.depth, "family point")
    return w, ElementVector(tuple(truncate(e, D) for e in z))
