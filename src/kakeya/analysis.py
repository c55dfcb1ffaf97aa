"""Verification machinery: the six-term decomposition identity, integer
certificates for the bound lemmas behind it, and differentiability defect
scans.

The decomposition splits f(x, phi(x), w) into five correction terms and one
landmark value using the digit schedule; the split is an algebraic identity,
so the package checks it exactly at depth, with no tolerance.  The lemma
certificates reduce each term's smallness to integer inequalities in the
schedule functions and evaluate those directly (valuation arithmetic only;
no elements are materialized at large N).

Defect scans quantify differentiability classes: the linear-approximation
defect of a function against (1 + a) * v(h) for strong differentiability,
and the modulus of its derivative against a * v(h) for the Hoelder
condition.  Sampling is driven by a seeded linear-congruential digit
generator so every report is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BadIndex, InsufficientDepth, NegativeValuation
from .families import FamilyDescriptor
from .phi import (
    PhiConfig,
    PhiVariant,
    alpha,
    input_partial,
    lambda_floor,
    phi_input_depth,
    projection,
    series_sum,
    series_terms,
    summand_valuation_floor,
    tail_cutoff,
)
from .ring import (
    INF,
    Element,
    ElementVector,
    RingSpec,
    add,
    element_from_digits,
    mat_vec,
    mul,
    sub,
    truncate,
    vector,
)


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

class DigitSampler:
    """64-bit linear-congruential generator emitting digits in [0, ell).

    Deliberately not ``random.Random``: the recurrence is pinned here so
    reports stay bit-identical across platforms and Python versions.
    """

    _A = 6364136223846793005
    _C = 1442695040888963407
    _M = 1 << 64

    def __init__(self, seed: int = 1):
        self.state = seed % self._M

    def digit(self, ell: int) -> int:
        self.state = (self._A * self.state + self._C) % self._M
        return (self.state >> 33) % ell

    def element(self, ring: RingSpec, depth: int,
                valuation: int = 0) -> Element:
        """A random element of exact valuation ``valuation`` (unit digit
        forced nonzero), known to the given depth."""
        ell = ring.ell
        lead = 1 + self.digit(ell - 1) if ell > 2 else 1
        ds = [lead] + [self.digit(ell) for _ in range(depth - valuation - 1)]
        return element_from_digits(ds, valuation, ring, depth)

    def r_element(self, ring: RingSpec, depth: int) -> Element:
        """A uniform depth-``depth`` cell representative (zero allowed)."""
        ds = [self.digit(ring.ell) for _ in range(depth)]
        return element_from_digits(ds, 0, ring, depth)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic (x, h) sampling plan for defect scans."""

    ring: RingSpec
    scales: tuple[int, ...]
    samples_per_scale: int = 8
    seed: int = 1
    depth: int = 24


# ---------------------------------------------------------------------------
# Six-term decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermDecomposition:
    """The six pieces of f(x, phi(x), w) at landmark index N, each exact to
    depth D.  Their sum is the function value: an algebraic identity, checked
    with no tolerance."""

    term_i: ElementVector
    term_ii: ElementVector
    term_iii: ElementVector
    term_iv: ElementVector
    term_v: ElementVector
    term_vi: ElementVector
    f_value: ElementVector
    N: int
    depth: int

    def terms(self) -> tuple[ElementVector, ...]:
        return (self.term_i, self.term_ii, self.term_iii,
                self.term_iv, self.term_v, self.term_vi)

    def term_sum(self) -> ElementVector:
        acc = self.term_i
        for t in self.terms()[1:]:
            acc = acc + t
        return acc

    def identity_holds(self) -> bool:
        s = self.term_sum()
        return all(truncate(a, self.depth) == truncate(b, self.depth)
                   for a, b in zip(s, self.f_value))


def decomposition_input_depth(N: int, D: int, ell: int) -> int:
    """Input depth x needs for the decomposition at landmark N >= 1, depth D."""
    if N < 1:
        raise BadIndex(f"need N >= 1, got {N}")
    return max(alpha(N + 1), phi_input_depth(PhiVariant.SAWYER, D, ell))


def term_decomposition(fam: FamilyDescriptor, x: ElementVector,
                       w: ElementVector, N: int, D: int) -> TermDecomposition:
    """Split f(x, phi(x), w) around the landmark (x^(N), phi^(N)(x)).

    x^(N) keeps the first N digit slices of x; phi^(N) the first N series
    terms.  Terms I and II are the linear-approximation defects in x and y,
    III the Jacobian offset between the landmark and the true point, IV the
    tail beyond slice N, V the slice-N cross term, and VI the landmark value.
    """
    need = decomposition_input_depth(N, D, fam.ring.ell)
    fam.check_w(w)
    if any(not e.is_zero and e.lowest_degree < 0 for e in x):
        raise NegativeValuation("decomposition is taken over R^p")
    if x.depth < need:
        raise InsufficientDepth(need, x.depth, f"decomposition input (N={N})")

    cfg = PhiConfig(fam.ring, p_dim=fam.p_dim, q_dim=fam.q_dim)
    # each series term once: phi (phi_eval's sum to the cutoff K), phi^(N)
    # (phi_partial's) and slice N are read from one list
    K = tail_cutoff(D, fam.ring.ell)
    terms = series_terms(x, cfg, max(K, N) + 1)
    phi = series_sum(terms[:K + 1], cfg, D)
    phi_n = series_sum(terms[:N], cfg, x.depth)
    x_n = input_partial(x, N)
    x_n1 = input_partial(x, N + 1)
    p_n = projection(x, N)
    slice_n = terms[N]
    phi_n1 = phi_n + slice_n  # the series' own step to phi^(N+1)

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

    def cut(v: ElementVector) -> ElementVector:
        return vector(*[truncate(e, D) for e in v.entries])

    return TermDecomposition(
        cut(term_i), cut(term_ii), cut(term_iii), cut(term_iv), cut(term_v),
        cut(f_landmark), cut(f_value), N, D)


# ---------------------------------------------------------------------------
# Integer certificates for the bound lemmas
# ---------------------------------------------------------------------------

LEMMA_IDS = ("I", "II", "III", "IV", "V")


@dataclass(frozen=True)
class CertificateRow:
    lemma: str
    A: int
    B: int
    N: int
    holds: bool
    inequality: str


@dataclass(frozen=True)
class CertificateReport:
    A: int
    B: int
    ell: int
    n_max: int
    minimal_n: dict[str, int | None]
    rows: tuple[CertificateRow, ...]


def _ceil_log(s: int, ell: int) -> int:
    """Smallest e with ell^e >= s (the pinned integerization of log)."""
    e, p = 0, 1
    while p < s:
        p *= ell
        e += 1
    return e


def _tail_floor(N: int, ell: int, window: int = 8) -> int:
    """min over j >= 1 of alpha(N+j) - lambda(N+j).

    Each step adds (N + j) and lambda grows by at most 1, so the sequence
    strictly increases for N >= 1; the explicit window certifies that and
    pins the minimum at j = 1."""
    vals = [summand_valuation_floor(N + j, ell)
            for j in range(1, window + 1)]
    if not all(b > a for a, b in zip(vals, vals[1:])):
        raise AssertionError("tail crossover violated")  # unreachable for N >= 1
    return vals[0]


def lemma_predicate(lemma: str, A: int, B: int, N: int, ell: int
                    ) -> tuple[bool, str]:
    """Evaluate one lemma's integer predicate at one N.

    Returns (holds, the instantiated inequality as text)."""
    a_n = alpha(N)
    lam_n = lambda_floor(N, ell)
    if lemma == "I":
        return a_n >= N, f"alpha({N})={a_n} >= {N}"
    if lemma in ("II", "III"):
        s = summand_valuation_floor(N, ell)
        cl = _ceil_log(s, ell)
        holds = s > N and cl >= lam_n
        return holds, (f"alpha({N})-lambda({N})={s} > {N} and "
                       f"ceil(log_{ell}({s}))={cl} >= lambda({N})={lam_n}")
    if lemma == "IV":
        lam_n1 = lambda_floor(N + 1, ell)
        pre = N >= lam_n1 + A + B
        tail = _tail_floor(N, ell)
        concl = tail >= a_n + A + B
        return pre and concl, (
            f"{N} >= lambda({N + 1})+A+B={lam_n1 + A + B} and "
            f"min_j(alpha({N}+j)-lambda({N}+j))={tail} >= "
            f"alpha({N})+A+B={a_n + A + B}")
    if lemma == "V":
        # Pure valuation arithmetic: v(dfdy) >= -B, the matrix gap >= A+B
        # and v(p_N) >= alpha(N) give v(V) >= alpha(N) + A.
        lhs = -B + (A + B) + a_n
        return lhs >= a_n + A, f"-B+(A+B)+alpha({N})={lhs} >= alpha({N})+A={a_n + A}"
    raise BadIndex(f"unknown lemma id {lemma!r}")


def certify_lemma_bounds(A: int, B: int, n_max: int, ell: int
                         ) -> CertificateReport:
    """Scan N = 1..n_max and report, per lemma, the minimal N whose predicate
    holds (the scan itself is the oracle; results are frozen as fixtures)."""
    if A < 0 or B < 0:
        raise BadIndex("A and B must be >= 0")
    if n_max < 1:
        raise BadIndex(f"n_max must be >= 1, got {n_max}")
    minimal: dict[str, int | None] = {lem: None for lem in LEMMA_IDS}
    rows = []
    for lem in LEMMA_IDS:
        for N in range(1, n_max + 1):
            holds, ineq = lemma_predicate(lem, A, B, N, ell)
            if holds:
                minimal[lem] = N
                rows.append(CertificateRow(lem, A, B, N, True, ineq))
                break
        else:
            rows.append(CertificateRow(lem, A, B, n_max, False,
                                       f"no N <= {n_max} satisfies {lem}"))
    return CertificateReport(A, B, ell, n_max, minimal, tuple(rows))


CERTIFICATE_CSV_HEADER = "lemma,A,B,N,holds,inequality"


def certificate_csv(report: CertificateReport) -> str:
    lines = [CERTIFICATE_CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.lemma},{r.A},{r.B},{r.N},{str(r.holds).lower()},"
                     f"\"{r.inequality}\"")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Differentiability defect scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectRow:
    scale: int
    defect_valuation: float  # int-valued, or INF when the defect vanishes
    margin: Fraction | float


@dataclass(frozen=True)
class DefectReport:
    kind: str
    alpha_exp: Fraction
    rows: tuple[DefectRow, ...]


def _fmt_margin(m) -> str:
    if m == INF:
        return "inf"
    return f"{m.numerator}/{m.denominator}" if m.denominator != 1 else str(m.numerator)


DEFECT_CSV_HEADER = "scale,defect_valuation,margin"


def defect_csv(report: DefectReport) -> str:
    lines = [DEFECT_CSV_HEADER]
    for r in report.rows:
        dv = "inf" if r.defect_valuation == INF else str(int(r.defect_valuation))
        lines.append(f"{r.scale},{dv},{_fmt_margin(r.margin)}")
    return "\n".join(lines) + "\n"


def vsd_defect(fn: Callable[[Element], Element],
               fn_prime: Callable[[Element], Element],
               alpha_exp: Fraction, spec: SampleSpec) -> DefectReport:
    """Per-scale worst linear-approximation defect of fn against its declared
    derivative.

    For each sampled (x, h) with v(h) = s the defect fn(x+h) - fn(x) -
    fn'(x)h is computed exactly; the row keeps the smallest defect valuation
    at that scale and its margin over (1 + a) * s.  Margins staying bounded
    below witness failure of the strengthened differentiability; margins
    growing without bound support it."""
    return DefectReport("vsd", alpha_exp, _defect_rows(
        spec, 1 + alpha_exp,
        lambda x, h: sub(sub(fn(add(x, h)), fn(x)), mul(fn_prime(x), h))))


def holder_defect(fn_prime: Callable[[Element], Element],
                  alpha_exp: Fraction, spec: SampleSpec) -> DefectReport:
    """Per-scale worst modulus of the derivative against a * v(h).

    Nonnegative margins at every scale witness the Hoelder condition of
    order a that derivatives of very strongly differentiable functions
    satisfy."""
    return DefectReport("holder", alpha_exp, _defect_rows(
        spec, alpha_exp, lambda x, h: sub(fn_prime(add(x, h)), fn_prime(x))))


def _defect_rows(spec: SampleSpec, slope: Fraction,
                 defect: Callable[[Element, Element], Element]
                 ) -> tuple[DefectRow, ...]:
    """One row per scale s: the least valuation of ``defect(x, h)`` over
    the sampled (x, h) with v(h) = s, and its margin over slope * s."""
    sampler = DigitSampler(spec.seed)
    rows = []
    for s in sorted(spec.scales):
        worst = INF
        for _ in range(spec.samples_per_scale):
            x = sampler.r_element(spec.ring, spec.depth)
            h = sampler.element(spec.ring, spec.depth, valuation=s)
            worst = min(worst, defect(x, h).valuation)
        margin = INF if worst == INF else Fraction(worst) - slope * s
        rows.append(DefectRow(s, worst, margin))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The built-in strictly-but-not-very-strongly differentiable example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleScanRow:
    k: int
    strict_margin: int
    very_strong_margin: Fraction


@dataclass(frozen=True)
class CounterexampleScan:
    p: int
    alpha_exp: Fraction
    rows: tuple[CounterexampleScanRow, ...]
    crossover: int

    @property
    def final_strict_margin(self) -> int:
        return self.rows[-1].strict_margin


def vsd_counterexample_scan(p: int, k_max: int,
                            alpha_exp: Fraction) -> CounterexampleScan:
    """Closed-form defect scan of the valuation-step function that is
    strictly but not very strongly differentiable.

    The function maps an element of valuation j to the uniformizer power
    j + g(j) with g(k) = floor(log_p k) + 1; its derivative is 0.  For
    v(x) = j > v(h) = k the defect valuation is k + g(k), so the strict
    quotient margin is g(k) (diverges: strict differentiability holds) while
    the strengthened quotient margin is g(k) - a*k (eventually negative:
    the strengthened condition fails).  Pure integer arithmetic; no digits
    are materialized.  ``crossover`` is the smallest k from which the
    strengthened margin stays negative through k_max.
    """
    if k_max < 2:
        raise BadIndex(f"need k_max >= 2, got {k_max}")
    rows = []
    last_nonneg = 0
    for k in range(1, k_max + 1):
        g = lambda_floor(k, p) + 1
        vs = Fraction(g) - alpha_exp * k
        if vs >= 0:
            last_nonneg = k
        rows.append(CounterexampleScanRow(k, g, vs))
    return CounterexampleScan(p, alpha_exp, tuple(rows), last_nonneg + 1)


SCAN_CSV_HEADER = "k,strict_margin,very_strong_margin"


def counterexample_scan_csv(scan: CounterexampleScan) -> str:
    lines = [SCAN_CSV_HEADER]
    for r in scan.rows:
        lines.append(f"{r.k},{r.strict_margin},{_fmt_margin(r.very_strong_margin)}")
    return "\n".join(lines) + "\n"
