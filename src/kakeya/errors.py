"""Exception types shared across the package."""


class KakeyaError(Exception):
    """Base class for all errors raised by this package."""


class DigitOutOfRange(KakeyaError):
    """A digit fell outside [0, ell)."""


class BadDepth(KakeyaError):
    """A working depth or truncation depth was unusable."""


class BadIndex(KakeyaError):
    """An index argument violated its precondition (e.g. k < 1)."""


class RingMismatch(KakeyaError):
    """Two operands belong to different rings."""


class NegativeValuation(KakeyaError):
    """An operation restricted to the ring of integers received a field element."""


class NotInSk(KakeyaError):
    """A matrix entry violated the digit-support bounds of the value set S_k."""


class RankDeficient(KakeyaError):
    """A right inverse was requested where the Jacobian is not full rank."""


class InvariantViolated(KakeyaError):
    """A property that holds by theorem failed at run time: a defect in the
    program, not in its input."""


class InsufficientDepth(KakeyaError):
    """An input does not carry enough exact digits for the requested output.

    Carries the depth that would have been needed, so callers (notably the
    CLI) can report it.
    """

    def __init__(self, required: int, available, what: str = "input"):
        self.required = required
        self.available = available
        self.what = what
        super().__init__(
            f"{what} needs working depth >= {required}, got {available}"
        )


class BudgetExceeded(KakeyaError):
    """An enumeration would overflow the configured budget.

    Carries the exact counts so the caller can report precisely what
    overflowed.
    """

    def __init__(self, cells_needed: int, pairs_needed: int,
                 budget_cells: int, budget_pairs: int):
        self.cells_needed = cells_needed
        self.pairs_needed = pairs_needed
        self.budget_cells = budget_cells
        self.budget_pairs = budget_pairs
        parts = []
        if cells_needed > budget_cells:
            parts.append(f"cells {cells_needed} > budget {budget_cells}")
        if pairs_needed > budget_pairs:
            parts.append(f"pairs {pairs_needed} > budget {budget_pairs}")
        super().__init__("enumeration budget exceeded: " + "; ".join(parts))
