"""Check outcomes and reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


# Checking modes, reported in SolveResult.checking: the full hybrid
# checker (symbolic equality inductiveness + bounded sampling against
# fresh interpreter runs) vs the degraded trace-only mode (validation
# against held-out recorded states; no program to perturb or step).
CHECKING_FULL = "symbolic+bounded"
CHECKING_RECORDED = "bounded-holdout"


class CheckOutcome(enum.Enum):
    """Verdict for one verification condition or a whole check."""

    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass
class CheckReport:
    """Result of checking a candidate invariant.

    Attributes:
        outcome: overall verdict (VALID only when every VC passed).
        precondition: verdict for ``P ⇒ I``.
        inductive: verdict for ``{I ∧ LC} C {I}``.
        postcondition: verdict for ``I ∧ ¬LC ⇒ Q``.
        counterexamples: states witnessing a failed VC; these are fed
            back into training (the paper's CEGIS loop).
        notes: human-readable details per VC.
    """

    outcome: CheckOutcome
    precondition: CheckOutcome = CheckOutcome.UNKNOWN
    inductive: CheckOutcome = CheckOutcome.UNKNOWN
    postcondition: CheckOutcome = CheckOutcome.UNKNOWN
    counterexamples: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def conclude(self) -> "CheckReport":
        """Set ``outcome`` from the three VC verdicts and return the
        report: INVALID if any VC is, VALID if all are, else UNKNOWN."""
        verdicts = (self.precondition, self.inductive, self.postcondition)
        if CheckOutcome.INVALID in verdicts:
            self.outcome = CheckOutcome.INVALID
        elif all(v is CheckOutcome.VALID for v in verdicts):
            self.outcome = CheckOutcome.VALID
        else:
            self.outcome = CheckOutcome.UNKNOWN
        return self
