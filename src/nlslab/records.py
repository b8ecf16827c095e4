"""How a run ends (:class:`RunStatus`, which the solver re-exports), run summaries and
sweep verdicts, shared between the solver and the analysis layer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class RunStatus(str, Enum):
    """How a run ended: the `status` of its record."""

    BLOWN_UP = "blown-up"
    BOUNDARY_CONTAMINATED = "boundary-contaminated"
    REACHED_TMAX = "reached-t-max"


@dataclass
class RunRecord:
    """Per-run summary of a blow-up measurement, made as the run ends by
    :func:`nlslab.solver.make_record`.

    T_eps is the measured lifespan, the time reached where the run reached
    t_max (so only a lower bound), and None where it was contaminated.
    `criterion` is what bracketed a blow-up, "pointwise" or "threshold", and
    None where there was none.  invariant_quantity is
    eps^(2 theta / d) * T_eps^(1 - theta) in the subcritical range and
    eps^(2/d) * log(T_eps) in the critical case theta = 1.  `experiment` holds
    the run's settings but eps, keyed as in the config file, so that a config
    made of it and the ladder [eps] runs the same rung again.  Only
    :func:`nlslab.lifespan.sweep` stamps it and `bound_value`: a record made
    outside a sweep has None in both, and is the sweep's in every other field.
    """

    eps: float
    theta: float
    d: int
    lam: complex
    status: str              # a RunStatus value
    T_eps: float | None = None
    criterion: str | None = None
    invariant_quantity: float | None = None
    bound_value: float | None = None
    experiment: dict | None = None
    max_remainder_scaled: float | None = None
    max_tail_fraction: float | None = None
    max_shell_fraction: float | None = None
    outside_hypotheses: bool = False
    diagnostics: object | None = None

    def q_value(self) -> float | None:
        """Recompute the invariant quantity from the stored scalars."""
        if self.T_eps is None:
            return None
        if self.theta < 1.0:
            return self.eps ** (2.0 * self.theta / self.d) * self.T_eps ** (1.0 - self.theta)
        return self.eps ** (2.0 / self.d) * float(np.log(self.T_eps))

    def usable_for_bound(self) -> bool:
        """Whether the run blew up, so that its T_eps is a lifespan."""
        return self.status == RunStatus.BLOWN_UP


@dataclass
class RunStats:
    """What one run did, counted by its run loop and kept in memory only: its doubling
    trials by fate (a refused one `rejected`, its err over tolerance or not finite;
    `singular`; or `capped`), the diagnostics rows computed, those of refused trials,
    and the range of the accepted steps.  It counts nothing its log states itself."""

    accepted: int = 0
    rejected: int = 0
    singular: int = 0
    capped: int = 0
    rows: int = 0
    rows_refused: int = 0
    dt_min: float = float("inf")
    dt_max: float = 0.0

    def accept(self, dt: float):
        self.accepted += 1
        self.dt_min, self.dt_max = min(self.dt_min, dt), max(self.dt_max, dt)

    def refuse(self, outcome: str, rows: int):
        setattr(self, outcome, getattr(self, outcome) + 1)
        self.rows_refused += rows

    def __str__(self) -> str:
        return (f"trials: {self.accepted} accepted, {self.rejected} rejected, "
                f"{self.singular} singular, {self.capped} capped; rows: {self.rows} computed, "
                f"{self.rows_refused} refused; dt in [{self.dt_min:.3g}, {self.dt_max:.3g}]")


@dataclass
class SweepSummary:
    """A ladder's verdict, :func:`nlslab.lifespan.fold` of its records: what no
    record states.  Each rung's eps, q and the bound value are in its record."""

    verdict: str            # PASS / FAIL / INCONCLUSIVE
    min_q: float | None     # least q of the runs that blew up, None if none did
    tolerance: float
