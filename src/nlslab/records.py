"""Run summaries and sweep verdicts shared between the solver and the analysis layer."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def canonical_fingerprint(mapping: dict) -> str:
    """Short stable hash of a JSON-serializable mapping; changes iff a field changes.

    The first 16 hex digits of the SHA-256 of the mapping's sorted, compact JSON.
    The digest comes from the interpreter's built-in SHA-256 module (`_sha2`, or
    `_sha256` before Python 3.12), as the standard library's `random` takes its
    SHA-512: `hashlib` would load OpenSSL's libcrypto through `_hashlib`, 3.6 MB of
    every run's peak memory for two digests.  Both give the same digest; `hashlib`
    is the fallback where the interpreter has no built-in module.
    """
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Per-run summary of a blow-up measurement.

    T_eps is the measured lifespan (None when the run is invalid for
    bound-checking); `censored` marks runs that reached t_max without blowing
    up, so their T_eps is only a lower bound.  invariant_quantity is
    eps^(2 theta / d) * T_eps^(1 - theta) in the subcritical range and
    eps^(2/d) * log(T_eps) in the critical case theta = 1.
    """

    eps: float
    theta: float
    d: int
    lam: complex
    status: str
    T_eps: float | None = None
    censored: bool = False
    t_blow_pointwise: float | None = None
    t_blow_threshold: float | None = None
    invariant_quantity: float | None = None
    bound_value: float | None = None
    grid_fingerprint: str = ""
    config_fingerprint: str = ""
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
        return self.T_eps is not None and not self.censored and self.status == "blown-up"


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
    """Ladder-level verdict: running minimum of q_eps against the theoretical bound."""

    eps_ladder: list
    q_values: list          # one entry per rung, None for unusable runs
    running_min: list       # running min over usable rungs (None until one exists)
    bound_value: float | None   # None where the config has no bound
    tolerance: float
    verdict: str            # PASS / FAIL / INCONCLUSIVE
