"""Temporal and spatial self-convergence of the split step, the `nlslab convergence` study.

No run reads this module, so the package loads it on first use: a run neither
compiles nor holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .propagators import PointwiseBlowUp
from .solver import SolverConfig, _strang, init
from .spectral import ComplexField, Grid, _resample


@dataclass
class ConvergenceReport:
    dts: list
    temporal_errors: list
    temporal_ratios: list
    measured_orders: list
    spatial_ns: list
    spatial_errors: list
    spatial_drops: list


def _fixed_run(config: SolverConfig, phi: ComplexField, t_end: float, dt: float) -> np.ndarray:
    """The field after round(t_end/dt) Strang steps of dt from eps*phi; raises
    RuntimeError when a step meets the pointwise singularity or the final field
    is not finite."""
    u = init(config, phi).u.values
    m = config.grid.free_multiplier(dt)
    try:
        for k in range(int(round(t_end / dt))):
            u = _strang(u, dt / 2.0, m, config)
    except PointwiseBlowUp:
        raise RuntimeError(f"fixed-step run of dt={dt!r} met a pointwise singularity "
                           f"in the step from t={k * dt!r}") from None
    if not np.isfinite(u).all():
        raise RuntimeError(f"fixed-step run of dt={dt!r} left a non-finite field")
    return u


def convergence_study(config: SolverConfig, phi: ComplexField, refinements: int = 2,
                      t_end: float = 0.5, dt0: float = 0.02) -> ConvergenceReport:
    """Temporal self-convergence against a dt0/8 reference plus a spatial doubling check."""
    ref = _fixed_run(config, phi, t_end, dt0 / 8.0)
    dts = [dt0 / 2**k for k in range(refinements + 1)]
    errors = []
    for dt in dts:
        u = _fixed_run(config, phi, t_end, dt)
        errors.append(float(np.sqrt(np.sum(np.abs(u - ref) ** 2) / np.sum(np.abs(ref) ** 2))))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    orders = [float(np.log2(r)) for r in ratios]

    # spatial: double n at fixed data and dt, compare on the shared coarse points
    base = config.grid
    fields = []
    for k in range(3):
        g_k = Grid(base.d, base.n * 2**k, base.L)
        cfg_k = replace(config, grid=g_k)
        fields.append(_fixed_run(cfg_k, _resample(phi, g_k), t_end, dt0))
    stride = (slice(None, None, 2),) * base.d
    sp_errors = [float(np.max(np.abs(fields[k] - fields[k + 1][stride]))) for k in range(2)]
    drops = [sp_errors[0] / max(sp_errors[1], 1e-300)]
    return ConvergenceReport(
        dts=dts, temporal_errors=errors, temporal_ratios=ratios,
        measured_orders=orders, spatial_ns=[base.n, base.n * 2],
        spatial_errors=sp_errors, spatial_drops=drops,
    )
