"""Experiment configuration, run persistence, and CSV emission.

One JSON config file drives every entry point.  All quantities are
nondimensional (the equation is already in normalized units); lam is stored
as [re, im].  Serialization is canonical: parse(serialize(c)) == c, unknown
keys are rejected, and identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .propagators import NonlinearityParams
from .records import RunRecord, SweepSummary, canonical_fingerprint
from .solver import SolverConfig
from .spectral import Grid

SCHEMA_VERSION = 1

_INITIAL_DATA_KEYS = {
    "gaussian": {"width", "center", "modulation", "amplitude"},
    "super_gaussian": {"width", "center", "modulation", "amplitude", "power"},
    "bump_sum": {"bumps"},
}

_PROFILE_ODE_KEYS = {"kind", "t_star", "sigma_fraction", "c1", "c2", "delta",
                     "eps", "xi_samples", "seed"}


@dataclass
class ExperimentConfig:
    initial_data: dict = field(default_factory=lambda: {"kind": "gaussian", "width": 1.0})
    d: int = 1
    n: int = 2048
    L: float = 80.0
    lam: complex = 1j
    theta: float = 0.5
    s: float = 1.0
    eps_ladder: list = field(default_factory=lambda: [0.4, 0.3, 0.2, 0.15])
    dt_init: float = 0.05
    dt_safety: float = 0.1
    blowup_norm_threshold: float | None = None
    boundary_mass_tolerance: float = 1e-6
    t_max: float = 200.0
    tolerance: float = 0.1
    out_dir: str = "runs"
    jobs: int = 1
    enforce_hypotheses: bool = True
    record_every: int = 4
    snapshot_budget: int = 128
    profile_ode: dict = field(default_factory=lambda: {
        "kind": "adversarial", "t_star": 0.5, "sigma_fraction": 0.2,
        "c1": 0.3, "c2": 0.3, "delta": 1.0, "eps": None,
        "xi_samples": [0.0, 0.5, 1.0, 1.5], "seed": 0,
    })
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
        data = dict(data)
        if "lam" in data:
            lam = data["lam"]
            if not (isinstance(lam, (list, tuple)) and len(lam) == 2):
                raise ValueError("config field 'lam' must be a [re, im] pair")
            data["lam"] = complex(float(lam[0]), float(lam[1]))
        if "initial_data" in data:
            spec = data["initial_data"]
            kind = spec.get("kind")
            if kind not in _INITIAL_DATA_KEYS:
                raise ValueError(
                    f"initial_data.kind must be one of {sorted(_INITIAL_DATA_KEYS)}, got {kind!r}")
            extra = set(spec) - _INITIAL_DATA_KEYS[kind] - {"kind"}
            if extra:
                raise ValueError(f"unknown initial_data fields for {kind!r}: {sorted(extra)}")
        if "profile_ode" in data:
            extra = set(data["profile_ode"]) - _PROFILE_ODE_KEYS
            if extra:
                raise ValueError(f"unknown profile_ode fields: {sorted(extra)}")
            merged = dict(cls().profile_ode)
            merged.update(data["profile_ode"])
            data["profile_ode"] = merged
        cfg = cls(**data)
        if cfg.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version {cfg.schema_version} != supported {SCHEMA_VERSION}")
        return cfg

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lam"] = [self.lam.real, self.lam.imag]
        return out

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(
                f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.parse(Path(path).read_text())

    def fingerprint(self) -> str:
        return canonical_fingerprint(self.to_dict())

    def grid(self) -> Grid:
        return Grid(self.d, self.n, self.L)

    def params(self) -> NonlinearityParams:
        return NonlinearityParams(lam=self.lam, theta=self.theta, d=self.d)

    def solver_config(self, eps: float | None = None) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(),
            params=self.params(),
            eps=self.eps_ladder[0] if eps is None else eps,
            s=self.s,
            dt_init=self.dt_init,
            dt_safety=self.dt_safety,
            blowup_norm_threshold=self.blowup_norm_threshold,
            boundary_mass_tolerance=self.boundary_mass_tolerance,
            t_max=self.t_max,
            enforce_hypotheses=self.enforce_hypotheses,
            record_every=self.record_every,
            snapshot_budget=self.snapshot_budget,
        )


def _diagnostics_to_dict(diag) -> dict:
    if isinstance(diag, dict):
        return diag
    if diag is None or not diag.samples:
        return {}
    samples = diag.samples
    return {
        "t": [s.t for s in samples],
        "l2": [s.report.l2 for s in samples],
        "l_inf": [s.report.l_inf for s in samples],
        "h_s0": [s.report.h_s0 for s in samples],
        "h_0s": [s.report.h_0s for s in samples],
        "sigma_s": [s.report.sigma_s for s in samples],
        "energy": [s.energy for s in samples],
        "mass": [s.mass for s in samples],
        "lp1": [s.lp1 for s in samples],
        "tail_fraction": [s.tail_fraction for s in samples],
        "shell_fraction": [s.shell_fraction for s in samples],
    }


def run_record_to_dict(record: RunRecord) -> dict:
    """JSON form of a run record; field snapshots are not serialized."""
    out = {f.name: getattr(record, f.name) for f in fields(RunRecord)}
    out["lam"] = [record.lam.real, record.lam.imag]
    out["diagnostics"] = _diagnostics_to_dict(record.diagnostics)
    out["schema_version"] = SCHEMA_VERSION
    return out


def run_record_from_dict(data: dict) -> RunRecord:
    """Rebuild the scalar fields of a persisted run (diagnostics stay a plain dict)."""
    kwargs = {f.name: data[f.name] for f in fields(RunRecord)}
    kwargs["lam"] = complex(data["lam"][0], data["lam"][1])
    return RunRecord(**kwargs)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def persist_run(record: RunRecord, out_dir) -> Path:
    """One JSON document per run; rewriting with the same record is byte-identical."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"run_eps{record.eps!r}.json"
    blob = json.dumps(run_record_to_dict(record), indent=2, sort_keys=True) + "\n"
    path.write_text(blob)
    return path


def load_run(path) -> RunRecord:
    return run_record_from_dict(json.loads(Path(path).read_text()))


CSV_COLUMNS = ["eps", "T_eps", "q_eps", "bound_value", "status", "grid_fingerprint"]


def persist_summary(records, summary: SweepSummary, out_dir) -> Path:
    """Summary CSV: one row per ladder rung plus a trailing verdict line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                _fmt(rec.eps),
                _fmt(rec.T_eps),
                _fmt(rec.invariant_quantity),
                _fmt(rec.bound_value),
                rec.status,
                rec.grid_fingerprint,
            ])
        writer.writerow(["verdict", summary.verdict, "running_min",
                         _fmt(summary.running_min[-1] if summary.running_min else None),
                         "tolerance", _fmt(summary.tolerance)])
    return path
