"""Experiment configuration and every file the lab writes: no other module creates
a directory or writes a file.  The three CSVs share one writer, the csv module's
default dialect (CRLF line ends) and one number format, repr(float(v)) or "" for None.

One JSON config file states the experiment of every entry point; where the
outputs go and how many processes compute a sweep are CLI flags.  All
quantities are nondimensional (the equation is already in normalized units);
lam is stored as [re, im].  Serialization is canonical: parse(serialize(c)) ==
c, and identical configs produce byte-identical outputs.  A number field holds
a float however the file spells it, the datum's numbers included, so "L": 80
and "L": 80.0 are one config with one experiment block.  A config is checked
whole when it loads, so every command refuses the same ones: unknown keys,
values of the wrong JSON type or not finite, and whatever the grid, the
nonlinearity or the solver config refuses.  An s outside the paper's index
range is not refused: the run's record says so in outside_hypotheses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .initial_data import _check_type, check_spec
from .lifespan import checked_tolerance, decreasing_ladder
from .propagators import NonlinearityParams
from .records import RunRecord, SweepSummary
from .solver import DiagnosticSample, SolverConfig
from .spectral import Grid, NormReport

SCHEMA_VERSION = 1


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
    t_max: float = 200.0
    tolerance: float = 0.1
    record_every: int = 4
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        defaults = cls().to_dict()
        data = dict(data)
        for key, value in data.items():
            if key not in defaults:
                raise ValueError(f"unknown config field {key!r}")
            # 80 and 80.0 state one experiment: a number field holds a float, so both
            # spellings give one config, one experiment block and the same output bytes
            data[key] = (check_spec(value) if key == "initial_data"
                         else _check_type(f"config field {key!r}", value, defaults[key]))
        if "lam" in data:
            lam = data["lam"]
            if len(lam) != 2:
                raise ValueError("config field 'lam' must be a [re, im] pair")
            data["lam"] = complex(lam[0], lam[1])
        cfg = cls(**data)
        decreasing_ladder(cfg.eps_ladder)
        checked_tolerance(cfg.tolerance)
        if cfg.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version {cfg.schema_version} != supported {SCHEMA_VERSION}")
        cfg.solver_config()  # the grid, the nonlinearity and the run settings check themselves
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

    def solver_config(self) -> SolverConfig:
        """The solver's config at the first rung, the one source of the experiment's grid
        and nonlinearity; every field the two configs share is passed by name."""
        shared = {f.name for f in fields(SolverConfig)} & {f.name for f in fields(self)}
        return SolverConfig(
            grid=Grid(self.d, self.n, self.L),
            params=NonlinearityParams(lam=self.lam, theta=self.theta, d=self.d),
            eps=self.eps_ladder[0],
            **{name: getattr(self, name) for name in shared},
        )


def _diagnostics_to_dict(diag) -> dict:
    if isinstance(diag, dict):
        return diag
    if diag is None or not diag.samples:
        return {}
    samples = diag.samples
    out = {f.name: [getattr(s.report, f.name) for s in samples] for f in fields(NormReport)}
    for f in fields(DiagnosticSample):
        if f.name != "report":
            out[f.name] = [getattr(s, f.name) for s in samples]
    return out


def run_record_to_dict(record: RunRecord) -> dict:
    """JSON form of a run record: its samples, not its log's rows, are serialized."""
    out = {f.name: getattr(record, f.name) for f in fields(RunRecord)}
    out["lam"] = [record.lam.real, record.lam.imag]
    out["diagnostics"] = _diagnostics_to_dict(record.diagnostics)
    out["schema_version"] = SCHEMA_VERSION
    return out


def run_record_from_dict(data, source: str = "run record") -> RunRecord:
    """Rebuild the scalar fields of a persisted run (diagnostics stay a plain dict).
    ValueError naming `source`, its missing and unknown keys and its schema_version
    where that is not this one, for data in another format."""
    if not isinstance(data, dict):
        raise ValueError(f"{source} cannot be loaded: it holds no JSON object")
    keys = {f.name for f in fields(RunRecord)} | {"schema_version"}
    problems = [f"{what} keys {sorted(names)}" for what, names in
                (("missing", keys - set(data)), ("unknown", set(data) - keys)) if names]
    if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        problems.append(f"schema_version {data['schema_version']!r}, not {SCHEMA_VERSION}")
    if problems:
        raise ValueError(f"{source} cannot be loaded: {'; '.join(problems)}")
    kwargs = {f.name: data[f.name] for f in fields(RunRecord)}
    kwargs["lam"] = complex(data["lam"][0], data["lam"][1])
    return RunRecord(**kwargs)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _out_path(out_dir, name: str) -> Path:
    """The path of output file `name` under out_dir, which is created with its parents."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(out_dir, name: str, rows) -> Path:
    """Write `rows` to the CSV `name` under out_dir in the csv module's default dialect:
    a string cell as it is, any other through _fmt."""
    path = _out_path(out_dir, name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [cell if isinstance(cell, str) else _fmt(cell) for cell in row] for row in rows)
    return path


def persist_run(record: RunRecord, out_dir) -> Path:
    """One JSON document per run; rewriting with the same record is byte-identical."""
    path = _out_path(out_dir, f"run_eps{record.eps!r}.json")
    path.write_text(json.dumps(run_record_to_dict(record), indent=2, sort_keys=True) + "\n")
    return path


def load_run(path) -> RunRecord:
    """The record in a run file; :func:`run_record_from_dict`'s ValueError, naming the
    file, for another format."""
    return run_record_from_dict(json.loads(Path(path).read_text()), f"run file {str(path)!r}")


CSV_COLUMNS = ["eps", "T_eps", "q_eps", "bound_value", "status"]


def persist_summary(records, summary: SweepSummary, out_dir) -> Path:
    """Summary CSV: one row per ladder rung, read off its record, plus a trailing
    verdict line, where min_q is labelled running_min (the running minimum's end)."""
    rows = [CSV_COLUMNS]
    rows += [[rec.eps, rec.T_eps, rec.invariant_quantity, rec.bound_value, rec.status]
             for rec in records]
    rows.append(["verdict", summary.verdict, "running_min", summary.min_q,
                 "tolerance", summary.tolerance])
    return _write_csv(out_dir, "summary.csv", rows)


def persist_diagnostics(rows, out_dir) -> Path:
    """diagnostics.csv: t and the ratios r1-r3 of each row, the `rows` of the log of a
    run started with diagnostics=True, an empty cell for a None ratio."""
    return _write_csv(out_dir, "diagnostics.csv",
                      [["t", "r1", "r2", "r3"], *([r.t, r.r1, r.r2, r.r3] for r in rows)])


def persist_trajectory(traj, out_dir) -> Path:
    """profile_trajectory.csv: one row per (xi, t) of a profile-ODE trajectory, xi by xi;
    a vector xi is one cell, the list of its components."""
    rows = [["t", "xi", "re_eta", "im_eta", "abs_eta0", "abs_w", "f"]]
    for i, xi in enumerate(traj.xi):
        xi_cell = xi if xi.ndim == 0 else repr(list(map(float, xi)))
        # np.abs, not abs: numpy's scalar abs of a complex rounds differently in the last bit
        rows += [[t, xi_cell, traj.eta[i, k].real, traj.eta[i, k].imag, np.abs(traj.eta0[i, k]),
                  np.abs(traj.eta[i, k] - traj.eta0[i, k]), traj.f[i, k]]
                 for k, t in enumerate(traj.t)]
    return _write_csv(out_dir, "profile_trajectory.csv", rows)
