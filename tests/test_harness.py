"""Config round trips, persistence, CSV schema, and CLI behavior."""

import ast
import csv
import io
import json
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nlslab import cli, harness, lifespan
from nlslab.cli import main
from nlslab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    load_run,
    persist_diagnostics,
    persist_run,
    persist_summary,
    persist_trajectory,
    run_record_from_dict,
    run_record_to_dict,
)
from nlslab.lifespan import fold, sweep, t_star_time
from nlslab.profile_ode import OdeParams, integrate_perturbed, make_perturbation
from nlslab.propagators import NonlinearityParams
from nlslab.solver import SolverConfig
from nlslab.spectral import Grid


# Python's json reads NaN, Infinity and integers too large for a float; each of
# these is rejected when the config loads
BIG = 10 ** 400
NON_FINITE_CONFIGS = [
    ({"t_max": float("inf"), "lam": [1.0, 0.0], "eps_ladder": [0.4]},
     "config field 't_max' must be finite, got inf"),
    ({"lam": [0.0, float("inf")], "eps_ladder": [0.4]},
     "config field 'lam' must be finite, got [0.0, inf]"),
    ({"eps_ladder": [0.4, float("nan")]},
     "config field 'eps_ladder' must be finite, got [0.4, nan]"),
    ({"eps_ladder": [0.4, -0.1]}, "eps ladder rungs must be finite and >= 0, got [0.4, -0.1]"),
    ({"L": BIG}, f"config field 'L' must be finite, got {BIG}"),
    ({"eps_ladder": [BIG]}, f"config field 'eps_ladder' must be finite, got [{BIG}]"),
    ({"lam": [0, BIG]}, f"config field 'lam' must be finite, got [0, {BIG}]"),
    ({"t_max": BIG}, f"config field 't_max' must be finite, got {BIG}"),
    ({"eps_ladder": []}, "eps ladder must hold at least one rung, got []"),
]
NON_FINITE_IDS = ["infinite-t-max", "infinite-lam", "nan-rung", "negative-rung",
                  "huge-L", "huge-rung", "huge-lam", "huge-t-max", "empty-ladder"]
# grids beyond 2**24 points: n too large for a float, and one that would take 8 TiB
OVERSIZED_GRID_CONFIGS = [
    ({"n": 2**1100, "L": 20.0, "eps_ladder": [0.4]},
     "a grid holds at most 2**24 points, got n = 2**1100 per axis in d = 1"),
    ({"n": 2**40, "L": 20.0, "eps_ladder": [0.4]},
     "a grid holds at most 2**24 points, got n = 2**40 per axis in d = 1"),
]
OVERSIZED_GRID_IDS = ["n-beyond-float", "n-8-tib"]
# a datum width must be positive (only width**2 is used, so -1.0 would run as 1.0), and a
# super-gaussian power at least 1 and small enough to convert to a float
DATUM_RANGE_CONFIGS = [
    ({"initial_data": {"kind": "gaussian", "width": 0}},
     "initial_data field 'width' must be positive, got 0"),
    ({"initial_data": {"kind": "super_gaussian", "width": -1.0}},
     "initial_data field 'width' must be positive, got -1.0"),
    ({"initial_data": {"kind": "bump_sum", "bumps": [{"width": 1.0}, {"width": -0.5}]}},
     "initial_data field 'width' must be positive, got -0.5"),
    ({"initial_data": {"kind": "super_gaussian", "power": 0}},
     "initial_data field 'power' must be >= 1, got 0"),
    ({"initial_data": {"kind": "super_gaussian", "power": 10**400}},
     "initial_data field 'power' must convert to a float, got an integer of 401 digits"),
]
DATUM_RANGE_IDS = ["zero-width", "negative-super-gaussian-width", "negative-bump-width",
                   "zero-power", "huge-power"]
# initial-data values obey the rules of the config's own numbers; json reads 1e400 as inf
INITIAL_DATA_CONFIGS = [
    ({"initial_data": {"kind": "gaussian", "width": "a"}},
     "initial_data field 'width' must be a number, got 'a'"),
    ({"initial_data": {"kind": "gaussian", "width": [1, 2]}},
     "initial_data field 'width' must be a number, got [1, 2]"),
    ({"initial_data": {"kind": "gaussian", "width": True}},
     "initial_data field 'width' must be a number, got True"),
    ({"initial_data": {"kind": "gaussian", "width": float("inf")}},
     "initial_data field 'width' must be finite, got inf"),
    ({"initial_data": {"kind": "super_gaussian", "power": "2"}},
     "initial_data field 'power' must be an integer, got '2'"),
    ({"initial_data": {"kind": "super_gaussian", "power": 2.0}},
     "initial_data field 'power' must be an integer, got 2.0"),
    ({"initial_data": {"kind": "gaussian", "amplitude": "1"}},
     "initial_data field 'amplitude' must be a number, got '1'"),
    ({"initial_data": {"kind": "gaussian", "center": [0.0, "a"]}},
     "initial_data field 'center' must be a number or a list of numbers, got [0.0, 'a']"),
    ({"initial_data": {"kind": "gaussian", "modulation": {"k": 1}}},
     "initial_data field 'modulation' must be a number or a list of numbers, got {'k': 1}"),
    ({"initial_data": {"kind": "bump_sum", "bumps": [{"width": 1.0}, {"center": BIG}]}},
     f"initial_data field 'center' must be finite, got {BIG}"),
    *DATUM_RANGE_CONFIGS,
]
INITIAL_DATA_IDS = ["string-width", "list-width", "bool-width", "infinite-width",
                    "string-power", "float-power", "string-amplitude", "string-in-center",
                    "object-modulation", "huge-bump-center", *DATUM_RANGE_IDS]


def small_config_dict(**over):
    base = {
        "initial_data": {"kind": "gaussian", "width": 1.0},
        "d": 1, "n": 256, "L": 25.0,
        "lam": [0.0, 1.0], "theta": 0.5, "s": 1.0,
        "eps_ladder": [0.4, 0.3],
        "t_max": 30.0,
        "record_every": 8,
    }
    base.update(over)
    return base


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(small_config_dict())
        again = ExperimentConfig.parse(cfg.serialize())
        assert again == cfg

    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.parse(cfg.serialize()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            ExperimentConfig.from_dict(small_config_dict(pizza=1))

    @pytest.mark.parametrize("spec", [
        {"kind": "gaussian", "sigma": 2.0},
        {"kind": "bump_sum", "bumps": [{"width": 1.0}, {"sigma": 1.0}]},
        {"kind": "bump_sum"},
    ], ids=["gaussian-key", "bump-key", "missing-bumps"])
    def test_unknown_nested_key_rejected(self, spec):
        bad = small_config_dict(initial_data=spec)
        with pytest.raises(ValueError, match="initial_data"):
            ExperimentConfig.from_dict(bad)

    def test_profile_ode_block_is_an_unknown_field(self):
        # profile-ode fixes its own settings: no config sets them
        assert "profile_ode" not in ExperimentConfig().to_dict()
        with pytest.raises(ValueError) as rejected:
            ExperimentConfig.from_dict(small_config_dict(profile_ode={"seed": 1}))
        assert str(rejected.value) == "unknown config field 'profile_ode'"

    @pytest.mark.parametrize("over, message", NON_FINITE_CONFIGS, ids=NON_FINITE_IDS)
    def test_non_finite_numbers_and_bad_rungs_rejected(self, over, message):
        text = json.dumps(small_config_dict(**over))
        with pytest.raises(ValueError) as rejected:
            ExperimentConfig.parse(text)
        assert str(rejected.value) == message

    def test_lam_must_be_pair(self):
        with pytest.raises(ValueError, match="lam"):
            ExperimentConfig.from_dict(small_config_dict(lam=1.0))

    def test_parse_error_reports_location(self):
        with pytest.raises(ValueError, match="line"):
            ExperimentConfig.parse('{"d": 1,\n "n": }')

    def test_solver_config_carries_every_shared_field(self):
        changed = {"s": 1.1, "t_max": 12.0, "record_every": 3}
        shared = {f.name for f in fields(SolverConfig)} & {f.name for f in fields(ExperimentConfig)}
        assert shared == set(changed)
        default = ExperimentConfig()
        assert all(getattr(default, name) != value for name, value in changed.items())
        cfg = ExperimentConfig(eps_ladder=[0.3, 0.2], **changed)
        # the config builds its grid and nonlinearity here alone
        assert cfg.solver_config() == SolverConfig(
            grid=Grid(cfg.d, cfg.n, cfg.L),
            params=NonlinearityParams(lam=cfg.lam, theta=cfg.theta, d=cfg.d), eps=0.3, **changed)
        assert not hasattr(cfg, "grid") and not hasattr(cfg, "params")

    def test_ladder_must_decrease(self):
        for ladder in ([0.3, 0.4], [0.3, 0.3]):
            with pytest.raises(ValueError, match="eps ladder must be strictly decreasing"):
                ExperimentConfig.from_dict(small_config_dict(eps_ladder=ladder))

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentConfig.from_dict(small_config_dict(schema_version=99))


@pytest.fixture(scope="module")
def micro_sweep():
    cfg = ExperimentConfig.from_dict(small_config_dict())
    records, summary, bound = sweep(cfg.eps_ladder, cfg.solver_config(),
                                    cfg.initial_data, tolerance=cfg.tolerance)
    return cfg, records, summary, bound


class TestPersistence:
    def test_run_round_trip(self, micro_sweep, tmp_path):
        _, records, _, _ = micro_sweep
        path = persist_run(records[0], tmp_path)
        loaded = load_run(path)
        original = run_record_to_dict(records[0])
        assert run_record_to_dict(loaded) == original

    def test_persisted_diagnostics_columns(self, micro_sweep):
        _, records, _, _ = micro_sweep
        diag = run_record_to_dict(records[0])["diagnostics"]
        assert sorted(diag) == sorted([
            "t", "l2", "l_inf", "h_s0", "h_0s", "sigma_s",
            "energy", "mass", "lp1", "tail_fraction", "shell_fraction"])
        samples = records[0].diagnostics.samples
        assert diag["t"] == [s.t for s in samples]
        assert diag["h_0s"] == [s.report.h_0s for s in samples]

    def test_missing_run_key_rejected(self, micro_sweep):
        _, records, _, _ = micro_sweep
        data = run_record_to_dict(records[0])
        del data["T_eps"]
        with pytest.raises(ValueError) as refused:
            run_record_from_dict(data)
        assert str(refused.value) == "run record cannot be loaded: missing keys ['T_eps']"

    def test_unknown_run_key_rejected(self, micro_sweep):
        _, records, _, _ = micro_sweep
        data = {**run_record_to_dict(records[0]), "wall_s": 1.0, "schema_version": 2}
        with pytest.raises(ValueError) as refused:
            run_record_from_dict(data)
        assert str(refused.value) == ("run record cannot be loaded: unknown keys ['wall_s']; "
                                      "schema_version 2, not 1")
        assert run_record_from_dict(run_record_to_dict(records[0])).T_eps == records[0].T_eps

    def test_csv_row_count_matches_ladder(self, micro_sweep, tmp_path):
        cfg, records, summary, _ = micro_sweep
        path = persist_summary(records, summary, tmp_path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS)
        data_rows = rows[1:-1]
        assert len(data_rows) == len(cfg.eps_ladder)
        assert rows[-1].startswith("verdict,")

    def test_rewrite_is_byte_identical(self, micro_sweep, tmp_path):
        _, records, summary, _ = micro_sweep
        p1 = persist_summary(records, summary, tmp_path)
        first = p1.read_bytes()
        p2 = persist_summary(records, summary, tmp_path)
        assert p2.read_bytes() == first


def ends_every_line_in_crlf(data: bytes) -> bool:
    return data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")


def old_trajectory_rows(traj):
    """The cells that ProfileTrajectory.to_csv wrote before persist_trajectory replaced it."""
    yield ["t", "xi", "re_eta", "im_eta", "abs_eta0", "abs_w", "f"]
    for i, xi in enumerate(np.atleast_1d(traj.xi)):
        for k, t in enumerate(traj.t):
            yield [
                repr(float(t)),
                repr(float(np.real(xi))) if np.ndim(xi) == 0 else repr(list(map(float, xi))),
                repr(float(traj.eta[i, k].real)),
                repr(float(traj.eta[i, k].imag)),
                repr(float(np.abs(traj.eta0[i, k]))),
                repr(float(np.abs(traj.eta[i, k] - traj.eta0[i, k]))),
                repr(float(traj.f[i, k])),
            ]


SCALAR_XI = np.array([0.0, 1.0])
VECTOR_XI = np.array([[0.0, 0.5], [1.0, -1.0]])


def trajectory(xi):
    p = OdeParams(a=0.5, b=1.0, lam=1j, eps=0.02, t_star=0.5, psi0_sup=1.0, sigma=0.05)
    pert = make_perturbation("oscillatory", c1=0.3, c2=0.3, delta=1.0, params=p, seed=2)
    return integrate_perturbed(p, pert, xi_samples=xi, n_output=20)


class TestWriters:
    @pytest.mark.parametrize("xi", [SCALAR_XI, VECTOR_XI], ids=["scalar xi", "vector xi"])
    def test_trajectory_has_one_crlf_line_per_xi_and_t(self, tmp_path, xi):
        traj = trajectory(xi)
        path = persist_trajectory(traj, tmp_path / "out")
        assert path == tmp_path / "out" / "profile_trajectory.csv"
        data = path.read_bytes()
        assert ends_every_line_in_crlf(data)
        lines = data.decode().splitlines()
        assert lines[0] == "t,xi,re_eta,im_eta,abs_eta0,abs_w,f"
        assert len(lines) == 1 + len(xi) * len(traj.t) and len(traj.t) == 20
        rows = list(csv.reader(lines[1:]))
        assert all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows] == [repr(float(t)) for t in traj.t] * len(xi)

    def test_vector_xi_is_one_quoted_list_cell(self, tmp_path):
        traj = trajectory(VECTOR_XI)
        lines = persist_trajectory(traj, tmp_path).read_text().splitlines()
        assert lines[1].split(",", 1)[1].startswith('"[0.0, 0.5]",')
        assert lines[-1].split(",", 1)[1].startswith('"[1.0, -1.0]",')

    @pytest.mark.parametrize("xi", [SCALAR_XI, VECTOR_XI], ids=["scalar xi", "vector xi"])
    def test_trajectory_bytes_are_those_of_the_old_writer(self, tmp_path, xi):
        traj = trajectory(xi)
        want = io.StringIO(newline="")
        csv.writer(want).writerows(old_trajectory_rows(traj))
        assert persist_trajectory(traj, tmp_path).read_bytes() == want.getvalue().encode()

    def test_diagnostics_leave_a_none_ratio_empty(self, tmp_path):
        rows = [SimpleNamespace(t=0.0, r1=0.25, r2=None, r3=1.5),
                SimpleNamespace(t=1.0, r1=None, r2=2.0, r3=None),
                SimpleNamespace(t=np.float64(2.5), r1=np.float64(0.1), r2=3, r3=None)]
        path = persist_diagnostics(rows, tmp_path / "out")
        assert path == tmp_path / "out" / "diagnostics.csv"
        assert path.read_bytes() == (b"t,r1,r2,r3\r\n"
                                     b"0.0,0.25,,1.5\r\n"
                                     b"1.0,,2.0,\r\n"
                                     b"2.5,0.1,3.0,\r\n")

    def test_diagnostics_of_a_run_keep_every_row(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_config_dict(eps_ladder=[0.4]))
        (record,), _, _ = sweep(cfg.eps_ladder, cfg.solver_config(), cfg.initial_data,
                                diagnostics=True)
        ratios = record.diagnostics.rows
        data = persist_diagnostics(ratios, tmp_path).read_bytes()
        assert ends_every_line_in_crlf(data)
        lines = data.decode().splitlines()
        assert lines[0] == "t,r1,r2,r3" and len(lines) == 1 + len(ratios) > 2
        assert [float(line.split(",")[0]) for line in lines[1:]] == [r.t for r in ratios]

    def test_the_run_files_fold_back_to_the_sweeps_summary(self, micro_sweep, tmp_path):
        cfg, records, summary, _ = micro_sweep
        for rec in records:
            persist_run(rec, tmp_path / "sweep")
        written = persist_summary(records, summary, tmp_path / "sweep").read_bytes()
        loaded = [load_run(tmp_path / "sweep" / f"run_eps{eps!r}.json") for eps in cfg.eps_ladder]
        folded = fold(loaded, cfg.tolerance)
        assert folded == summary
        assert persist_summary(loaded, folded, tmp_path / "fold").read_bytes() == written

    def test_summary_is_in_the_same_dialect(self, micro_sweep, tmp_path):
        _, records, summary, _ = micro_sweep
        assert ends_every_line_in_crlf(persist_summary(records, summary, tmp_path).read_bytes())


def writes_or_makes_directories(node) -> bool:
    """Whether `node` imports csv, opens a file for writing, or calls write_text,
    write_bytes, mkdir or makedirs."""
    if isinstance(node, ast.Import):
        return any(a.name == "csv" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv"
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if name != "open":
        return False
    # open(path, mode) or path.open(mode): the mode is the first string argument
    modes = [a.value for a in (*node.args, *(k.value for k in node.keywords if k.arg == "mode"))
             if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return any(set(mode) & set("wax+") for mode in modes)


def test_no_other_module_writes_files():
    # one writer, one dialect and one number format for every output: only harness
    # creates an output directory or writes a file
    package = Path(harness.__file__).parent
    writers = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if writes_or_makes_directories(node)}
    assert writers == {"harness.py"}


def test_the_scan_sees_each_kind_of_write():
    writes = ["import csv", "from csv import writer", "open(p, 'w')", "open(p, mode='a')",
              "p.open('w')", "p.write_text(s)", "p.write_bytes(b)", "p.mkdir()",
              "os.makedirs(p)"]
    reads = ["import json", "open(p)", "open(p, 'rb')", "p.read_text()", "p.open()"]
    for code, want in [*((c, True) for c in writes), *((c, False) for c in reads)]:
        found = any(writes_or_makes_directories(n) for n in ast.walk(ast.parse(code)))
        assert found is want, code


class TestCli:
    def test_bounds_prints_reference_value(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "bound_value = 0.4999999999999999" in out or "bound_value = 0.5" in out

    def test_print_config_round_trips(self, capsys):
        assert main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert ExperimentConfig.parse(out) == ExperimentConfig()

    def test_bounds_rejects_dissipative_lambda(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(lam=[0.0, -1.0])))
        assert main(["bounds", "--config", str(path)]) == 1
        assert "Im(lam)" in capsys.readouterr().err

    def test_bounds_rejects_theta_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(theta=1.5)))
        assert main(["bounds", "--config", str(path)]) == 1
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("over, message", [
        ({"initial_data": {"kind": "bump_sum", "bumps": [{"sigma": 1.0}]}}, "['sigma']"),
        ({"initial_data": "gaussian"}, "initial_data must be an object"),
        ({"initial_data": {"kind": "bump_sum", "bumps": [1.0]}}, "list of objects"),
        ({"profile_ode": 3}, "unknown config field 'profile_ode'"),
        ({"n": "big"}, "config field 'n' must be an integer, got 'big'"),
        ({"theta": "x"}, "config field 'theta' must be a number, got 'x'"),
        ({"L": None}, "config field 'L' must be a number, got None"),
        ({"eps_ladder": 0.4}, "config field 'eps_ladder' must be a list of numbers"),
        ({"eps_ladder": [0.4, True]}, "config field 'eps_ladder' must be a list of numbers"),
        ({"lam": [None, 1]}, "config field 'lam' must be a list of numbers"),
        ({"jobs": "two"}, "unknown config field 'jobs'"),
        ({"eps_ladder": []}, "eps ladder must hold at least one rung, got []"),
        ({"record_every": 2.5}, "config field 'record_every' must be an integer, got 2.5"),
        ({"record_every": True}, "config field 'record_every' must be an integer, got True"),
        ({"enforce_hypotheses": False}, "unknown config field 'enforce_hypotheses'"),
        *OVERSIZED_GRID_CONFIGS,
        *INITIAL_DATA_CONFIGS,
    ], ids=["unknown-bump-key", "non-object-spec", "non-object-bump",
            "profile-ode-block", "string-int", "string-float", "null-float",
            "scalar-ladder", "bool-in-ladder", "null-in-lam", "string-jobs", "empty-ladder",
            "float-int", "bool-int", "removed-gate", *OVERSIZED_GRID_IDS, *INITIAL_DATA_IDS])
    def test_bounds_rejects_bad_config(self, tmp_path, capsys, over, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(**over)))
        assert main(["bounds", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("field, value", [("record_every", 0), ("record_every", -3)])
    def test_simulate_rejects_bad_sampling_counts(self, tmp_path, capsys, field, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(**{field: value})))
        assert main(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}")

    @pytest.mark.parametrize("key", ["dt_init", "dt_safety", "blowup_norm_threshold",
                                     "boundary_mass_tolerance", "snapshot_budget"])
    def test_removed_solver_knob_is_an_unknown_field(self, tmp_path, capsys, key):
        # the step, cap and monitor settings are solver constants, so a config
        # that still carries one of them fails on its first such key
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(**{key: 0.1})))
        assert main(["simulate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown config field {key!r}\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep", "diagnostics"])
    def test_simulate_rejects_threshold_below_the_datum(self, tmp_path, capsys, command):
        # sup|eps phi| = 4000 already reaches the cap 1e3/eps = 2500: every run
        # command rejects the datum before it creates the output directory
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(
            initial_data={"kind": "gaussian", "width": 1.0, "amplitude": 1e4},
            n=256, L=20.0, eps_ladder=[0.4])))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: sup-norm cap 1e3/eps = 2500.0 ")
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"d": 1,,}')
        assert main(["bounds", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_simulate_free_case_reports_drift(self, tmp_path, capsys):
        cfg = small_config_dict(lam=[0.0, 0.0], t_max=0.5, eps_ladder=[0.3])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        drift_line = [l for l in out.splitlines() if "l2 drift" in l]
        assert drift_line
        drift = float(drift_line[0].split("=")[1])
        assert drift < 1e-10

    def test_simulate_writes_the_one_rung_sweep_record(self, tmp_path, capsys):
        # the first rung of a two-rung ladder against the sweep of that rung alone
        sim_path, sweep_path = tmp_path / "sim.json", tmp_path / "sweep.json"
        sim_path.write_text(json.dumps(small_config_dict()))
        sweep_path.write_text(json.dumps(small_config_dict(eps_ladder=[0.4])))
        assert main(["simulate", "--config", str(sim_path), "--out", str(tmp_path / "sim")]) == 0
        assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        simulated = (tmp_path / "sim" / "run_eps0.4.json").read_bytes()
        assert simulated == (tmp_path / "sweep" / "run_eps0.4.json").read_bytes()
        assert json.loads(simulated)["bound_value"] == pytest.approx(0.5, rel=1e-12)

    def test_simulate_prints_what_the_run_did_and_persists_none_of_it(self, tmp_path, capsys):
        # one line of the run's counts, as the library's run has them; no file has them
        cfg = ExperimentConfig.from_dict(small_config_dict())
        (rec,), _, _ = sweep([0.4], cfg.solver_config(), cfg.initial_data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict()))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("trials: ")] == [str(rec.diagnostics.stats)]
        assert "accepted" not in (tmp_path / "out" / "run_eps0.4.json").read_text()

    # s = 0.4 < d/2 puts gamma = (2s - d)/8 below 0: the runs are defined, the
    # scaled remainder's window is not
    OUTSIDE = {"d": 1, "n": 512, "L": 40.0, "s": 0.4, "eps_ladder": [0.4]}

    # the critical case and a damping lam have no bound: sweep runs them as
    # simulate does and, with no bound to judge them by, is inconclusive
    @pytest.mark.parametrize("config, sweep_exit", [
        (OUTSIDE, 0),
        ({"d": 1, "n": 256, "L": 25.0, "theta": 1.0, "eps_ladder": [0.6], "t_max": 30.0,
          "record_every": 8}, 2),
        ({"d": 1, "n": 256, "L": 25.0, "lam": [0.0, -1.0], "eps_ladder": [0.6], "t_max": 5.0,
          "record_every": 8}, 2),
    ], ids=["outside-index-range", "critical-theta", "damping-lam"])
    def test_sweep_runs_what_simulate_runs_outside_the_hypotheses(
            self, tmp_path, capsys, config, sweep_exit):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(config))
        run = f"run_eps{config['eps_ladder'][0]!r}.json"
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "simulate")]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == sweep_exit
        out = capsys.readouterr().out
        simulated = (tmp_path / "simulate" / run).read_bytes()
        assert simulated == (tmp_path / "sweep" / run).read_bytes()
        if sweep_exit == 2:
            assert "bound_value = None" in out and "verdict: INCONCLUSIVE" in out
            assert json.loads(simulated)["bound_value"] is None

    # d = 3 with theta <= 3/4 leaves no admissible s at all
    NO_ADMISSIBLE_S = {"d": 3, "n": 16, "L": 5.0, "theta": 0.7, "s": 1.6, "eps_ladder": [1.0],
                       "t_max": 20.0}

    @pytest.mark.parametrize("config, theta, sweep_exit", [
        (OUTSIDE, 0.5, 0), (NO_ADMISSIBLE_S, 0.7, 2)], ids=["s-below-d-half", "no-admissible-s"])
    def test_config_outside_the_index_range_runs_and_says_so(
            self, tmp_path, capsys, config, theta, sweep_exit):
        # the second ends boundary-contaminated, so its sweep is inconclusive
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        line = (f"s = {config['s']!r} lies outside the admissible range d/2 < s < "
                f"min(2, 1 + 2 theta/d) for d = {config['d']}, theta = {theta!r}: "
                "records are flagged outside_hypotheses")
        run = f"run_eps{config['eps_ladder'][0]!r}.json"
        for command, exit_code in (("simulate", 0), ("sweep", sweep_exit)):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == exit_code
            assert capsys.readouterr().out.splitlines()[0] == line
            assert load_run(out / run).outside_hypotheses

    def test_s_leaves_the_lifespan_unchanged(self, tmp_path, capsys):
        # the bound holds no Sobolev index: s picks the tracked norms, not the run
        records = {}
        for s in (1.0, 0.4):
            path = tmp_path / f"s{s}.json"
            path.write_text(json.dumps(dict(self.OUTSIDE, s=s)))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / f"s{s}")]) == 0
            assert ("lies outside" in capsys.readouterr().out) == (s == 0.4)
            records[s] = load_run(tmp_path / f"s{s}" / "run_eps0.4.json")
        assert records[0.4].T_eps == records[1.0].T_eps
        assert records[0.4].outside_hypotheses and not records[1.0].outside_hypotheses

    def test_simulate_outside_the_hypotheses_leaves_the_scaled_remainder_none(
            self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(dict(self.OUTSIDE, n=1024, L=80.0, eps_ladder=[0.15])))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        record = load_run(tmp_path / "out" / "run_eps0.15.json")
        assert record.status == "blown-up" and record.T_eps > 2.0 * t_star_time(0.15, 0.5, 1)
        assert record.outside_hypotheses and record.max_remainder_scaled is None

    def test_bounds_outside_the_hypotheses_prints_the_bound(self, tmp_path, capsys):
        # the bound needs no s; gamma and t_star need gamma in (0, 1/2]
        path = tmp_path / "a.json"
        path.write_text(json.dumps(self.OUTSIDE))
        assert main(["bounds", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "bound_value = 0.4999999999999999" in lines and "tau0 = 0.2499999999999999" in lines
        assert lines[-1].startswith("gamma and t_star are undefined: gamma = (2s-d)/8 = ")
        assert lines[-1].endswith(" outside (0, 1/2]; s = 0.4, d = 1")

    def test_bounds_on_a_ladder_with_a_zero_rung_prints_the_bound(self, tmp_path, capsys):
        # the bound and gamma need no eps; t_star needs eps > 0
        path = tmp_path / "z.json"
        path.write_text(json.dumps(small_config_dict(eps_ladder=[0.4, 0.0])))
        assert main(["bounds", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["bound_value = 0.5", "tau0 = 0.25", "gamma = 0.125",
                             "t_star is undefined at eps = 0"]

    def test_diagnostics_outside_the_hypotheses_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch):
        def no_run(state):
            raise AssertionError("the run started")

        monkeypatch.setattr(lifespan, "run_to_blowup", no_run)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(self.OUTSIDE))
        out = tmp_path / "out"
        assert main(["diagnostics", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: gamma = (2s-d)/8 = ")
        assert not out.exists()

    def test_sweep_records_a_zero_rung_as_censored(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text(json.dumps(dict(self.OUTSIDE, eps_ladder=[0.4, 0.0])))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "eps=0.0 status=reached-t-max" in capsys.readouterr().out
        record = load_run(tmp_path / "out" / "run_eps0.0.json")
        assert record.criterion is None and record.max_remainder_scaled is None
        assert not record.usable_for_bound()

    @pytest.mark.parametrize("over", [{"theta": 1.0}, {"lam": [0.0, 0.0]}],
                             ids=["critical", "unitary"])
    def test_simulate_without_a_bound_keeps_it_none(self, tmp_path, capsys, over):
        cfg = small_config_dict(t_max=0.5, eps_ladder=[0.3], **over)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        record = load_run(tmp_path / "out" / "run_eps0.3.json")
        assert record.bound_value is None and record.max_remainder_scaled is None

    def test_sweep_writes_deterministic_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict()))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        csv1 = (tmp_path / "o1" / "summary.csv").read_bytes()

        cfg_path2 = tmp_path / "c2.json"
        cfg_path2.write_text(json.dumps(small_config_dict()))
        assert main(["sweep", "--config", str(cfg_path2), "--out", str(tmp_path / "o2")]) == 0
        capsys.readouterr()
        csv2 = (tmp_path / "o2" / "summary.csv").read_bytes()
        assert csv1 == csv2

    def test_sweep_inconclusive_exit_code(self, tmp_path, capsys):
        cfg = small_config_dict(t_max=0.2, eps_ladder=[0.05, 0.02])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_profile_ode_subcommand(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict()))
        assert main(["profile-ode", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "C0 =" in out and "M =" in out
        assert (tmp_path / "out" / "profile_trajectory.csv").exists()

    # at eps = 0.4 the run ends before 2 t_star, so there is no remainder window
    @pytest.mark.parametrize("over, windowed", [
        ({"eps_ladder": [0.4]}, False),
        ({"eps_ladder": [0.2], "n": 512, "L": 50.0}, True),
    ], ids=["eps0.4", "eps0.2"])
    def test_diagnostics_subcommand(self, tmp_path, capsys, over, windowed):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(**over)))
        assert main(["diagnostics", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "r1:" in out and "r3:" in out
        assert "remainder sup over t in [" in out and "np.float64" not in out
        scaled = [l for l in out.splitlines() if l.startswith("max remainder scaled = ")]
        assert len(scaled) == windowed
        if windowed:
            assert 0 < float(scaled[0].split("=")[1]) < 1.0
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_convergence_subcommand(self, tmp_path, capsys):
        cfg = small_config_dict(lam=[1.0, 0.0], n=32, L=10.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["convergence", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        order = float([l for l in out.splitlines() if "measured order" in l][0].split("=")[1])
        assert 1.8 <= order <= 2.4

    def test_out_on_a_regular_file_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict(
            lam=[0.0, 0.0], t_max=0.5, eps_ladder=[0.3])))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        for command in ("simulate", "sweep", "diagnostics", "profile-ode"):
            assert main([command, "--config", str(cfg_path), "--out", str(blocker)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "diagnostics", "profile-ode"])
    def test_unusable_out_fails_before_the_run(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict()))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main([command, "--config", str(cfg_path), "--out", str(blocker / "x")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (blocker / "x").exists()

    @pytest.mark.parametrize("command, over, message", [
        ("sweep", {"eps_ladder": [0.3, 0.4]}, "eps ladder must be strictly decreasing"),
        *(("sweep", {"tolerance": tol}, f"tolerance must lie in [0, 1), got {tol!r}")
          for tol in (2.0, -1.0)),
        ("profile-ode", {"profile_ode": {"eps": 0.9}}, "unknown config field 'profile_ode'"),
        ("sweep", {"jobs": "two"}, "unknown config field 'jobs'"),
        ("simulate", {"record_every": 2.5}, "config field 'record_every' must be an integer"),
        ("simulate", {"enforce_hypotheses": False}, "unknown config field 'enforce_hypotheses'"),
        *((command, {"eps_ladder": []}, "eps ladder must hold at least one rung")
          for command in ("diagnostics", "bounds")),
        *((command, over, message)
          for over, message in NON_FINITE_CONFIGS + OVERSIZED_GRID_CONFIGS + INITIAL_DATA_CONFIGS
          for command in ("simulate", "sweep")),
    ], ids=["sweep-ladder", "sweep-tolerance-2", "sweep-tolerance-minus-1", "profile-ode-block",
            "sweep-string-jobs",
            "simulate-float-record-every", "simulate-removed-gate", "diagnostics-empty-ladder",
            "bounds-empty-ladder",
            *(f"{command}-{case}"
              for case in NON_FINITE_IDS + OVERSIZED_GRID_IDS + INITIAL_DATA_IDS
              for command in ("simulate", "sweep"))])
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, capsys, command, over, message):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict(**over)))
        out = tmp_path / "new"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["print-config", "bounds", "simulate"])
    @pytest.mark.parametrize("config, message", [
        ({"theta": 2.0}, "theta must lie in (0, 1], got 2.0"),
        ({"n": 100}, "points per axis must be a power of two >= 8, got 100"),
        ({"t_max": -1.0}, "t_max must be finite and positive, got -1.0"),
        ({"record_every": 0}, "record_every must be positive, got 0"),
        ({"tolerance": 2.0}, "tolerance must lie in [0, 1), got 2.0"),
        *DATUM_RANGE_CONFIGS,
    ], ids=["theta", "n", "t_max", "record_every", "tolerance", *DATUM_RANGE_IDS])
    def test_every_command_refuses_a_config_when_it_loads(
            self, tmp_path, capsys, command, config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_run_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a step that shrinks to nothing, like every RuntimeError, exits 1 with one line
        def vanishing_step(state):
            raise RuntimeError("step size 0.0 vanishes at t=1.0")

        monkeypatch.setattr(lifespan, "run_to_blowup", vanishing_step)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict()))
        out = tmp_path / "out"
        for command in ("simulate", "sweep", "diagnostics"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: step size 0.0 vanishes at t=1.0\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "diagnostics"])
    def test_datum_is_built_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        build, calls = lifespan.build_initial_data, []

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in (cli, lifespan):
            monkeypatch.setattr(module, "build_initial_data", counted)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(eps_ladder=[0.4])))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        with pytest.raises(SystemExit) as usage:
            main(["sweep", "--jobs", jobs])
        assert usage.value.code == 2
        assert f"--jobs must be positive, got {jobs}" in capsys.readouterr().err

    def test_sweep_jobs_leave_the_outputs_unchanged(self, tmp_path, capsys):
        # --jobs changes how many processes compute a sweep, not what it writes
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict()))
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 0
        capsys.readouterr()
        one, two = (sorted(p.name for p in (tmp_path / f"jobs{j}").iterdir()) for j in "12")
        assert one == two == ["run_eps0.3.json", "run_eps0.4.json", "summary.csv"]
        for name in one:
            assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()

    @pytest.mark.parametrize("flag, value", [("--tolerance", "0.2"),
                                             ("--enforce-hypotheses", "off")])
    def test_removed_flag_is_a_usage_error(self, capsys, flag, value):
        # the config file alone states what a command computes
        with pytest.raises(SystemExit) as usage:
            main(["sweep", flag, value])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_out_dir_and_jobs_are_flags_only(self, tmp_path, capsys, monkeypatch):
        # the config states the experiment; a config that still carries a deployment
        # setting fails before it creates the default --out, ./runs
        monkeypatch.chdir(tmp_path)
        assert main(["print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "out_dir" not in printed and "jobs" not in printed
        for key, value in (("out_dir", "elsewhere"), ("jobs", 1)):
            (tmp_path / "c.json").write_text(json.dumps(small_config_dict(**{key: value})))
            assert main(["simulate", "--config", "c.json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown config field {key!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
