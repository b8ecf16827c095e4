"""A run file names its experiment (one experiment block per experiment, however its
numbers are spelled, and enough to run the rung again), a run's record states each of
its measurements once, made where the run ends, and a run's counts."""

import dataclasses
import json
from pathlib import Path

import pytest

import nlslab
from nlslab import solver
from nlslab.cli import main
from nlslab.harness import ExperimentConfig, load_run, persist_run
from nlslab.initial_data import gaussian
from nlslab.lifespan import sweep
from nlslab.propagators import NonlinearityParams
from nlslab.records import RunStats, RunStatus
from nlslab.solver import SolverConfig, init, run_to_blowup
from nlslab.spectral import Grid


# every number field of the config, the datum's among them (a 1-D center and
# modulation included), and the ladder and lam, spelled as integers
INT_SPELLING = {"initial_data": {"kind": "gaussian", "width": 1, "amplitude": 1, "center": [1],
                                 "modulation": [0]},
                "n": 256, "L": 25, "s": 1, "t_max": 30, "tolerance": 0, "lam": [0, 1],
                "eps_ladder": [1, 0.5], "record_every": 8}
FLOAT_SPELLING = {"initial_data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0,
                                   "center": [1.0], "modulation": [0.0]},
                  "n": 256, "L": 25.0, "s": 1.0, "t_max": 30.0, "tolerance": 0.0,
                  "lam": [0.0, 1.0], "eps_ladder": [1.0, 0.5], "record_every": 8}
# the settings of INT_SPELLING's rungs, keyed as in the config file
SPELLED_EXPERIMENT = {"initial_data": FLOAT_SPELLING["initial_data"], "d": 1, "n": 256,
                      "L": 25.0, "lam": [0.0, 1.0], "theta": 0.5, "s": 1.0, "t_max": 30.0,
                      "record_every": 8}


def as_floats(spelled):
    return json.loads(json.dumps(spelled), parse_int=float)


class TestOneExperimentPerSpelling:
    @pytest.mark.parametrize("key, spelled", [
        ("L", 80), ("t_max", 200), ("s", 1), ("theta", 1), ("eps_ladder", [1, 0]),
        ("initial_data", {"kind": "gaussian", "width": 2, "center": 1, "modulation": [0]}),
        ("initial_data", {"kind": "bump_sum", "bumps": [{"width": 1, "center": [1]},
                                                        {"amplitude": 2}]}),
    ], ids=["L", "t_max", "s", "theta", "eps_ladder", "gaussian", "bump_sum"])
    def test_an_integer_loads_as_its_float(self, key, spelled):
        as_int = ExperimentConfig.from_dict({key: spelled})
        as_float = ExperimentConfig.from_dict({key: as_floats(spelled)})
        assert as_int == as_float
        assert as_int.serialize() == as_float.serialize()

    def test_an_integer_power_stays_an_integer(self):
        spec = {"kind": "super_gaussian", "width": 2, "power": 3, "center": [1]}
        cfg = ExperimentConfig.from_dict({"initial_data": spec})
        assert cfg.initial_data == {"kind": "super_gaussian", "width": 2.0, "power": 3,
                                    "center": [1.0]}
        assert [type(cfg.initial_data[k]) for k in ("width", "power")] == [float, int]
        assert spec["width"] == 2 and type(spec["width"]) is int  # the caller's spec is kept

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_both_spellings_write_the_same_bytes(self, tmp_path, capsys, command):
        outs = []
        for name, spelling in (("int", INT_SPELLING), ("float", FLOAT_SPELLING)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spelling))
            out = tmp_path / f"out_{name}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        capsys.readouterr()
        assert "run_eps1.0.json" in outs[0]
        assert outs[0] == outs[1]
        assert json.loads(outs[0]["run_eps1.0.json"])["experiment"] == SPELLED_EXPERIMENT


def library_config(**over):
    """The default config's SolverConfig, built from the library's own classes; `over`
    sets L, theta, eps, s or t_max."""
    kw = {"L": 80.0, "theta": 0.5, "eps": 0.4, "s": 1.0, "t_max": 200.0, "record_every": 4,
          **over}
    return SolverConfig(grid=Grid(1, 2048, kw.pop("L")),
                        params=NonlinearityParams(1j, kw.pop("theta"), 1), **kw)


DEFAULT_DATUM = {"kind": "gaussian", "width": 1.0}


def stamped(cfg, spec=DEFAULT_DATUM):
    """The record of a one-rung sweep at cfg.eps, as the sweep stamps it."""
    (record,), _, _ = sweep([cfg.eps], cfg, spec)
    return record


class TestOneExperimentPerLibrarySpelling:
    @pytest.mark.parametrize("key, spelled", [("L", 80), ("theta", 1), ("eps", 1), ("s", 1),
                                               ("t_max", 200)])
    def test_an_integer_field_holds_its_float(self, key, spelled):
        as_int, as_float = library_config(**{key: spelled}), library_config(**{key: float(spelled)})
        holder = {"L": as_int.grid, "theta": as_int.params}.get(key, as_int)
        assert type(getattr(holder, key)) is float
        assert as_int == as_float

    def test_the_library_path_stamps_the_config_paths_experiment(self, tmp_path):
        # an integer-spelled config and datum, and the default file config's rung
        records = [stamped(library_config(L=80, t_max=200), {"kind": "gaussian", "width": 1}),
                   stamped(library_config(), DEFAULT_DATUM)]
        default = ExperimentConfig().to_dict()
        assert set(default) - set(records[0].experiment) == {"eps_ladder", "tolerance",
                                                             "schema_version"}
        assert records[0].experiment == {key: default[key] for key in records[0].experiment}
        first, second = (persist_run(rec, tmp_path / name).read_bytes()
                         for rec, name in zip(records, "ab"))
        assert first == second

    @pytest.mark.parametrize("value", ["1", True])
    @pytest.mark.parametrize("key", ["L", "theta", "eps", "s", "t_max"])
    def test_a_string_or_bool_is_refused_not_converted(self, key, value):
        with pytest.raises(TypeError, match=f"{key} must be a real number"):
            library_config(**{key: value})

    # an integer field refuses what is no integer: True would state the d = 1 or
    # record_every = 1 experiment in another experiment block, 2.5 would sample every
    # 5th step, and a float n would fail on its power-of-two test
    @pytest.mark.parametrize("value", [True, 1.0, 2.5, "1"], ids=["bool", "float", "fraction", "str"])
    @pytest.mark.parametrize("key", ["Grid.d", "Grid.n", "NonlinearityParams.d",
                                     "SolverConfig.record_every"])
    def test_an_integer_field_refuses_a_non_integer(self, key, value):
        owner, name = key.split(".")
        grid = {"d": 1, "n": 2048, "L": 80.0}
        params = {"lam": 1j, "theta": 0.5, "d": 1}
        {"Grid": grid, "NonlinearityParams": params}.get(owner, {})[name] = value
        with pytest.raises(TypeError, match=f"{owner}.{name} must be an integer"):
            SolverConfig(grid=Grid(**grid), params=NonlinearityParams(**params), eps=0.4, s=1.0,
                         t_max=200.0, record_every=value if owner == "SolverConfig" else 4)

    def test_a_numpy_number_field_holds_its_int_or_float(self, tmp_path):
        import numpy as np

        # json writes neither a numpy integer nor a float32 into the experiment block
        cfg = SolverConfig(grid=Grid(np.int64(1), np.int64(2048), np.float32(80.0)),
                           params=NonlinearityParams(1j, np.float64(0.5), np.int32(1)),
                           eps=np.float32(0.5), s=np.float64(1.0), t_max=np.int64(1),
                           record_every=np.int64(4))
        assert [type(v) for v in (cfg.grid.d, cfg.grid.n, cfg.params.d, cfg.record_every)] \
            == [int] * 4
        assert [type(v) for v in (cfg.grid.L, cfg.params.theta, cfg.eps, cfg.s, cfg.t_max)] \
            == [float] * 5
        assert cfg == library_config(eps=0.5, t_max=1.0)
        records = [stamped(cfg), stamped(library_config(eps=0.5, t_max=1.0))]
        assert records[0].experiment == records[1].experiment
        first, second = (persist_run(rec, tmp_path / name).read_bytes()
                         for rec, name in zip(records, "ab"))
        assert first == second


def simulate(tmp_path, name: str, config: dict, capsys) -> Path:
    """Run `nlslab simulate` on `config` into tmp_path/name; the path of its run file."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    (run,) = (tmp_path / name).iterdir()
    return run


# one rung in 2-D: two bumps, one centred by a scalar and one by a vector
BUMPS_2D = {"initial_data": {"kind": "bump_sum", "bumps": [
                {"width": 1, "center": [1, 0]}, {"width": 0.5, "center": -1, "amplitude": 0.5}]},
            "d": 2, "n": 64, "L": 20, "s": 1.2, "eps_ladder": [0.5], "t_max": 30}


class TestARunFileNamesItsExperiment:
    def test_two_widths_give_two_experiments(self, tmp_path, capsys):
        # the solver's fields alone, which the run files used to hash, are the same
        runs = [json.loads(simulate(tmp_path, f"w{w}", {
            "initial_data": {"kind": "gaussian", "width": w}, "n": 256, "L": 25.0,
            "t_max": 30.0, "eps_ladder": [0.4]}, capsys).read_text()) for w in (1.0, 2.0)]
        assert runs[0]["T_eps"] != runs[1]["T_eps"]
        assert runs[0]["experiment"] != runs[1]["experiment"]
        runs[1]["experiment"]["initial_data"]["width"] = 1.0
        assert runs[0]["experiment"] == runs[1]["experiment"]

    @pytest.mark.parametrize("config", [INT_SPELLING, BUMPS_2D], ids=["1d", "2d-bump-sum"])
    def test_a_rung_runs_again_from_its_files_experiment(self, tmp_path, capsys, config):
        first = simulate(tmp_path, "first", config, capsys)
        run = json.loads(first.read_text())
        again = simulate(tmp_path, "again", {**run["experiment"], "eps_ladder": [run["eps"]]},
                         capsys)
        assert again.name == first.name
        assert again.read_bytes() == first.read_bytes()

    def test_two_jobs_stamp_the_experiment_of_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**FLOAT_SPELLING, "eps_ladder": [1.0, 0.8]}))
        experiments = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 0
            experiments.append([load_run(out / f"run_eps{eps}.json").experiment
                                for eps in (1.0, 0.8)])
        capsys.readouterr()
        assert experiments[0] == experiments[1] == [SPELLED_EXPERIMENT] * 2

    def test_each_record_holds_its_own_copy(self):
        records, _, _ = sweep([1.0, 0.8], library_config(t_max=1.0), INT_SPELLING["initial_data"])
        first, second = (rec.experiment for rec in records)
        assert first == second
        first["initial_data"]["center"].append(2.0)
        assert second["initial_data"]["center"] == [1.0]

    def test_a_record_made_outside_a_sweep_names_no_experiment(self, tmp_path):
        cfg = library_config(t_max=1.0)
        record = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert record.experiment is None
        path = persist_run(record, tmp_path)
        assert json.loads(path.read_text())["experiment"] is None
        assert load_run(path).experiment is None

    @pytest.mark.parametrize("missing", ["experiment", "criterion"])
    def test_a_run_file_in_an_older_format_does_not_load(self, tmp_path, missing):
        # a file without an experiment block, or one written before `criterion`
        # replaced censored and the two copies of T_eps, t_blow_pointwise and
        # t_blow_threshold
        path = persist_run(stamped(library_config(t_max=1.0)), tmp_path)
        data = json.loads(path.read_text())
        del data[missing]
        unknown = ""
        if missing == "criterion":
            data.update(censored=True, t_blow_pointwise=None, t_blow_threshold=None)
            unknown = "; unknown keys ['censored', 't_blow_pointwise', 't_blow_threshold']"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as refused:
            load_run(path)
        assert str(refused.value) == (f"run file {str(path)!r} cannot be loaded: "
                                      f"missing keys [{missing!r}]{unknown}")

    def test_a_run_file_with_an_unknown_key_does_not_load(self, tmp_path):
        path = persist_run(stamped(library_config(t_max=1.0)), tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "wall_s": 1.0}))
        with pytest.raises(ValueError, match=r"cannot be loaded: unknown keys \['wall_s'\]$"):
            load_run(path)

    def test_a_run_file_that_holds_no_object_does_not_load(self, tmp_path):
        path = tmp_path / "run_eps0.4.json"
        path.write_text("[0.4]\n")
        with pytest.raises(ValueError, match="cannot be loaded: it holds no JSON object"):
            load_run(path)

    def test_a_run_file_of_another_schema_version_does_not_load(self, tmp_path):
        path = persist_run(stamped(library_config(t_max=1.0)), tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "schema_version": 2}))
        with pytest.raises(ValueError, match=r"cannot be loaded: schema_version 2, not 1$"):
            load_run(path)


def rung(d, n, L, **over):
    """A rung of the amplifying theta = 1/2 equation on a grid of n^d points; `over` sets
    eps, t_max or the params."""
    kw = {"params": NonlinearityParams(1j, 0.5, d), "eps": 0.4, "s": 1.0 if d == 1 else 1.2,
          "t_max": 200.0, "record_every": 4, **over}
    return SolverConfig(grid=Grid(d, n, L), **kw)


class TestOneRecordPerRun:
    # the 2-D rung is blowup-2d's on a 64^2 grid; both have rows in their remainder
    # windows [t_star, T/2]
    @pytest.mark.parametrize("cfg", [rung(1, 512, 40.0, eps=0.2), rung(2, 64, 20.0)],
                             ids=["1d", "2d"])
    def test_a_record_made_outside_a_sweep_is_the_sweeps(self, cfg):
        # make_record states every measurement of the run, the remainder criterion's
        # maximum among them; the sweep stamps only the bound value and the experiment
        alone = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        swept = stamped(cfg)
        assert alone.max_remainder_scaled is not None
        assert alone.bound_value is alone.experiment is None
        assert swept.bound_value is not None and swept.experiment is not None
        assert dataclasses.replace(swept, bound_value=None, experiment=None) == alone

    @pytest.mark.parametrize("cfg, status, criterion", [
        (library_config(), "blown-up", "pointwise"),
        (rung(2, 64, 20.0), "blown-up", "threshold"),
        # t_max falls inside the horizon's bracket of the eps = 0.4 rung
        (library_config(t_max=3.754), "reached-t-max", None),
        # lam = 1 disperses the datum into the boundary shell of a box too small for it
        (rung(1, 64, 6.0, params=NonlinearityParams(1.0 + 0j, 0.5, 1), eps=0.3),
         "boundary-contaminated", None),
    ], ids=["pointwise", "threshold", "reached-t-max", "contaminated"])
    def test_the_criterion_says_what_bracketed_the_blow_up(self, cfg, status, criterion):
        record = run_to_blowup(init(cfg, gaussian(cfg.grid)))
        assert (record.status, record.criterion) == (status, criterion)
        assert record.usable_for_bound() == (status == "blown-up")
        assert (record.T_eps is None) == (status == "boundary-contaminated")


class TestRunStatus:
    def test_the_status_names_are_spelled_once_beside_the_record(self):
        # records defines them; solver and the package re-export that one class
        assert nlslab.RunStatus is solver.RunStatus is RunStatus
        src = Path(nlslab.__file__).parent
        spelled = sorted(path.name for path in src.glob("*.py")
                         for status in RunStatus if f'"{status.value}"' in path.read_text())
        assert spelled == ["records.py"] * len(RunStatus)


class TestRunStats:
    def test_a_run_is_counted_and_printed_in_one_line(self):
        stats = RunStats(rows=7)
        assert (stats.dt_min, stats.dt_max) == (float("inf"), 0.0)
        for dt in (0.0045678, 0.16666, 0.125):
            stats.accept(dt)
        for outcome, rows in (("rejected", 1), ("singular", 1), ("capped", 0), ("capped", 1)):
            stats.refuse(outcome, rows)
        assert (stats.accepted, stats.rejected, stats.singular, stats.capped) == (3, 1, 1, 2)
        assert (stats.rows_refused, stats.dt_min, stats.dt_max) == (3, 0.0045678, 0.16666)
        assert str(stats) == ("trials: 3 accepted, 1 rejected, 1 singular, 2 capped; "
                              "rows: 7 computed, 3 refused; dt in [0.00457, 0.167]")
