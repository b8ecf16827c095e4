"""Config round trips, persistence, CSV schema, and CLI behavior."""

import json

import pytest

from nlslab.cli import main
from nlslab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    load_run,
    persist_run,
    persist_summary,
    run_record_from_dict,
    run_record_to_dict,
)
from nlslab.lifespan import sweep


def small_config_dict(**over):
    base = {
        "initial_data": {"kind": "gaussian", "width": 1.0},
        "d": 1, "n": 256, "L": 25.0,
        "lam": [0.0, 1.0], "theta": 0.5, "s": 1.0,
        "eps_ladder": [0.4, 0.3],
        "dt_init": 0.05, "t_max": 30.0,
        "record_every": 8, "out_dir": "runs",
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

    def test_unknown_nested_key_rejected(self):
        bad = small_config_dict()
        bad["initial_data"] = {"kind": "gaussian", "sigma": 2.0}
        with pytest.raises(ValueError, match="initial_data"):
            ExperimentConfig.from_dict(bad)

    def test_lam_must_be_pair(self):
        with pytest.raises(ValueError, match="lam"):
            ExperimentConfig.from_dict(small_config_dict(lam=1.0))

    def test_parse_error_reports_location(self):
        with pytest.raises(ValueError, match="line"):
            ExperimentConfig.parse('{"d": 1,\n "n": }')

    def test_fingerprint_sensitivity(self):
        a = ExperimentConfig.from_dict(small_config_dict())
        b = ExperimentConfig.from_dict(small_config_dict(t_max=31.0))
        assert a.fingerprint() == ExperimentConfig.from_dict(small_config_dict()).fingerprint()
        assert a.fingerprint() != b.fingerprint()

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

    def test_missing_run_key_rejected(self, micro_sweep):
        _, records, _, _ = micro_sweep
        data = run_record_to_dict(records[0])
        del data["T_eps"]
        with pytest.raises(KeyError):
            run_record_from_dict(data)

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

    def test_bounds_rejects_zero_eps_rung(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config_dict(eps_ladder=[0.4, 0.0])))
        assert main(["bounds", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"d": 1,,}')
        assert main(["bounds", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_simulate_free_case_reports_drift(self, tmp_path, capsys):
        cfg = small_config_dict(lam=[0.0, 0.0], t_max=0.5, eps_ladder=[0.3],
                                out_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        drift_line = [l for l in out.splitlines() if "l2 drift" in l]
        assert drift_line
        drift = float(drift_line[0].split("=")[1])
        assert drift < 1e-10

    def test_sweep_writes_deterministic_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict(out_dir=str(tmp_path / "o1"))))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        csv1 = (tmp_path / "o1" / "summary.csv").read_bytes()

        cfg_path2 = tmp_path / "c2.json"
        cfg_path2.write_text(json.dumps(small_config_dict(out_dir=str(tmp_path / "o2"))))
        assert main(["sweep", "--config", str(cfg_path2)]) == 0
        capsys.readouterr()
        csv2 = (tmp_path / "o2" / "summary.csv").read_bytes()
        assert csv1 == csv2

    def test_sweep_inconclusive_exit_code(self, tmp_path, capsys):
        cfg = small_config_dict(t_max=0.2, eps_ladder=[0.05, 0.02],
                                out_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_profile_ode_subcommand(self, tmp_path, capsys):
        cfg = small_config_dict(out_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["profile-ode", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "C0 =" in out and "M =" in out
        assert (tmp_path / "out" / "profile_trajectory.csv").exists()

    def test_diagnostics_subcommand(self, tmp_path, capsys):
        cfg = small_config_dict(eps_ladder=[0.4], out_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["diagnostics", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "r1:" in out and "r3:" in out
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_convergence_subcommand(self, tmp_path, capsys):
        cfg = small_config_dict(lam=[1.0, 0.0], n=32, L=10.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["convergence", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        order = float([l for l in out.splitlines() if "measured order" in l][0].split("=")[1])
        assert 1.8 <= order <= 2.4

    def test_out_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(small_config_dict(
            lam=[0.0, 0.0], t_max=0.5, eps_ladder=[0.3], out_dir="ignored")))
        out_dir = tmp_path / "flagged"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert any(out_dir.iterdir())
