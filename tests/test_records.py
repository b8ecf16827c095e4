"""Run fingerprints (pinned digests, the interpreter's own SHA-256, one fingerprint per
experiment) and a run's counts."""

import hashlib
import json
import sys
from dataclasses import asdict

import pytest

from nlslab import records
from nlslab.cli import main
from nlslab.harness import ExperimentConfig
from nlslab.propagators import NonlinearityParams
from nlslab.records import RunStats, canonical_fingerprint
from nlslab.solver import SolverConfig
from nlslab.spectral import Grid


def hashlib_fingerprint(mapping: dict) -> str:
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestDigest:
    # the default config's digests, as every summary.csv and run JSON has carried them
    def test_default_grid_fingerprint_is_pinned(self):
        assert canonical_fingerprint(asdict(Grid(1, 2048, 80.0))) == "e7298b3a0fd80eb8"

    def test_default_config_fingerprint_is_pinned(self):
        assert ExperimentConfig().solver_config().fingerprint() == "9ff5044c4c354f10"

    # empty, nested, non-ASCII (escaped by json), blobs of 55 and 56 bytes (the longest
    # that pads into one SHA-256 block and the shortest that needs two), and a long one
    @pytest.mark.parametrize("mapping", [
        {},
        {"d": 2, "n": 128, "L": 20.0},
        {"lam": [0.0, 1.0], "nested": {"b": [1, 2.5, None], "a": True}},
        {"kind": "λ-ü"},
        {"x": "y" * 47},
        {"x": "y" * 48},
        {f"k{i}": i / 7 for i in range(200)},
    ], ids=["empty", "grid", "nested", "non-ascii", "one-block", "two-blocks", "many-blocks"])
    def test_digest_is_hashlibs(self, mapping):
        assert canonical_fingerprint(mapping) == hashlib_fingerprint(mapping)

    def test_digest_comes_from_the_interpreters_own_module(self):
        builtin = pytest.importorskip("_sha2" if sys.version_info >= (3, 12) else "_sha256")
        assert records.sha256 is builtin.sha256


# every number field of the config, and the ladder and lam, spelled as integers
INT_SPELLING = {"n": 256, "L": 25, "s": 1, "t_max": 30, "tolerance": 1, "lam": [0, 1],
                "eps_ladder": [1, 0.5], "record_every": 8}
FLOAT_SPELLING = {"n": 256, "L": 25.0, "s": 1.0, "t_max": 30.0, "tolerance": 1.0,
                  "lam": [0.0, 1.0], "eps_ladder": [1.0, 0.5], "record_every": 8}


class TestOneFingerprintPerExperiment:
    @pytest.mark.parametrize("key, spelled", [("L", 80), ("t_max", 200), ("s", 1),
                                               ("theta", 1), ("eps_ladder", [1, 0])],
                             ids=["L", "t_max", "s", "theta", "eps_ladder"])
    def test_an_integer_loads_as_its_float(self, key, spelled):
        as_int = ExperimentConfig.from_dict({key: spelled})
        as_float = ExperimentConfig.from_dict({key: json.loads(json.dumps(spelled),
                                                              parse_int=float)})
        assert as_int == as_float
        assert as_int.serialize() == as_float.serialize()
        assert as_int.solver_config().fingerprint() == as_float.solver_config().fingerprint()
        assert (canonical_fingerprint(asdict(as_int.grid()))
                == canonical_fingerprint(asdict(as_float.grid())))

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


def library_config(**over):
    """The default config's SolverConfig, built from the library's own classes; `over`
    sets L, theta, eps, s or t_max."""
    kw = {"L": 80.0, "theta": 0.5, "eps": 0.4, "s": 1.0, "t_max": 200.0, "record_every": 4,
          **over}
    return SolverConfig(grid=Grid(1, 2048, kw.pop("L")),
                        params=NonlinearityParams(1j, kw.pop("theta"), 1), **kw)


class TestOneFingerprintPerLibraryExperiment:
    @pytest.mark.parametrize("key, spelled", [("L", 80), ("theta", 1), ("eps", 1), ("s", 1),
                                               ("t_max", 200)])
    def test_an_integer_field_holds_its_float(self, key, spelled):
        as_int, as_float = library_config(**{key: spelled}), library_config(**{key: float(spelled)})
        holder = {"L": as_int.grid, "theta": as_int.params}.get(key, as_int)
        assert type(getattr(holder, key)) is float
        assert as_int == as_float and as_int.fingerprint() == as_float.fingerprint()

    def test_the_default_fingerprints_on_the_library_path(self):
        cfg = library_config(L=80, t_max=200)
        assert canonical_fingerprint(asdict(cfg.grid)) == "e7298b3a0fd80eb8"
        assert cfg.fingerprint() == "9ff5044c4c354f10"

    @pytest.mark.parametrize("value", ["1", True])
    @pytest.mark.parametrize("key", ["L", "theta", "eps", "s", "t_max"])
    def test_a_string_or_bool_is_refused_not_converted(self, key, value):
        with pytest.raises(TypeError, match=f"{key} must be a real number"):
            library_config(**{key: value})

    # an integer field refuses what is no integer: True would state the d = 1 or
    # record_every = 1 experiment under another fingerprint, 2.5 would sample every
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

    def test_a_numpy_integer_field_holds_its_int(self):
        import numpy as np

        cfg = SolverConfig(grid=Grid(np.int64(1), np.int64(2048), 80.0),
                           params=NonlinearityParams(1j, 0.5, np.int32(1)), eps=0.4, s=1.0,
                           t_max=200.0, record_every=np.int64(4))
        assert [type(v) for v in (cfg.grid.d, cfg.grid.n, cfg.params.d, cfg.record_every)] \
            == [int] * 4
        assert cfg.fingerprint() == "9ff5044c4c354f10"


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
