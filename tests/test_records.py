"""Run fingerprints: pinned digests, the interpreter's own SHA-256, one fingerprint per experiment."""

import hashlib
import json
import sys
from dataclasses import asdict

import pytest

from nlslab import records
from nlslab.cli import main
from nlslab.harness import ExperimentConfig
from nlslab.records import canonical_fingerprint
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
