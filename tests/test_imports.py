"""What a fresh interpreter loads: the package and its CLI need only numpy and the stdlib,
and a run on one process loads no hash module (a run file carries its experiment, not a
digest of it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter that imports nlslab from this tree's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_import_loads_no_scipy_and_no_process_pool():
    out = run_fresh(
        "import sys\n"
        "import nlslab, nlslab.cli\n"
        "print(nlslab.__file__)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m == 'concurrent.futures.process'))\n"
    )
    where, loaded = out.splitlines()
    assert Path(where).resolve().is_relative_to(SRC)
    assert loaded == "[]"


def test_import_loads_no_csv():
    # only harness writes files, and the package's own imports do not load it
    out = run_fresh("import sys\nimport nlslab\nprint('csv' in sys.modules)\n")
    assert out.split() == ["False"]


def test_runs_on_one_process_load_no_openssl(tmp_path):
    # hashlib's _hashlib links OpenSSL's libcrypto: 3.6 MB of every run's peak memory;
    # the built-in SHA-256 (_sha2, or _sha256 before Python 3.12) has nothing to hash
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 256, "L": 25.0, "eps_ladder": [0.4, 0.3], "t_max": 30.0,
                                  "record_every": 8}))
    commands = [[command, "--config", str(config), "--out", str(tmp_path / command)]
                for command in ("simulate", "sweep", "diagnostics")]
    out = run_fresh(
        "import sys\n"
        "import nlslab, nlslab.cli\n"
        "hashes = ('_hashlib', '_sha2', '_sha256')\n"
        "print('after import, loaded:', [m for m in hashes if m in sys.modules])\n"
        f"for argv in {commands!r}:\n"
        "    assert nlslab.cli.main(argv) == 0, argv\n"
        "    print(f'after {argv[0]}, loaded:', [m for m in hashes if m in sys.modules])\n"
    )
    loaded = [line for line in out.splitlines() if ", loaded: " in line]
    assert loaded == [f"after {step}, loaded: []"
                      for step in ("import", "simulate", "sweep", "diagnostics")]
    assert (tmp_path / "simulate" / "run_eps0.4.json").exists()
    assert (tmp_path / "sweep" / "summary.csv").exists()
    assert (tmp_path / "diagnostics" / "diagnostics.csv").exists()


def test_profile_integration_loads_scipy_on_first_call():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from nlslab.profile_ode import OdeParams, integrate_perturbed, make_perturbation\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "p = OdeParams(a=0.5, b=1.0, lam=1j, eps=0.02, t_star=0.5, psi0_sup=1.0, sigma=0.05)\n"
        "pert = make_perturbation('zero', c1=0.3, c2=0.3, delta=1.0, params=p)\n"
        "traj = integrate_perturbed(p, pert, xi_samples=np.array([0.0, 0.7]), n_output=20)\n"
        "print(before, 'scipy.integrate' in sys.modules, len(traj.t))\n"
    )
    assert out.split() == ["False", "True", "20"]


def test_a_run_loads_neither_the_profile_ode_nor_the_convergence_study(tmp_path):
    # only `nlslab profile-ode` and `nlslab convergence` need them; the package
    # resolves their names on first use
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 256, "L": 25.0, "eps_ladder": [0.4], "t_max": 30.0}))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "simulate")]
    out = run_fresh(
        "import sys\n"
        "import nlslab, nlslab.cli\n"
        f"assert nlslab.cli.main({argv!r}) == 0\n"
        "print('loaded:', *(f'nlslab.{m}' in sys.modules for m in ('profile_ode', 'convergence')))\n"
    )
    assert out.splitlines()[-1] == "loaded: False False"


def test_lazy_names_resolve_on_first_use():
    out = run_fresh(
        "import nlslab\n"
        "from nlslab import bound_constants, convergence_study\n"
        "from nlslab.profile_ode import OdeParams\n"
        "print(nlslab.OdeParams is OdeParams, bound_constants.__module__,\n"
        "      convergence_study.__module__, nlslab.ConvergenceReport.__module__)\n"
    )
    assert out.split() == ["True", "nlslab.profile_ode", "nlslab.convergence", "nlslab.convergence"]


def test_dir_lists_the_lazy_names():
    out = run_fresh(
        "import sys\n"
        "import nlslab\n"
        "names = dir(nlslab)\n"
        "print(all(n in names for n in ('OdeParams', 'bound_constants', 'convergence_study',\n"
        "                               'run_to_blowup')),\n"
        "      'nlslab.profile_ode' in sys.modules, 'nlslab.convergence' in sys.modules)\n"
    )
    assert out.split() == ["True", "False", "False"]
