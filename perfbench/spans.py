"""In-memory spans around calls into nlslab, installed from outside the package.

`Tracer.install` replaces each traced function by a timing wrapper in every
loaded ``nlslab`` module that binds it (``solver`` and ``lifespan`` import
names such as ``free_propagate`` when they load, so patching the defining
module alone would miss their calls), and replaces traced methods on their
class.  A span's self time is its duration minus the durations of the traced
spans it encloses.  Nothing under ``src/`` is edited; the wrappers live only
in the process that installed them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute path) of every traced callable.  A name the package no
# longer defines is skipped, and its counters stay at zero.
TRACED = (
    ("spectral", "fourier_forward"),
    ("spectral", "fourier_inverse"),
    ("spectral", "norms"),
    ("spectral", "spectral_tail_fraction"),
    ("spectral", "boundary_shell_fraction"),
    ("spectral", "sup_modulus"),
    ("propagators", "free_propagate"),
    ("propagators", "nonlinear_flow_exact"),
    ("solver", "step"),
    ("solver", "run_to_blowup"),
    ("solver", "_sample_diagnostics"),
    ("solver", "DiagnosticsLog.copy"),
    ("solver", "DiagnosticsLog.energy_sup"),
    ("lifespan", "sweep"),
    ("lifespan", "theoretical_bound"),
    ("lifespan", "max_remainder_scaled"),
    ("lifespan", "remainder"),
    ("harness", "persist_run"),
    ("harness", "persist_summary"),
    ("initial_data", "build"),
)


class Span:
    __slots__ = ("calls", "total_s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.spans = {f"{mod}.{path}": Span() for mod, path in TRACED}
        self._open = []          # child time accumulated by each open span
        self._sampled_s = 0.0    # diagnostics sampling inside the current step
        self.runs = []           # per run_to_blowup call: [(step_s, kernel_s), ...]

    def install(self, package):
        """Wrap every name in TRACED that the imported package defines."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        hooks = {
            "solver.step": (self._step_enter, self._step_exit),
            "solver.run_to_blowup": (self._run_enter, None),
            "solver._sample_diagnostics": (None, self._sample_exit),
        }
        for mod, path in TRACED:
            owner = sys.modules.get(f"{package.__name__}.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            name = f"{mod}.{path}"
            wrapper = self._wrap(self.spans[name], original, *hooks.get(name, (None, None)))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, span, fn, enter, exit_):
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter()
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dt = clock() - t0
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - open_.pop()
                if open_:
                    open_[-1] += dt
                if exit_ is not None:
                    exit_(args, kwargs, dt)

        return wrapper

    def _run_enter(self):
        self.runs.append([])

    def _step_enter(self):
        self._sampled_s = 0.0

    def _sample_exit(self, args, kwargs, dt):
        self._sampled_s += dt

    def _step_exit(self, args, kwargs, dt):
        record = kwargs.get("record", args[2] if len(args) > 2 else True)
        if record and self.runs:
            self.runs[-1].append((dt, dt - self._sampled_s))

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<stat>` numbers plus the derived step metrics."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.total_s
            out[f"{name}.self_s"] = span.self_s
            out[f"{name}.raised"] = span.raised
        steps = [s for run in self.runs for s in run]
        in_loop = len(steps)
        out["propagators.nonlinear_flow_exact.blowups"] = out["propagators.nonlinear_flow_exact.raised"]
        out["solver.step.trial_calls"] = out["solver.step.calls"] - in_loop
        out["solver.useful_step_ratio"] = in_loop / max(out["solver.step.calls"], 1)
        out["solver.step_us"] = 1e6 * statistics.median(k for _, k in steps) if steps else 0.0
        longest = max(self.runs, key=len, default=[])
        tenth = len(longest) // 10
        if tenth:
            early = statistics.median(s for s, _ in longest[:tenth])
            late = statistics.median(s for s, _ in longest[-tenth:])
            out["solver.step.late_over_early"] = late / early
        else:
            out["solver.step.late_over_early"] = 0.0
        return out


def fft_pair_us(shape, seed: int, pairs: int = 300) -> float:
    """Median time of one raw ``np.fft.fftn`` + ``np.fft.ifftn`` pair on `shape`, in us."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for _ in range(10):
        np.fft.ifftn(np.fft.fftn(a))
    times = []
    for _ in range(pairs):
        t0 = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(a))
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)
