"""Built-in initial-data profiles (gaussian, super-gaussian, sums of bumps) and the
JSON type rule that every config value obeys."""

from __future__ import annotations

import inspect
import sys

import numpy as np

from .spectral import ComplexField, Grid, Space


def _center_vector(grid: Grid, center) -> np.ndarray:
    if center is None:
        return np.zeros(grid.d)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.size == 1 and grid.d > 1:
        c = np.full(grid.d, c[0])
    if c.size != grid.d:
        raise ValueError(f"center has {c.size} components, grid is {grid.d}-dimensional")
    return c


def _modulated(grid: Grid, envelope: np.ndarray, modulation) -> np.ndarray:
    if modulation is None:
        return envelope.astype(np.complex128)
    k = _center_vector(grid, modulation)
    phase = sum(ki * xi for ki, xi in zip(k, grid.x_mesh))
    return envelope * np.exp(1j * phase)


def gaussian(grid: Grid, width: float = 1.0, center=None, modulation=None,
             amplitude: float = 1.0) -> ComplexField:
    """amplitude * exp(-|x-c|^2 / (2 width^2)) * exp(i k.x)."""
    c = _center_vector(grid, center)
    r2 = sum((x - ci) ** 2 for x, ci in zip(grid.x_mesh, c))
    env = amplitude * np.exp(-r2 / (2.0 * width**2))
    return ComplexField(grid, Space.PHYSICAL, _modulated(grid, env, modulation))


def super_gaussian(grid: Grid, width: float = 1.0, power: int = 2, center=None,
                   modulation=None, amplitude: float = 1.0) -> ComplexField:
    """Flat-top profile amplitude * exp(-(|x-c|^2 / (2 width^2))^power)."""
    if power < 1:
        raise ValueError(f"super-gaussian power must be >= 1, got {power}")
    c = _center_vector(grid, center)
    r2 = sum((x - ci) ** 2 for x, ci in zip(grid.x_mesh, c))
    env = amplitude * np.exp(-((r2 / (2.0 * width**2)) ** power))
    return ComplexField(grid, Space.PHYSICAL, _modulated(grid, env, modulation))


def bump_sum(grid: Grid, bumps) -> ComplexField:
    """Sum of gaussian bumps; each entry is a dict of gaussian() keyword arguments."""
    if not bumps:
        raise ValueError("bump_sum requires at least one bump")
    total = np.zeros(grid.shape, dtype=np.complex128)
    for bump in bumps:
        total += gaussian(grid, **bump).values
    return ComplexField(grid, Space.PHYSICAL, total)


BUILDERS = {"gaussian": gaussian, "super_gaussian": super_gaussian, "bump_sum": bump_sum}


_JSON_TYPES = {int: "an integer", float: "a number", list: "a list of numbers",
               type(None): "a number or a list of numbers"}


def _check_type(name: str, value, default):
    """`value` as its parameter reads it: a float for a number, a list of floats for a
    list, an integer as it is.  Reject a JSON value of another type than `default`, or
    a number that is not a finite float (json reads NaN, Infinity and integers of any
    size); an integer passes for a number, a list holds numbers, and a None default
    takes either."""
    want, numbers = type(default), (int, float)
    items = value if type(value) is list else [value]
    if want is float:
        ok = type(value) in numbers
    elif want is int:
        ok = type(value) is int
    else:
        ok = (type(value) is list or default is None) and all(type(v) in numbers for v in items)
    if not ok:
        raise ValueError(f"{name} must be {_JSON_TYPES[want]}, got {value!r}")
    if want is int:
        return value
    if not all(abs(v) <= sys.float_info.max for v in items):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return [float(v) for v in value] if type(value) is list else float(value)


def _check_fields(builder, spec: dict, what: str) -> dict:
    """A copy of spec with each value as :func:`_check_type` reads it: every key must
    name a parameter of the builder, every required one must be given, and every
    value must have the JSON type of its parameter's default."""
    params = {k: p for k, p in inspect.signature(builder).parameters.items() if k != "grid"}
    extra = set(spec) - set(params)
    if extra:
        raise ValueError(f"unknown {what}: {sorted(extra)}")
    missing = {k for k, p in params.items() if p.default is p.empty} - set(spec)
    if missing:
        raise ValueError(f"missing {what}: {sorted(missing)}")
    return {key: value if params[key].default is params[key].empty
            else _check_type(f"initial_data field {key!r}", value, params[key].default)
            for key, value in spec.items()}


def _check_ranges(spec: dict) -> None:
    """Reject a width that is not positive (the builders read only width**2) and a
    super-gaussian power below 1 or too large to convert to a float."""
    width = spec.get("width", 1.0)
    if not width > 0:
        raise ValueError(f"initial_data field 'width' must be positive, got {width!r}")
    power = spec.get("power", 1)
    if power < 1:
        raise ValueError(f"initial_data field 'power' must be >= 1, got {power!r}")
    if power > sys.float_info.max:
        raise ValueError("initial_data field 'power' must convert to a float, got an "
                         f"integer of {len(str(power))} digits")


def check_spec(spec: dict) -> dict:
    """A copy of the initial-data spec with each number as its builder reads it, so
    "width": 1 and "width": 1.0 are one datum: width, amplitude and the components of
    center and modulation are floats, and an integer power stays an integer.  Reject
    a spec that its kind's builder would not accept, or whose width or power lies
    out of range."""
    if not isinstance(spec, dict):
        raise ValueError(f"initial_data must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in BUILDERS:
        raise ValueError(f"unknown initial-data kind {kind!r}; expected one of {sorted(BUILDERS)}")
    fields = {k: v for k, v in spec.items() if k != "kind"}
    checked = _check_fields(BUILDERS[kind], fields, f"initial_data fields for {kind!r}")
    if kind == "bump_sum":
        bumps = fields["bumps"]
        if not (isinstance(bumps, list) and all(isinstance(b, dict) for b in bumps)):
            raise ValueError(f"initial_data bumps must be a list of objects, got {bumps!r}")
        checked["bumps"] = [_check_fields(gaussian, bump, "initial_data fields for a bump_sum bump")
                            for bump in bumps]
        for bump in bumps:
            _check_ranges(bump)
    else:
        _check_ranges(fields)
    return {"kind": kind, **checked}


def build(grid: Grid, spec: dict) -> ComplexField:
    """Dispatch on spec['kind']; remaining keys are passed to the builder."""
    check_spec(spec)
    return BUILDERS[spec["kind"]](grid, **{k: v for k, v in spec.items() if k != "kind"})
