"""Built-in initial-data profiles."""

import numpy as np
import pytest

from nlslab import Grid, fourier_forward, sup_modulus
from nlslab.initial_data import build, bump_sum, gaussian, super_gaussian


class TestGaussian:
    def test_peak_and_width(self):
        g = Grid(1, 256, 12.0)
        f = gaussian(g, width=2.0)
        assert np.max(np.abs(f.values)) == pytest.approx(1.0)
        j = np.argmax(np.abs(f.values))
        assert g.x_1d[j] == pytest.approx(0.0, abs=1e-12)

    def test_center_and_modulation(self):
        g = Grid(1, 256, 12.0)
        f = gaussian(g, center=3.0, modulation=2.0)
        j = np.argmax(np.abs(f.values))
        assert g.x_1d[j] == pytest.approx(3.0, abs=g.h)
        # modulation shifts the transform peak to xi = 2
        fh = fourier_forward(f)
        k = np.argmax(np.abs(fh.values))
        assert g.xi_1d[k] == pytest.approx(2.0, abs=g.dxi)

    def test_d2_center_broadcast(self):
        g = Grid(2, 32, 6.0)
        f = gaussian(g, center=1.0)
        assert f.values.shape == (32, 32)


class TestSuperGaussian:
    def test_flatter_top(self):
        g = Grid(1, 256, 10.0)
        f1 = gaussian(g)
        f2 = super_gaussian(g, power=3)
        mid = np.abs(g.x_1d) < 0.5
        assert np.min(np.abs(f2.values[mid])) > np.min(np.abs(f1.values[mid]))

    def test_power_validated(self):
        with pytest.raises(ValueError):
            super_gaussian(Grid(1, 32, 4.0), power=0)


class TestBumpSum:
    def test_two_bumps(self):
        # centers sit on lattice points (h = 3/32), so the peaks are exact
        g = Grid(1, 256, 12.0)
        f = bump_sum(g, [{"center": -3.75, "width": 0.8},
                         {"center": 3.75, "width": 0.8, "amplitude": 0.5}])
        left = np.abs(f.values[g.x_1d < 0])
        right = np.abs(f.values[g.x_1d > 0])
        assert np.max(left) == pytest.approx(1.0, abs=1e-6)
        assert np.max(right) == pytest.approx(0.5, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bump_sum(Grid(1, 32, 4.0), [])


class TestBuild:
    def test_dispatch(self):
        g = Grid(1, 64, 8.0)
        f = build(g, {"kind": "gaussian", "width": 1.5})
        assert sup_modulus(f) == pytest.approx(1.0)
        f2 = build(g, {"kind": "bump_sum", "bumps": [{"width": 1.0}]})
        assert sup_modulus(f2) == pytest.approx(1.0)
        every = {"width": 1.5, "power": 2, "center": 0.5, "modulation": 1.0, "amplitude": 2.0}
        f3 = build(g, {"kind": "super_gaussian", **every})
        assert np.array_equal(f3.values, super_gaussian(g, **every).values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown initial-data kind"):
            build(Grid(1, 32, 4.0), {"kind": "soliton"})

    @pytest.mark.parametrize("spec, match", [
        ({"kind": "gaussian", "sigma": 1.0}, r"unknown .*'gaussian'.*\['sigma'\]"),
        ({"kind": "super_gaussian", "bumps": []}, r"unknown .*\['bumps'\]"),
        ({"kind": "bump_sum", "bumps": [{"power": 2}]}, r"unknown .*bump.*\['power'\]"),
        ({"kind": "bump_sum"}, r"missing .*\['bumps'\]"),
        ("gaussian", "initial_data must be an object"),
        ({"kind": "bump_sum", "bumps": [1.0]}, "list of objects"),
        ({"kind": "bump_sum", "bumps": {"width": 1.0}}, "list of objects"),
    ], ids=["gaussian-key", "super-gaussian-key", "bump-key", "missing-bumps",
            "non-object-spec", "non-object-bump", "bumps-not-a-list"])
    def test_unknown_or_missing_parameter(self, spec, match):
        with pytest.raises(ValueError, match=match):
            build(Grid(1, 32, 4.0), spec)

    def test_center_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian(Grid(1, 32, 4.0), center=[1.0, 2.0])
