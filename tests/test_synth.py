import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tanfold.heads import eval_bare_two, eval_eff_two, eval_one
from tanfold.nn import scale_geometry
from tanfold.synth import PlantSpec, plant_series, save_plant
from tanfold.tensors import Kind, load_series

SMALL = PlantSpec(
    n_orb=4,
    ell=64,
    geometries=tuple(np.linspace(1.8, 3.0, 5).tolist()),
    rate=2.0e-2,
    amplitude=2.0e-4,
    center=31.9,
    seed=3,
)


class TestPlantSpec:
    def test_default_is_valid(self):
        spec = PlantSpec()
        assert spec.ell == 300
        assert spec.rate == 1.0e-2
        assert spec.amplitude == 0.6e-4
        assert spec.center == 149.8

    def test_tan_argument_range_enforced(self):
        with pytest.raises(ValueError, match="tangent argument"):
            PlantSpec(ell=300, rate=2.0e-2, center=150.0)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PlantSpec(n_orb=0)
        with pytest.raises(ValueError):
            PlantSpec(noise=-1.0)
        with pytest.raises(ValueError):
            PlantSpec(geometries=(1.0, 1.0))
        with pytest.raises(ValueError):
            PlantSpec(spectrum_lo=0.0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            PlantSpec(seed=-1)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rate", "amplitude", "center", "eta", "noise",
                                      "target_rms", "fourier_scale", "geometries"])
    def test_rejects_non_finite_fields(self, name, value):
        setting = (1.8, value, 3.0) if name == "geometries" else value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PlantSpec(**{name: setting})

class TestPlantSeries:
    def test_spectral_round_trip(self):
        res = plant_series(SMALL)
        for bare, eff in ((res.w_bare, res.w_eff), (res.m_bare, res.m_eff)):
            eps_b = np.linalg.eigvalsh(bare.matrix)[::-1]
            eps_d = np.linalg.eigvalsh(eff.matrix)[::-1]
            assert np.abs(eps_d / eps_b - res.tan_factors).max() < 1e-12

    def test_series_is_complete_and_validated(self):
        res = plant_series(SMALL)
        assert np.array_equal(res.series.geometries(), sorted(SMALL.geometries))
        for r in res.series.geometries():
            for kind in (Kind.BARE, Kind.EFFECTIVE):
                ts = res.series.get(r, kind)
                assert ts.n_orb == SMALL.n_orb
                assert np.isfinite(ts.two_body).all()

    def test_effective_breaks_eight_fold(self):
        res = plant_series(SMALL)
        ts = res.series.get(res.series.geometries()[0], Kind.EFFECTIVE)
        assert ts.two_body[0, 1, 0, 1] != ts.two_body[0, 1, 1, 0]

    def test_zero_deformation_collapses_to_bare_form(self):
        spec = PlantSpec(
            n_orb=3, ell=32, geometries=(1.0, 2.0, 3.0),
            rate=2.0e-2, amplitude=1.0e-4, center=16.0, eta=0.0, seed=1,
        )
        res = plant_series(spec)
        from tanfold.synth import _basis_row

        phi = res.coef_phi @ _basis_row(scale_geometry((1.0, 3.0), 1.0))
        eff = res.series.get(1.0, Kind.EFFECTIVE).two_body
        want = np.empty_like(eff)
        for idx in np.ndindex(*eff.shape):
            want[idx] = eval_bare_two(*(phi[i] for i in idx), res.w_eff)
        assert np.abs(eff - want).max() <= 1e-13 * np.abs(want).max()

    def test_planted_entries_match_scalar_heads(self):
        # every entry of all four tensors against the scalar reference heads
        spec = PlantSpec(
            n_orb=4, ell=24, geometries=(1.0, 1.7, 3.0),
            rate=2.0e-2, amplitude=1.0e-3, center=12.0, eta=0.05, seed=2,
        )
        res = plant_series(spec)
        from tanfold.synth import _basis_row

        for r in spec.geometries:
            row = _basis_row(scale_geometry((1.0, 3.0), r))
            phi, psi = res.coef_phi @ row, res.coef_psi @ row
            phit = phi * (1.0 + spec.eta * (res.coef_deform @ row))
            for kind, m, w in ((Kind.BARE, res.m_bare, res.w_bare),
                               (Kind.EFFECTIVE, res.m_eff, res.w_eff)):
                tset = res.series.get(r, kind)
                want_one = np.empty_like(tset.one_body)
                for p, q in np.ndindex(*want_one.shape):
                    want_one[p, q] = eval_one(psi[p], psi[q], m)
                want_two = np.empty_like(tset.two_body)
                for idx in np.ndindex(*want_two.shape):
                    f = [phi[i] for i in idx]
                    want_two[idx] = (
                        eval_bare_two(*f, w) if kind is Kind.BARE
                        else eval_eff_two(*f, *(phit[i] for i in idx), w)
                    )
                for got, want in ((tset.one_body, want_one), (tset.two_body, want_two)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_bare_entry_scale_near_target(self):
        res = plant_series(SMALL)
        vals = np.concatenate(
            [ts.two_body.ravel() for ts in res.series.of_kind(Kind.BARE)]
        )
        rms = math.sqrt(float(np.mean(vals**2)))
        assert 0.1 < rms < 1.0

    def test_deterministic_under_seed(self):
        a = plant_series(SMALL)
        b = plant_series(SMALL)
        assert np.array_equal(a.w_eff.matrix, b.w_eff.matrix)
        for ta, tb in zip(a.series.tensor_sets, b.series.tensor_sets):
            assert np.array_equal(ta.two_body, tb.two_body)
            assert np.array_equal(ta.one_body, tb.one_body)

    def test_noise_perturbs_but_keeps_symmetry(self):
        clean = plant_series(SMALL)
        noisy_spec = PlantSpec(**{**SMALL.__dict__, "noise": 1e-3})
        noisy = plant_series(noisy_spec)
        g = clean.series.geometries()[0]
        a = clean.series.get(g, Kind.BARE).two_body
        b = noisy.series.get(g, Kind.BARE).two_body
        delta = b - a
        assert 1e-5 < np.abs(delta).max() < 1e-2
        # noise is drawn per canonical entry, so symmetry survives exactly
        assert np.array_equal(b, b.transpose(1, 0, 2, 3))
        assert np.array_equal(b, b.transpose(2, 3, 0, 1))

    def test_save_plant_round_trips_series_and_provenance(self, tmp_path):
        res = plant_series(
            PlantSpec(n_orb=2, ell=16, geometries=(1.0, 2.0),
                      rate=3e-2, amplitude=1e-4, center=8.0, seed=5)
        )
        save_plant(res, tmp_path)
        loaded = load_series(tmp_path)
        for ts, orig in zip(loaded.tensor_sets, res.series.tensor_sets):
            assert np.array_equal(ts.two_body, orig.two_body)
        assert os.path.exists(tmp_path / "plant.json")
        with np.load(tmp_path / "provenance.npz") as prov:
            assert np.array_equal(prov["w_bare"], res.w_bare.matrix)
            assert np.array_equal(prov["tan_factors"], res.tan_factors)


class TestToyIntegrals:
    # the 1-D quadrature generator this class once tested is gone; its
    # import-cost guard stays: scipy.signal costs about a second to
    # import, which every process importing the package would pay

    def test_package_import_leaves_scipy_signal_unloaded(self):
        import tanfold

        src = os.path.dirname(os.path.dirname(tanfold.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        code = "import sys, tanfold; assert 'scipy.signal' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
