import math

import numpy as np
import pytest

from tanfold.tanmodel import TanFit, eval_tan, fit_tan

REF_RATE, REF_AMP, REF_CENTER = 1.0e-2, 0.6e-4, 149.8


def make_pairs(ell, rate, amp, center, spectrum_lo=0.05):
    """Exact (index, eps_B, eps_D) triples from a planted tangent law."""
    idx = np.arange(1, ell + 1, dtype=np.float64)
    eps_b = np.geomspace(1.0, spectrum_lo, ell)
    eps_d = eps_b * (1.0 + amp * np.tan(rate * (idx - center)))
    return list(zip(idx, eps_b, eps_d))


class TestEvalTan:
    # frozen: amp * tan(rate * (i - center)) at the reference parameters
    FROZEN = {
        1: -0.0007230131454237718,
        150: 1.200001600002492e-07,
        300: 0.0008707632255710116,
    }

    def test_frozen_values(self):
        fit = TanFit(REF_RATE, REF_AMP, REF_CENTER, 0.0, 300)
        for i, want in self.FROZEN.items():
            assert math.isclose(eval_tan(fit, i), want, rel_tol=1e-13)

    def test_vector_matches_scalars(self):
        fit = TanFit(REF_RATE, REF_AMP, REF_CENTER, 0.0, 300)
        idx = np.array(sorted(self.FROZEN))
        out = eval_tan(fit, idx)
        assert out.shape == (3,)
        for i, v in zip(idx, out):
            assert v == eval_tan(fit, float(i))

    def test_singularity_margin_raises(self):
        # rate * (i - center) crosses pi/2 - margin just below i = 307
        fit = TanFit(REF_RATE, REF_AMP, REF_CENTER, 0.0, 300)
        assert eval_tan(fit, 306) < 0.1
        with pytest.raises(ValueError):
            eval_tan(fit, 307)


class TestExactRecovery:
    def test_reference_parameters_ell_300(self):
        fit = fit_tan(make_pairs(300, REF_RATE, REF_AMP, REF_CENTER))
        assert not fit.degenerate
        assert fit.converged
        assert abs(fit.rate - REF_RATE) < 1e-6
        assert abs(fit.center - REF_CENTER) < 1e-3
        assert abs(fit.amplitude - REF_AMP) / REF_AMP < 1e-6
        assert fit.residual < 1e-14
        assert fit.n_points == 300

    @pytest.mark.parametrize(
        "ell,rate,amp,center",
        [
            (64, 2.0e-2, 2.0e-4, 31.9),
            (128, 8.0e-3, 5.0e-5, 70.2),
            (300, 4.0e-3, 1.0e-3, 120.0),
        ],
    )
    def test_planted_grids(self, ell, rate, amp, center):
        fit = fit_tan(make_pairs(ell, rate, amp, center))
        assert abs(fit.rate - rate) / rate < 1e-6
        assert abs(fit.center - center) < 1e-3
        assert abs(fit.amplitude - amp) / amp < 1e-6
        assert fit.residual < 1e-12

    def test_negative_amplitude(self):
        fit = fit_tan(make_pairs(300, REF_RATE, -REF_AMP, REF_CENTER))
        assert fit.rate > 0
        assert abs(fit.amplitude + REF_AMP) / REF_AMP < 1e-6
        assert abs(fit.center - REF_CENTER) < 1e-3

    def test_deterministic(self):
        pairs = make_pairs(300, REF_RATE, REF_AMP, REF_CENTER)
        assert fit_tan(pairs) == fit_tan(pairs)


class TestRobustness:
    def test_small_noise_small_parameter_moves(self):
        rng = np.random.default_rng(7)
        pairs = make_pairs(300, REF_RATE, REF_AMP, REF_CENTER)
        idx, eps_b, eps_d = map(np.array, zip(*pairs))
        eps_d = eps_d + rng.normal(0.0, 1e-6, eps_d.size) * eps_b
        fit = fit_tan(zip(idx, eps_b, eps_d))
        assert abs(fit.rate - REF_RATE) / REF_RATE < 0.10
        assert abs(fit.center - REF_CENTER) / REF_CENTER < 0.10
        assert abs(fit.amplitude - REF_AMP) / REF_AMP < 0.10

    def test_power_of_two_scaling_is_exact(self):
        # scaling eps_B and eps_D by 4 shifts exponents only, so the
        # relative shifts and hence the whole fit are bit-identical
        pairs = make_pairs(128, 8.0e-3, 5.0e-5, 70.2)
        scaled = [(i, 4.0 * b, 4.0 * d) for i, b, d in pairs]
        assert fit_tan(pairs) == fit_tan(scaled)


class TestEdgeCases:
    def test_identical_spectra_degenerate(self):
        idx = np.arange(1, 65, dtype=np.float64)
        eps = np.geomspace(1.0, 0.05, 64)
        fit = fit_tan(zip(idx, eps, eps.copy()))
        assert fit.degenerate
        assert fit.amplitude == 0.0
        assert fit.residual == 0.0
        assert fit.rate == 1e-4
        assert fit.center == 1.0

    def test_floor_excludes_tiny_bare_eigenvalues(self):
        pairs = make_pairs(64, 2.0e-2, 2.0e-4, 31.9)
        # a junk pair far below the floor must not perturb the fit
        pairs.append((65.0, 1e-12, 5.0))
        fit = fit_tan(pairs)
        assert fit.n_points == 64
        assert abs(fit.rate - 2.0e-2) / 2.0e-2 < 1e-6

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_tan([(1.0, 1.0, 1.1), (2.0, 0.9, 0.95)])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            fit_tan([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])

    def test_best_cell_on_top_rate_stays_evaluable(self):
        # A law whose rate is the coarse grid's top rate at center 1: its
        # farthest argument lands on the singularity cap, which the grid must
        # not offer as a seed the refinement cannot leave.
        from tanfold.tanmodel import SINGULARITY_MARGIN, _N_RATE, _RATE_GRID_LO

        cap = math.pi / 2 - SINGULARITY_MARGIN
        idx = np.arange(1, 33, dtype=np.float64)
        rate = np.geomspace(_RATE_GRID_LO, cap / 31.0, _N_RATE)[-1]
        assert np.abs(rate * (idx - 1.0)).max() >= cap
        fit = fit_tan([(i, 1.0, 1.0 + 0.02 * math.tan(rate * (i - 1.0))) for i in idx])
        assert np.abs(fit.rate * (idx - fit.center)).max() < cap
        assert np.all(np.isfinite(eval_tan(fit, idx)))
