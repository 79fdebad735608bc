import math
import warnings

import numpy as np
import pytest

from tanfold import presets
from tanfold.spectral import align_eigensystems, eig_sym, eigen_differences
from tanfold.synth import plant_series
from tanfold.tanmodel import (
    _N_CENTER,
    _N_RATE,
    _RATE_GRID_LO,
    RATIO_FLOOR,
    SINGULARITY_MARGIN,
    TanFit,
    _grid_seed,
    _ratios_from_pairs,
    eval_tan,
    fit_tan,
)

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

    def test_one_repeated_index(self):
        # every tangent is the same number: the grid already fits the mean
        pairs = [(5.0, 1.0, 1.1), (5.0, 1.0, 1.2), (5.0, 1.0, 1.05)]
        fit = fit_tan(pairs)
        assert fit.converged is True
        assert abs(fit.residual - np.std([0.1, 0.2, 0.05])) < 1e-12

    def test_too_few_pairs(self):
        # no pair at all (an empty or fully flagged table) gives the same
        # message as one or two
        for pairs in ([(1.0, 1.0, 1.1), (2.0, 0.9, 0.95)], [(1.0, 1.0, 1.1)], []):
            with pytest.raises(ValueError, match="need at least 3 eigenvalue pairs"):
                fit_tan(pairs)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pair_rejected(self, column, value):
        pairs = [list(p) for p in make_pairs(16, 2.0e-2, 2.0e-4, 7.5)]
        pairs[5][column] = value
        with pytest.raises(ValueError, match="eigenvalue pairs must be finite") as err:
            fit_tan(pairs)
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_all_zero_bare_eigenvalues_rejected(self):
        # the floor is 0 and every ratio inf or nan: no law to fit
        for eps_d in (1.0, 0.0):
            with pytest.raises(ValueError, match="every bare eigenvalue is zero") as err:
                fit_tan([(1, 0, eps_d), (2, 0, eps_d), (3, 0, eps_d)])
            assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            fit_tan([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])

    def test_best_cell_on_top_rate_stays_evaluable(self):
        # A law whose rate is the coarse grid's top rate at center 1: its
        # farthest argument lands on the singularity cap, which the grid must
        # not offer as a seed the refinement cannot leave.
        cap = math.pi / 2 - SINGULARITY_MARGIN
        idx = np.arange(1, 33, dtype=np.float64)
        rate = np.geomspace(_RATE_GRID_LO, cap / 31.0, _N_RATE)[-1]
        assert np.abs(rate * (idx - 1.0)).max() >= cap
        fit = fit_tan([(i, 1.0, 1.0 + 0.02 * math.tan(rate * (i - 1.0))) for i in idx])
        assert np.abs(fit.rate * (idx - fit.center)).max() < cap
        assert np.all(np.isfinite(eval_tan(fit, idx)))


# ---------------------------------------------------------------------------
# reference: the coarse grid evaluated cell by cell, then Gauss-Newton on
# all three parameters (amplitude included) with a 30-halving search
# ---------------------------------------------------------------------------

def _sse(amp, tans, ratios):
    r = amp * tans - ratios
    return float(r @ r)


def _reference_grid(idx, ratios):
    arg_cap = math.pi / 2 - SINGULARITY_MARGIN
    best = None  # (sse, rate, center, amp)
    for center in np.linspace(1.0, idx.max(), _N_CENTER):
        dmax = np.abs(idx - center).max()
        rate_hi = arg_cap / dmax if dmax > 0 else arg_cap
        if rate_hi <= _RATE_GRID_LO:
            continue
        for rate in np.geomspace(_RATE_GRID_LO, rate_hi, _N_RATE):
            arg = rate * (idx - center)
            if np.abs(arg).max() >= arg_cap:
                continue
            tans = np.tan(arg)
            denom = tans @ tans
            amp = (ratios @ tans) / denom if denom > 0 else 0.0
            key = (_sse(amp, tans, ratios), rate, center)
            if best is None or key < best[:3]:
                best = (*key, amp)
    return best


def gauss_newton_fit_tan(pairs, *, floor_rel=RATIO_FLOOR, max_iter=200):
    idx, ratios = _ratios_from_pairs(pairs, floor_rel)
    arg_cap = math.pi / 2 - SINGULARITY_MARGIN
    sse, rate, center, amp = _reference_grid(idx, ratios)
    converged = False
    for _ in range(max_iter):
        arg = rate * (idx - center)
        tans = np.tan(arg)
        sec2 = 1.0 + tans * tans
        resid = amp * tans - ratios
        jac = np.column_stack(
            [amp * (idx - center) * sec2, tans, -amp * rate * sec2]
        )
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        scale = 1.0
        improved = False
        for _ in range(30):
            cand = (rate + scale * step[0], amp + scale * step[1], center + scale * step[2])
            args = cand[0] * (idx - cand[2])
            if np.abs(args).max() < arg_cap:
                cand_sse = _sse(cand[1], np.tan(args), ratios)
                if cand_sse <= sse:
                    rate, amp, center = cand
                    moved = cand_sse < sse * (1 - 1e-15)
                    sse = cand_sse
                    improved = True
                    break
            scale *= 0.5
        if not improved or not moved:
            converged = True
            break
        if np.abs(step * scale).max() < 1e-15 * max(abs(rate), abs(center), 1.0):
            converged = True
            break
    if rate < 0:
        rate, amp = -rate, -amp
    return TanFit(float(rate), float(amp), float(center), math.sqrt(sse / idx.size),
                  idx.size, False, converged)


PLANTED_LAWS = [
    (300, REF_RATE, REF_AMP, REF_CENTER),
    (300, REF_RATE, -REF_AMP, REF_CENTER),
    (64, 2.0e-2, 2.0e-4, 31.9),
    (128, 8.0e-3, 5.0e-5, 70.2),
    (300, 4.0e-3, 1.0e-3, 120.0),
]


def _noisy(pairs, noise, seed):
    idx, eps_b, eps_d = map(np.array, zip(*pairs))
    eps_d = eps_d + np.random.default_rng(seed).normal(0.0, noise, eps_d.size) * eps_b
    return list(zip(idx, eps_b, eps_d))


def _linear_pairs(ell, slope, zero):
    idx = np.arange(1, ell + 1, dtype=np.float64)
    return list(zip(idx, np.ones(ell), 1.0 + slope * (idx - zero)))


def _residual_not_worse(fit, ref):
    return fit.residual <= ref.residual * (1 + 1e-9) or max(fit.residual, ref.residual) < 1e-12


class TestMatchesGaussNewton:
    def _assert_same_law(self, pairs):
        fit, ref = fit_tan(pairs), gauss_newton_fit_tan(pairs)
        assert fit.converged and ref.converged
        for name in ("rate", "center", "amplitude"):
            got, want = getattr(fit, name), getattr(ref, name)
            assert abs(got - want) <= 1e-9 * abs(want), (name, got, want)
        assert _residual_not_worse(fit, ref)

    @pytest.mark.parametrize("law", PLANTED_LAWS)
    def test_planted_laws(self, law):
        self._assert_same_law(make_pairs(*law))

    @pytest.mark.parametrize("law", PLANTED_LAWS)
    @pytest.mark.parametrize("noise", [1e-6, 1e-4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noisy_plants(self, law, noise, seed):
        # noise relative to the planted amplitude, on every relative shift
        self._assert_same_law(_noisy(make_pairs(*law), noise * abs(law[2]), seed))

    def test_check5_default_h4_plant(self):
        plant = plant_series(presets.plant_preset("default-h4"))
        alignment = align_eigensystems(eig_sym(plant.w_bare), eig_sym(plant.w_eff))
        self._assert_same_law(eigen_differences(alignment).pairs())


class TestGrid:
    @pytest.mark.parametrize(
        "pairs",
        [make_pairs(*law) for law in PLANTED_LAWS]
        + [_noisy(make_pairs(*PLANTED_LAWS[0]), 1e-6, 3), _linear_pairs(300, 1e-3, 120.5)],
    )
    def test_blocks_pick_the_reference_cell(self, pairs):
        idx, ratios = _ratios_from_pairs(pairs, RATIO_FLOOR)
        sse, rate, center, amp = _grid_seed(idx, ratios)
        ref = _reference_grid(idx, ratios)
        assert (rate, center) == (ref[1], ref[2])
        assert abs(sse - ref[0]) <= 1e-12 * ref[0]
        assert abs(amp - ref[3]) <= 1e-12 * abs(ref[3])


class TestFlatValley:
    @pytest.mark.parametrize("ell,slope,zero", [(300, 1e-3, 120.5), (300, -2e-5, 10.0), (32, 1e-2, 16.0)])
    def test_linear_ratios_give_a_finite_law(self, ell, slope, zero):
        pairs = _linear_pairs(ell, slope, zero)
        fit = fit_tan(pairs)
        assert all(map(math.isfinite, (fit.rate, fit.center, fit.amplitude, fit.residual)))
        curve = eval_tan(fit, np.arange(1, ell + 1, dtype=np.float64))
        assert np.all(np.isfinite(curve))
        assert _residual_not_worse(fit, gauss_newton_fit_tan(pairs))

    @pytest.mark.parametrize("ell,shift", [(300, 3e-4), (32, 0.5)])
    def test_constant_ratios_give_a_finite_law(self, ell, shift):
        # the constant is the limit of a center running off to infinity; no
        # step may land on rate 0, where the center is undefined
        idx = np.arange(1, ell + 1, dtype=np.float64)
        pairs = [(i, 1.0, 1.0 + shift) for i in idx]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_tan(pairs)
            curve = eval_tan(fit, idx)
        assert fit.converged and fit.rate > 0
        assert np.all(np.isfinite(curve))
        assert _residual_not_worse(fit, gauss_newton_fit_tan(pairs))

    def test_the_rate_falls_toward_the_linear_limit(self):
        # amplitude * rate stays at the slope while the rate falls
        fit = fit_tan(_linear_pairs(300, 1e-3, 120.5))
        assert fit.rate < 1e-6
        assert abs(fit.amplitude * fit.rate - 1e-3) < 1e-6


class TestSingularityCap:
    def _law_near_the_pole(self, ell, center, gap):
        # the farthest index sits ``gap`` short of the pole at pi/2
        rate = (math.pi / 2 - gap) / max(center - 1.0, ell - center)
        return rate, make_pairs(ell, rate, 0.02, center)

    def test_optimum_on_the_cap(self):
        # the planted argument passes the cap, so the best feasible law sits
        # on it: the refinement slides along the cap instead of stopping
        _, pairs = self._law_near_the_pole(32, 20.0, 5e-4)
        fit, ref = fit_tan(pairs), gauss_newton_fit_tan(pairs)
        idx = np.arange(1.0, 33.0)
        arg = np.abs(fit.rate * (idx - fit.center)).max()
        assert math.pi / 2 - SINGULARITY_MARGIN - 1e-6 < arg < math.pi / 2 - SINGULARITY_MARGIN
        assert np.all(np.isfinite(eval_tan(fit, idx)))
        assert fit.converged
        assert fit.residual < 0.9 * ref.residual

    def test_law_just_inside_the_cap_is_recovered(self):
        rate, pairs = self._law_near_the_pole(300, 149.8, 0.01)
        fit = fit_tan(pairs)
        assert fit.converged
        assert abs(fit.rate - rate) < 1e-9 * rate
        assert abs(fit.center - 149.8) < 1e-9 * 149.8
        assert abs(fit.amplitude - 0.02) < 1e-9 * 0.02
        assert fit.residual < 1e-12


class TestIterationCap:
    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_cap_reports_not_converged(self, max_iter):
        pairs = _noisy(make_pairs(*PLANTED_LAWS[2]), 1e-6, 0)
        assert fit_tan(pairs).converged
        assert not fit_tan(pairs, max_iter=max_iter).converged

    def test_flat_valley_cap(self):
        fit = fit_tan(_linear_pairs(300, 1e-3, 120.5), max_iter=3)
        assert not fit.converged
        assert np.all(np.isfinite(eval_tan(fit, np.arange(1.0, 301.0))))
