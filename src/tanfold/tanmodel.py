"""The tangent law for eigenvalue shifts between bare and effective kernels.

The model relates aligned eigenvalues through

    eps_D_i = eps_B_i * (1 + amplitude * tan(rate * (i - center)))

with the 1-based index ``i`` ordered by descending bare eigenvalue.  Fitting
is least squares on the relative shifts ``(eps_D - eps_B)/eps_B``: a coarse
deterministic grid over (rate, center) with the closed-form optimal amplitude
at each grid point, followed by Gauss-Newton refinement of all three
parameters.  The tan argument is kept a safe margin away from the +-pi/2
singularities throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TanFit", "fit_tan", "eval_tan"]

#: |rate * (i - center)| must stay below pi/2 minus this margin.
SINGULARITY_MARGIN = 1e-3

#: Bare eigenvalues below this fraction of the largest magnitude are excluded.
RATIO_FLOOR = 1e-8

_RATE_GRID_LO = 1e-4
_N_RATE = 32
_N_CENTER = 64


@dataclass(frozen=True)
class TanFit:
    """Fitted tangent-law parameters.

    ``residual`` is the root-mean-square misfit over the included indices.
    ``degenerate`` marks an all-zero ratio input, where only the amplitude
    (zero) is meaningful and rate/center are grid defaults.  ``converged``
    is False when the refinement hit its iteration limit.
    """

    rate: float
    amplitude: float
    center: float
    residual: float
    n_points: int
    degenerate: bool = False
    converged: bool = True


def eval_tan(fit: TanFit, index) -> np.ndarray | float:
    """Relative shift predicted at ``index`` (scalar or array, 1-based)."""
    index = np.asarray(index, dtype=np.float64)
    arg = fit.rate * (index - fit.center)
    if np.abs(arg).max(initial=0.0) >= math.pi / 2 - SINGULARITY_MARGIN:
        raise ValueError("tan argument within the singularity margin of pi/2")
    out = fit.amplitude * np.tan(arg)
    return float(out) if out.ndim == 0 else out


def _ratios_from_pairs(pairs, floor_rel):
    arr = np.asarray(list(pairs), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("pairs must be (index, eps_B, eps_D) triples")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 eigenvalue pairs to fit")
    idx, eps_b, eps_d = arr.T
    floor = floor_rel * np.abs(eps_b).max()
    keep = np.abs(eps_b) >= floor
    if keep.sum() < 3:
        raise ValueError("fewer than 3 pairs above the eigenvalue floor")
    return idx[keep], (eps_d[keep] - eps_b[keep]) / eps_b[keep]


def _sse(amp, tans, ratios):
    r = amp * tans - ratios
    return float(r @ r)


def fit_tan(pairs, *, floor_rel: float = RATIO_FLOOR, max_iter: int = 200) -> TanFit:
    """Fit the tangent law to aligned eigenvalue pairs.

    Parameters
    ----------
    pairs : iterable of (index, eps_B, eps_D)
        1-based indices with the matched bare/effective eigenvalues, e.g.
        ``DifferenceTable.pairs()``.
    floor_rel : float
        Exclude pairs with ``|eps_B|`` below this fraction of the maximum.
    max_iter : int
        Gauss-Newton iteration cap.

    The coarse stage scans ``_N_CENTER`` centers linearly over the index
    range and, per center, ``_N_RATE`` log-spaced rates up to the largest
    singularity-free value, keeping only cells that pass the refinement's
    strict argument test; the best cell (ties broken toward the lowest
    rate, then lowest center) seeds the refinement.
    """
    idx, ratios = _ratios_from_pairs(pairs, floor_rel)
    n = idx.size
    ell = idx.max()

    if not ratios.any():
        return TanFit(
            rate=_RATE_GRID_LO,
            amplitude=0.0,
            center=1.0,
            residual=0.0,
            n_points=n,
            degenerate=True,
        )

    arg_cap = math.pi / 2 - SINGULARITY_MARGIN

    # -- coarse grid ----------------------------------------------------------
    best = None  # (sse, rate, center, amp)
    for center in np.linspace(1.0, ell, _N_CENTER):
        dmax = np.abs(idx - center).max()
        rate_hi = arg_cap / dmax if dmax > 0 else arg_cap
        if rate_hi <= _RATE_GRID_LO:
            continue
        for rate in np.geomspace(_RATE_GRID_LO, rate_hi, _N_RATE):
            arg = rate * (idx - center)
            # the top rate can round onto the cap, where no step is accepted
            if np.abs(arg).max() >= arg_cap:
                continue
            tans = np.tan(arg)
            denom = tans @ tans
            amp = (ratios @ tans) / denom if denom > 0 else 0.0
            key = (_sse(amp, tans, ratios), rate, center)
            if best is None or key < best[:3]:
                best = (*key, amp)
    if best is None:
        raise ValueError("no singularity-free grid cell for the given indices")
    sse, rate, center, amp = best

    # -- Gauss-Newton refinement on (rate, amplitude, center) ------------------
    converged = False
    for _ in range(max_iter):
        arg = rate * (idx - center)
        tans = np.tan(arg)
        sec2 = 1.0 + tans * tans
        resid = amp * tans - ratios
        jac = np.column_stack(
            [
                amp * (idx - center) * sec2,  # d/d rate
                tans,                         # d/d amplitude
                -amp * rate * sec2,           # d/d center
            ]
        )
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        # backtrack: keep the argument singularity-free and the SSE decreasing
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

    if rate < 0:  # tan is odd: fold the sign into the amplitude
        rate, amp = -rate, -amp
    return TanFit(
        rate=float(rate),
        amplitude=float(amp),
        center=float(center),
        residual=math.sqrt(sse / n),
        n_points=n,
        degenerate=False,
        converged=converged,
    )
