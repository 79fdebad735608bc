"""The tangent law for eigenvalue shifts between bare and effective kernels.

The model relates aligned eigenvalues through

    eps_D_i = eps_B_i * (1 + amplitude * tan(rate * (i - center)))

with the 1-based index ``i`` ordered by descending bare eigenvalue.  Fitting
is least squares on the relative shifts ``y = (eps_D - eps_B)/eps_B``.  The
amplitude enters linearly, so at every (rate, center) it is the closed-form
projection ``t.y / t.t`` of the tangents ``t`` (variable projection: Golub &
Pereyra, SIAM J. Numer. Anal. 10, 1973), and only (rate, center) are
searched: first on a coarse deterministic grid, then by Levenberg-Marquardt
with Kaufman's Jacobian (BIT 15, 1975).  The tan argument is kept a safe
margin away from the +-pi/2 singularities throughout.

Where the data do not determine the law, e.g. where the shifts are nearly
linear in the index, the refinement follows a flat valley toward the linear
limit: the rate falls toward zero while amplitude * rate stays fixed, at an
almost unchanged residual.
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
_ARG_CAP = math.pi / 2 - SINGULARITY_MARGIN

#: Levenberg-Marquardt damping: the first value, and the factor by which a
#: rejected step raises it and an accepted step lowers it
_LAMBDA_INIT = 1e-3
_LAMBDA_FACTOR = 10.0
#: an accepted step lowering the SSE by less than this share of it ends the fit
_REL_DECREASE = 1e-12


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
    if np.abs(arg).max(initial=0.0) >= _ARG_CAP:
        raise ValueError("tan argument within the singularity margin of pi/2")
    out = fit.amplitude * np.tan(arg)
    return float(out) if out.ndim == 0 else out


def _ratios_from_pairs(pairs, floor_rel):
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 eigenvalue pairs to fit")
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("pairs must be (index, eps_B, eps_D) triples")
    if not np.isfinite(arr).all():
        raise ValueError("eigenvalue pairs must be finite")
    idx, eps_b, eps_d = arr.T
    if not eps_b.any():
        raise ValueError("every bare eigenvalue is zero")
    floor = floor_rel * np.abs(eps_b).max()
    keep = np.abs(eps_b) >= floor
    if keep.sum() < 3:
        raise ValueError("fewer than 3 pairs above the eigenvalue floor")
    return idx[keep], (eps_d[keep] - eps_b[keep]) / eps_b[keep]


def _project(rate, center, idx, ratios):
    """The variable-projection state at (rate, center): the tangents, the
    closed-form amplitude, the residual and the SSE; None where the argument
    reaches the singularity cap or every tangent vanishes."""
    arg = rate * (idx - center)
    if np.abs(arg).max() >= _ARG_CAP:
        return None
    tans = np.tan(arg)
    denom = tans @ tans
    if not denom > 0.0:
        return None
    amp = (ratios @ tans) / denom
    resid = amp * tans - ratios
    return tans, amp, resid, float(resid @ resid)


def _grid_seed(idx, ratios):
    """The best coarse-grid cell as (sse, rate, center, amplitude), one
    (rate x index) block per center."""
    centers = np.linspace(1.0, idx.max(), _N_CENTER)
    dmax = np.abs(np.subtract.outer(centers, idx)).max(axis=1)
    rate_hi = np.divide(_ARG_CAP, dmax, out=np.full_like(dmax, _ARG_CAP), where=dmax > 0)
    live = rate_hi > _RATE_GRID_LO
    rate_rows = np.geomspace(_RATE_GRID_LO, rate_hi[live], _N_RATE, axis=1)
    best = None
    for center, d, rates in zip(centers[live], dmax[live], rate_rows):
        # |rate * (i - center)| peaks at the farthest index; the top rate can
        # round onto the cap, where no step is accepted
        rates = rates[rates * d < _ARG_CAP]
        if not rates.size:
            continue
        tans = np.tan(np.multiply.outer(rates, idx - center))
        denom = np.einsum("ij,ij->i", tans, tans)
        amps = np.divide(tans @ ratios, denom, out=np.zeros_like(denom), where=denom > 0)
        resid = np.multiply(amps[:, None], tans, out=tans)
        resid -= ratios
        sses = np.einsum("ij,ij->i", resid, resid)
        k = int(np.argmin(sses))  # the first minimum: the lowest rate on a tie
        key = (float(sses[k]), float(rates[k]), float(center))
        if best is None or key < best[:3]:
            best = (*key, float(amps[k]))
    if best is None:
        raise ValueError("no singularity-free grid cell for the given indices")
    return best


def fit_tan(pairs, *, max_iter: int = 200) -> TanFit:
    """Fit the tangent law to aligned eigenvalue pairs.

    Parameters
    ----------
    pairs : iterable of (index, eps_B, eps_D)
        1-based indices with the matched bare/effective eigenvalues, e.g.
        ``DifferenceTable.pairs()``.  Pairs with ``|eps_B|`` below
        ``RATIO_FLOOR`` of the maximum are excluded.
    max_iter : int
        Levenberg-Marquardt iteration cap.

    The amplitude is the closed-form projection ``t.y / t.t`` at every
    (rate, center).  The coarse stage scans ``_N_CENTER`` centers linearly
    over the index range and, per center, ``_N_RATE`` log-spaced rates up to
    the largest singularity-free value, keeping only cells whose argument
    stays strictly below the cap; the best cell (ties broken toward the
    lowest rate, then the lowest center) seeds Levenberg-Marquardt with
    Kaufman's Jacobian ``a (I - t t^T / t^T t) dt``.  The refinement moves
    (rate, center) through the tan arguments at the first and last index,
    ``u = rate * (i_min - center)`` and ``v = rate * (i_max - center)``:
    the argument is linear in the index, so the cap on every argument is the
    box ``|u|, |v| < cap``, and a step that leaves the box is clipped back
    onto it.  A step is accepted only if every argument stays below the cap
    and the SSE falls.  The fit is ``converged`` when no damping lowers the
    SSE or an accepted step lowers it by less than ``_REL_DECREASE`` of
    itself, and not converged when it stops at ``max_iter``.
    """
    idx, ratios = _ratios_from_pairs(pairs, RATIO_FLOOR)
    n = idx.size

    if not ratios.any():
        return TanFit(
            rate=_RATE_GRID_LO,
            amplitude=0.0,
            center=1.0,
            residual=0.0,
            n_points=n,
            degenerate=True,
        )

    sse, rate, center, amp = _grid_seed(idx, ratios)
    state = _project(rate, center, idx, ratios)
    lo, hi = float(idx.min()), float(idx.max())
    span = hi - lo
    # nothing to refine when every tangent is zero or every index equal
    converged = state is None or span == 0.0
    if not converged:
        weight = (idx - lo) / span
        u, v = rate * (lo - center), rate * (hi - center)
        bound = math.nextafter(_ARG_CAP, 0.0)
        lam = _LAMBDA_INIT
        for _ in range(max_iter):
            tans, amp, resid, sse = state
            sec2 = 1.0 + tans * tans
            dtans = np.column_stack([sec2 * (1.0 - weight), sec2 * weight])
            jac = amp * (dtans - np.outer(tans, (tans @ dtans) / (tans @ tans)))
            # Marquardt scaling: damp each parameter in units of its column norm
            scale = np.sqrt(np.einsum("ij,ij->j", jac, jac))
            scale[scale == 0.0] = 1.0
            left, sv, right = np.linalg.svd(jac / scale, full_matrices=False)
            grad = sv * (left.T @ resid)
            while True:
                step = (right.T @ (grad / (sv * sv + lam))) / scale
                cand_u = min(max(u - step[0], -bound), bound)
                cand_v = min(max(v - step[1], -bound), bound)
                if cand_u == u and cand_v == v:
                    cand = None
                    break
                if cand_u != cand_v:  # a zero rate leaves the center undefined
                    cand_rate = (cand_v - cand_u) / span
                    cand_center = lo - cand_u / cand_rate
                    cand = _project(cand_rate, cand_center, idx, ratios)
                    if cand is not None and cand[3] < sse:
                        break
                lam *= _LAMBDA_FACTOR
            if cand is None:
                converged = True
                break
            u, v, rate, center, state = cand_u, cand_v, cand_rate, cand_center, cand
            lam /= _LAMBDA_FACTOR
            if sse - cand[3] <= _REL_DECREASE * sse:
                converged = True
                break
        _, amp, _, sse = state

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
