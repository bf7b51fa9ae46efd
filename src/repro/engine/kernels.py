"""Array-level numeric kernels of the MCL filter.

Every arithmetic step of the filter loop — motion sampling, beam
transform + EDT lookup + log-likelihood, weight update, ESS, systematic
resampling, weighted pose estimate — lives here as a pure function over
raw arrays.  The ``core`` modules keep their public APIs but delegate the
math to these kernels, and the reference backend runs them; the
``fast`` backend's compiled stages (:mod:`repro.engine.fast_c`) restate
them row by row and are tested against them bit for bit.

Bitwise-reproducibility contract
--------------------------------
Backends are required to produce *identical* per-run results, so every
kernel is written to give the same floating-point answer whether it is
applied to one run's ``(N,)`` arrays or to a row of an ``(R, N)`` stack:

* elementwise ops (compose, transform, exp, casts) are trivially
  shape-independent;
* every order-sensitive reduction runs along the **last axis** through
  the explicit deterministic tree of :mod:`repro.engine.reductions`
  (``det_sum`` / ``det_dot`` / ``det_sum_squares``) — a documented
  chunk-of-8 reduction order that JIT/compiled backends replicate with
  a plain loop instead of reverse-engineering numpy's pairwise-sum
  blocking;
* order-dependent scans (``cumsum``/``searchsorted`` in the resampling
  wheel) are only ever invoked per run.

This contract is what lets the equivalence tests assert exact equality
between the reference and fast backends instead of fragile tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import ConfigurationError
from ..common.geometry import wrap_angle
from ..maps.distance_field import DistanceField
from .reductions import det_dot, det_sum, det_sum_squares

__all__ = [
    "sample_motion_noise",
    "compose_increment",
    "transform_endpoints",
    "beam_squared_sums",
    "beam_log_likelihoods",
    "likelihood_ratios",
    "posterior_log_weights",
    "normalize_weights",
    "effective_sample_size",
    "draw_wheel_offset",
    "systematic_resample",
    "weighted_mean_pose",
    "weighted_pose_spread",
]


# ----------------------------------------------------------------------
# Motion model
# ----------------------------------------------------------------------
def sample_motion_noise(
    rng: np.random.Generator, count: int, sigma_xy: float, sigma_theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one run's per-particle odometry noise (x, y, theta) triple.

    The three draws happen in this fixed order so every backend advances a
    run's RNG stream identically.
    """
    noise_x = rng.normal(0.0, sigma_xy, size=count)
    noise_y = rng.normal(0.0, sigma_xy, size=count)
    noise_theta = rng.normal(0.0, sigma_theta, size=count)
    return noise_x, noise_y, noise_theta


def compose_increment(
    x: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    dtheta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply body-frame increments to pose arrays of any leading shape.

    All inputs broadcast together; yaw is wrapped to ``[-pi, pi)``.  For
    ``(N,)`` inputs this is exactly :func:`repro.common.geometry.compose_arrays`.
    """
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    new_x = x + cos_t * dx - sin_t * dy
    new_y = y + sin_t * dx + cos_t * dy
    new_theta = wrap_angle(np.asarray(theta + dtheta))
    return new_x, new_y, new_theta


# ----------------------------------------------------------------------
# Observation model
# ----------------------------------------------------------------------
def transform_endpoints(
    x: np.ndarray,
    y: np.ndarray,
    cos_t: np.ndarray,
    sin_t: np.ndarray,
    end_x: np.ndarray,
    end_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map body-frame beam end points into the world frame.

    ``x, y`` and the yaw's ``cos_t, sin_t`` have shape ``(..., N)``;
    ``end_x, end_y`` shape ``(K,)``.  Returns two ``(..., N, K)`` arrays
    covering every (pose, end point) combination.

    The in-place formulation needs three full-size arrays instead of
    eight while producing bit-identical results: the only reassociation
    is ``x + cos*ex`` -> ``cos*ex + x``, and IEEE-754 addition is
    commutative.
    """
    cos_t = cos_t[..., None]
    sin_t = sin_t[..., None]
    # world_x = (x + cos_t * end_x) - sin_t * end_y
    world_x = cos_t * end_x
    world_x += x[..., None]
    product = sin_t * end_y
    world_x -= product
    # world_y = (y + sin_t * end_x) + cos_t * end_y
    world_y = sin_t * end_x
    world_y += y[..., None]
    world_y += np.multiply(cos_t, end_y, out=product)
    return world_x, world_y


def beam_squared_sums(
    x: np.ndarray,
    y: np.ndarray,
    cos_t: np.ndarray,
    sin_t: np.ndarray,
    end_x: np.ndarray,
    end_y: np.ndarray,
    field: DistanceField,
) -> np.ndarray:
    """Det-tree sum over beams of squared EDT distances, shape ``(..., N)``.

    Transforms every (pose, beam) end point into the map and looks up
    the truncated EDT; the yaw trig comes in already evaluated.
    """
    world_x, world_y = transform_endpoints(x, y, cos_t, sin_t, end_x, end_y)
    squared = field.lookup_squared_world(world_x, world_y)
    return np.asarray(det_sum(squared))


def beam_log_likelihoods(
    x: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    end_x: np.ndarray,
    end_y: np.ndarray,
    field: DistanceField,
    sigma_obs: float,
) -> np.ndarray:
    """Beam-end-point observation log-likelihood, shape ``(..., N)``.

    Sums ``-d^2 / (2 sigma_obs^2)`` over beams (the Gaussian
    normalization constant cancels during weight normalization).
    """
    log_lik = beam_squared_sums(
        x, y, np.cos(theta), np.sin(theta), end_x, end_y, field
    )
    np.negative(log_lik, out=log_lik)
    log_lik /= 2.0 * sigma_obs**2
    return log_lik


def likelihood_ratios(log_lik: np.ndarray, replication: float) -> np.ndarray:
    """Per-particle likelihood relative to the run's best, ``(..., N)``.

    Replicates the per-beam likelihood and subtracts the per-run max
    log-likelihood before exponentiating (so fp16 storage cannot
    underflow to all-zero).
    """
    log_lik = log_lik * replication
    log_lik = log_lik - log_lik.max(axis=-1, keepdims=True)
    return np.exp(log_lik)


def posterior_log_weights(
    weights: np.ndarray, log_lik: np.ndarray, replication: float
) -> np.ndarray:
    """Unnormalized posterior weights in float64, shape ``(..., N)``:
    the prior weights times :func:`likelihood_ratios`."""
    return np.asarray(weights, dtype=np.float64) * likelihood_ratios(
        log_lik, replication
    )


def normalize_weights(weights: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Normalize storage-precision weights in-place along the last axis.

    The sum runs in float64 through the deterministic tree (the paper's
    parallel implementation keeps a full-precision accumulator per core
    for the same reason).  Degenerate rows — all weights zero or
    non-finite — are reset to uniform: the filter lost, but must stay
    operational.  Returns the per-row pre-normalization sums (float64,
    shape ``(...)``).

    All arithmetic happens in-place on one float64 scratch buffer (plus
    the boolean masks): widen once, zero non-finite entries, divide by
    the per-row totals, overwrite degenerate rows with uniform, cast
    back — no full-size ``np.where`` temporaries.
    """
    count = weights.shape[-1]
    scratch = weights.astype(np.float64)  # the single float64 scratch
    finite = np.isfinite(scratch)
    if not finite.all():
        np.logical_not(finite, out=finite)
        scratch[finite] = 0.0
    totals = np.asarray(det_sum(scratch))
    degenerate = ~(totals > 0.0)
    if degenerate.any():
        safe = np.where(degenerate, 1.0, totals)  # (...) scalars, not (N,)
        scratch /= safe[..., None]
        np.copyto(scratch, 1.0 / count, where=degenerate[..., None])
    else:
        scratch /= totals[..., None]
    weights[...] = scratch.astype(dtype)
    return totals[()]


def effective_sample_size(weights: np.ndarray) -> np.ndarray | float:
    """ESS = 1 / sum(w^2) along the last axis; 0.0 for degenerate rows.

    Accepts ``(N,)`` (returns a float, matching
    :meth:`ParticleSet.effective_sample_size`) or ``(R, N)`` (returns an
    ``(R,)`` array with the identical per-row values).
    """
    as64 = weights.astype(np.float64)
    totals = np.asarray(det_sum(as64))[..., None]
    valid = totals > 0.0
    normalized = as64 / np.where(valid, totals, 1.0)
    squared = det_sum_squares(normalized)
    # A valid row's squared sum is >= 1/N > 0, so the guarded divide only
    # papers over rows already forced to ESS 0.
    ess = np.where(
        np.squeeze(valid, axis=-1), 1.0 / np.where(squared > 0.0, squared, 1.0), 0.0
    )
    if ess.ndim == 0:
        return float(ess)
    return ess


# ----------------------------------------------------------------------
# Systematic (wheel) resampling
# ----------------------------------------------------------------------
def draw_wheel_offset(rng: np.random.Generator, count: int) -> float:
    """Draw the single random number of systematic resampling.

    Returns ``u0`` uniform in ``[0, 1/N)``; arrow ``i`` then sits at
    normalized position ``u0 + i / N``.
    """
    return float(rng.uniform(0.0, 1.0 / count))


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Validate one run's weights and normalize them in float64."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ConfigurationError("weights must be a non-empty 1-D array")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ConfigurationError("weights must be finite and non-negative")
    total = float(det_sum(weights))
    if total <= 0:
        raise ConfigurationError("weights must not sum to zero")
    return weights / total


def systematic_resample(
    weights: np.ndarray, u0: float, validate: bool = True, normalized: bool = False
) -> np.ndarray:
    """Serial systematic resampling; returns N source indices.

    ``u0`` must lie in ``[0, 1/N)`` (use :func:`draw_wheel_offset`).
    The returned indices are non-decreasing, and each particle ``i`` is
    drawn either ``floor(N w_i)`` or ``ceil(N w_i)`` times — the classic
    low-variance guarantees.

    ``validate=False`` skips the input sanity checks (pure reads, no
    effect on the result); ``normalized=True`` additionally skips the
    renormalizing divide for callers whose weights are normalized by
    construction — every backend resamples through this fast path, and
    the guard ``cumulative[-1] = 1.0`` below absorbs the sub-ulp
    shortfall/overshoot of a stored-precision weight row exactly as it
    absorbs float64 rounding.
    """
    if normalized:
        weights = np.asarray(weights, dtype=np.float64)
    elif validate:
        weights = _normalized(weights)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        weights = weights / det_sum(weights)
    count = weights.size
    if validate and not 0.0 <= u0 < 1.0 / count:
        raise ConfigurationError(f"u0 must be in [0, 1/N), got {u0}")
    positions = u0 + np.arange(count, dtype=np.float64) / count
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against rounding shortfall
    return np.searchsorted(cumulative, positions, side="right").astype(np.int64)


# ----------------------------------------------------------------------
# Pose estimation
# ----------------------------------------------------------------------
def weighted_mean_pose(
    x: np.ndarray, y: np.ndarray, theta: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float, float, float]:
    """Weighted mean pose of one run's population.

    Returns ``(normalized_weights, mean_x, mean_y, mean_theta)``; the
    normalized float64 weights are handed back so spread statistics can
    reuse them.  A degenerate population falls back to the unweighted
    mean, exactly like the filter's defensive re-normalization.
    """
    weights = weights.astype(np.float64)
    total = float(det_sum(weights))
    if total <= 0 or not np.isfinite(total):
        weights = np.full(x.size, 1.0 / x.size)
    else:
        weights = weights / total
    mean_x = float(det_dot(weights, x))
    mean_y = float(det_dot(weights, y))
    mean_theta = _circular_mean_det(theta, weights)
    return weights, mean_x, mean_y, mean_theta


def _circular_mean_det(theta: np.ndarray, weights: np.ndarray) -> float:
    """:func:`repro.common.geometry.circular_mean` with det-tree reductions.

    Identical guards and operation order to the scalar helper — only the
    three reductions (weight total, weighted sin/cos dots) run through
    the deterministic tree so stacked backends can replicate the value
    per row.  ``weights`` is already float64 and normalized here, so the
    degenerate-total fallback of the public helper cannot trigger — it
    is kept anyway to preserve the helper's contract for direct callers.
    """
    total = float(det_sum(weights))
    if total <= 0.0 or not math.isfinite(total):
        weights = np.ones_like(theta)
        total = float(theta.size)
    sin_sum = float(det_dot(weights, np.sin(theta)))
    cos_sum = float(det_dot(weights, np.cos(theta)))
    eps = 1e-9 * max(1.0, total)
    if abs(sin_sum) < eps and abs(cos_sum) < eps:
        return 0.0
    return math.atan2(sin_sum / total, cos_sum / total)


def weighted_pose_spread(
    x: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    mean_x: float,
    mean_y: float,
) -> tuple[np.ndarray, float]:
    """Position covariance and circular yaw std around a weighted mean.

    ``weights`` must already be normalized (as returned by
    :func:`weighted_mean_pose`).
    """
    dx = x - mean_x
    dy = y - mean_y
    cov = np.empty((2, 2), dtype=np.float64)
    cov[0, 0] = float(det_dot(weights, dx * dx))
    cov[0, 1] = cov[1, 0] = float(det_dot(weights, dx * dy))
    cov[1, 1] = float(det_dot(weights, dy * dy))

    # Circular spread: R = |weighted mean resultant|, std = sqrt(-2 ln R).
    resultant = complex(
        float(det_dot(weights, np.cos(theta))), float(det_dot(weights, np.sin(theta)))
    )
    r_len = min(abs(resultant), 1.0)
    yaw_std = math.sqrt(max(-2.0 * math.log(max(r_len, 1e-12)), 0.0))
    return cov, yaw_std
