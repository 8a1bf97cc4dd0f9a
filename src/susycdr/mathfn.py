"""Special functions and adaptive quadrature.

Everything here is a pure function; the rest of the package builds on
these primitives.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import laguerre_values

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "gaussian_tail_cutoff",
    "laguerre",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# Default truncation: the half-line Gaussian weight exp(-omega x^2 / 4)
# drops below 1e-16 at sqrt(4 ln(1e16) / omega).
_TAIL_LOG = 4.0 * math.log(1e16)

# Subdivision budget for the adaptive scheme.
_MAX_INTERVALS = 4096


def gaussian_tail_cutoff(omega: float, safety: float = 1.0) -> float:
    """x beyond which exp(-omega x^2/4) < 1e-16, times a safety factor.

    ``safety > 1`` widens the cut for integrands with polynomial factors
    in front of the Gaussian (high-degree states).
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return safety * math.sqrt(_TAIL_LOG / omega)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and half-line truncation for :func:`integrate`."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    truncation_x_max: float = gaussian_tail_cutoff(1.0)

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.truncation_x_max <= 0:
            raise ValueError(
                f"truncation_x_max must be positive, got {self.truncation_x_max}"
            )


def laguerre(n: int, a: float, y):
    """Generalized Laguerre polynomial L_n^a(y).

    Upward three-term recurrence; stable for the moderate degrees used
    here. ``y`` may be a scalar or an ndarray.
    """
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    if a <= -1.0:
        raise ValueError(f"parameter a must be > -1, got {a}")
    arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    out = laguerre_values(n, float(a), arr.ravel()).reshape(arr.shape)
    if np.ndim(y) == 0:
        return float(out[0])
    return out


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1]. The 7-point Gauss rule
# is embedded at the odd indices, so one function sweep serves both rules.
_K15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_K15_WEIGHTS = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_G7_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _K15_NODES), dtype=np.float64)
    k15 = half * float(np.dot(_K15_WEIGHTS, fx))
    g7 = half * float(np.dot(_G7_WEIGHTS, fx[1::2]))
    return k15, abs(k15 - g7)


def integrate(f, lower: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over [lower, truncation].

    Half-line integrals are truncated at ``spec.truncation_x_max``; the
    integrand must already be negligible there (checked at call time).
    ``f`` must accept ndarray arguments.

    Raises
    ------
    QuadratureError
        If the subdivision budget is exhausted before the error estimate
        drops below max(abs_tol, rel_tol * |integral|).
    ValueError
        If |f| at the truncation point is not below abs_tol, i.e. the
        truncation would silently discard tail mass.
    """
    upper = spec.truncation_x_max
    if lower >= upper:
        raise ValueError(
            f"lower bound {lower} must lie below the truncation point {upper}"
        )
    tail = float(np.abs(f(np.array([upper])))[0])
    if not tail < spec.abs_tol:
        raise ValueError(
            f"integrand magnitude {tail:.3e} at truncation point {upper:.6g} "
            f"is not below abs_tol {spec.abs_tol:.3e}; increase truncation_x_max"
        )

    val, err = _panel(f, lower, upper)
    heap = [(-err, lower, upper, val)]
    total = val
    total_err = err
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if len(heap) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"quadrature did not converge: error estimate {total_err:.3e} "
                f"after {len(heap)} intervals"
            )
        neg_err, a, b, old_val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        val_l, err_l = _panel(f, a, mid)
        val_r, err_r = _panel(f, mid, b)
        total += val_l + val_r - old_val
        total_err += err_l + err_r - (-neg_err)
        heapq.heappush(heap, (-err_l, a, mid, val_l))
        heapq.heappush(heap, (-err_r, mid, b, val_r))
    return total

