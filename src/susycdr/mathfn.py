"""Special functions and adaptive quadrature.

Everything here is a pure function; the rest of the package builds on
these primitives.
"""

import heapq
import math

import numpy as np

from ._kernels import laguerre_values

__all__ = [
    "QuadratureError",
    "gaussian_tail_cutoff",
    "laguerre",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# The half-line Gaussian weight exp(-omega x^2 / 4) drops below 1e-16 at
# sqrt(4 ln(1e16) / omega).
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


def laguerre(n: int, a: float, y):
    """Generalized Laguerre polynomial L_n^a(y).

    Upward three-term recurrence; stable for the moderate degrees used
    here. ``y`` may be a scalar or an ndarray; the result is shaped like it.
    """
    if n < 0:
        raise ValueError(f"degree n must be >= 0, got {n}")
    if a <= -1.0:
        raise ValueError(f"parameter a must be > -1, got {a}")
    return laguerre_values(n, float(a), np.asarray(y, dtype=np.float64))


# Gauss-Kronrod 30/61 rule on [-1, 1] (QUADPACK qk61): the x >= 0 half,
# centre first. The nodes are the roots of P_30 and of the Stieltjes
# polynomial E_31, the weights solve the moment equations; both were
# computed at 80 digits and rounded to the nearest float.
_K61_X = np.array([
    0.0, 0.0514718425553177, 0.10280693796673702, 0.15386991360858354,
    0.20452511668230988, 0.25463692616788985, 0.30407320227362505,
    0.3527047255308781, 0.4004012548303944, 0.44703376953808915,
    0.49248046786177857, 0.5366241481420199, 0.5793452358263617,
    0.6205261829892429, 0.6600610641266269, 0.6978504947933158,
    0.7337900624532268, 0.7677774321048262, 0.799727835821839,
    0.8295657623827684, 0.8572052335460612, 0.8825605357920527,
    0.9055733076999078, 0.9262000474292743, 0.94437444474856,
    0.9600218649683075, 0.9731163225011262, 0.9836681232797472,
    0.9916309968704046, 0.9968934840746495, 0.9994844100504906,
])
_K61_W = np.array([
    0.05149472942945157, 0.05142612853745902, 0.051221547849258774,
    0.05088179589874961, 0.05040592140278235, 0.04979568342707421,
    0.04905543455502978, 0.04818586175708713, 0.04718554656929915,
    0.04605923827100699, 0.04481480013316266, 0.04345253970135607,
    0.041969810215164244, 0.040374538951535956, 0.038678945624727595,
    0.03688236465182123, 0.034979338028060025, 0.03298144705748372,
    0.030907257562387762, 0.02875404876504129, 0.0265099548823331,
    0.0241911620780806, 0.021828035821609193, 0.019414141193942382,
    0.01692088918905327, 0.014369729507045804, 0.011823015253496341,
    0.009273279659517764, 0.0066307039159312926, 0.003890461127099884,
    0.0013890136986770077,
])
_G30_W = np.array([
    0.10285265289355884, 0.1017623897484055, 0.09959342058679527,
    0.09636873717464425, 0.09212252223778612, 0.08689978720108298,
    0.08075589522942021, 0.0737559747377052, 0.06597422988218049,
    0.057493156217619065, 0.04840267283059405, 0.03879919256962705,
    0.02878470788332337, 0.01846646831109096, 0.007968192496166605,
])

# The full rule, with the 30-point Gauss rule at the odd indices, so one
# function sweep serves both rules.
_KRONROD_NODES = np.concatenate([-_K61_X[:0:-1], _K61_X])
_KRONROD_WEIGHTS = np.concatenate([_K61_W[:0:-1], _K61_W])
_GAUSS_WEIGHTS = np.concatenate([_G30_W[::-1], _G30_W])


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _KRONROD_NODES), dtype=np.float64)
    kronrod = half * float(np.dot(_KRONROD_WEIGHTS, fx))
    gauss = half * float(np.dot(_GAUSS_WEIGHTS, fx[1::2]))
    return kronrod, abs(kronrod - gauss)


def integrate(f, lower: float, upper: float, tol: float) -> float:
    """Adaptive Gauss-Kronrod integral of ``f`` over [lower, upper].

    Each panel applies the 61-point Kronrod rule and takes its distance
    from the embedded 30-point Gauss rule as the error estimate; the
    panel with the largest estimate is bisected until the total error
    estimate is at most tol * max(1, |integral|). ``f`` is called once per
    panel with that panel's 61 nodes, plus once at three tail points.

    ``upper`` truncates a half-line integral: |f| must already be below
    ``tol`` at upper, 1.25 upper and 1.5 upper (checked at call time, so
    a zero of f at the cut cannot hide the mass beyond it). ``f`` must
    accept ndarray arguments.

    Raises
    ------
    QuadratureError
        If the subdivision budget is exhausted before the error estimate
        meets the tolerance.
    ValueError
        If ``upper`` or ``tol`` is not a finite number above 0, if
        ``lower`` is not finite and below ``upper``, if |f| at a tail
        point is not below ``tol`` (the truncation would drop mass), or if
        f is not finite at a node in [lower, upper].
    """
    for name, value in (("upper", upper), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be a finite number above 0, got {value}")
    if not -math.inf < lower < upper:
        raise ValueError(
            f"lower bound {lower} must be finite and below the truncation point {upper}"
        )
    tail = float(np.abs(f(upper * np.array([1.0, 1.25, 1.5]))).max())
    if not tail < tol:
        raise ValueError(
            f"integrand magnitude {tail:.3e} at or beyond the truncation point "
            f"upper = {upper:.6g} is not below tol {tol:.3e}; increase upper"
        )

    val, err = _panel(f, lower, upper)
    heap = [(-err, lower, upper, val)]
    total = val
    total_err = err
    while total_err > tol * max(1.0, abs(total)):
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
    # A NaN or inf of f makes the error estimate NaN or inf for good.
    if not math.isfinite(total_err):
        raise ValueError(f"integrand is not finite on [{lower:.6g}, {upper:.6g}]")
    return total
