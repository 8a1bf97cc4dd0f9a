"""Fourth-order central differences: the finite-difference reference the
test modules check analytic derivatives against, and its own tests."""

import math

import pytest


def fd_derivative(f, x: float, order: int, h: float | None = None) -> float:
    """4th-order central difference of ``f`` at ``x``.

    ``order`` is 1 or 2. The default step 1e-4 * max(1, |x|) balances
    truncation against round-off at double precision; callers doing
    convergence studies pass ``h`` explicitly.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h is None:
        h = 1e-4 * max(1.0, abs(x))
    fm2 = f(x - 2.0 * h)
    fm1 = f(x - h)
    fp1 = f(x + h)
    fp2 = f(x + 2.0 * h)
    if order == 1:
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    f0 = f(x)
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


class TestFdDerivative:
    def test_second_derivative_of_square(self):
        for x in (-2.0, 0.3, 5.0):
            assert fd_derivative(lambda u: u * u, x, order=2) == pytest.approx(
                2.0, abs=1e-7
            )

    def test_first_derivative_of_sin(self):
        assert fd_derivative(math.sin, 0.0, order=1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_fourth_order_convergence(self):
        # error of d/dx exp(x) at 0 should drop ~16x per halving of h
        errs = []
        for h in (0.2, 0.1, 0.05):
            errs.append(abs(fd_derivative(math.exp, 0.0, order=1, h=h) - 1.0))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] / errs[2] > 12.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            fd_derivative(math.sin, 0.0, order=3)
