"""Test doubles shared by the test modules.

The two deliberately inconsistent field assemblies below let the residual
oracles show that they catch a wrong system: one carries the reaction
with t^(1 - alpha) instead of t^(mu - 1) (agreeing only at t = 1), the
other builds the convection on sigma where the exact profile uses sigma'.
A counting fixture records how often the eigenstates run the Laguerre
recurrence. ``peak_growth_check`` is the one memory-growth check of the
streamed layers (time levels and Laguerre degrees), and ``hoarding_eval_fields`` a double that breaks them.
"""

import dataclasses
import tracemalloc

import pytest

from susycdr import quantum, verify
from susycdr.cdr import CdrSystem


class _AltReactionSystem(CdrSystem):
    @property
    def rho_exp(self) -> float:
        return 1.0 - self.alpha


class _AltConvectionSystem(CdrSystem):
    def convection(self, z, sigma_jet, order=0):
        # Shifted by one place, the jet puts sigma where the exact code reads sigma'.
        return super().convection(z, (None, *sigma_jet), order)


def _double(cls, system):
    """``system`` rebuilt as an instance of the subclass ``cls``."""
    return cls(**{f.name: getattr(system, f.name)
                  for f in dataclasses.fields(CdrSystem)})


@pytest.fixture
def alt_reaction_exponent():
    """Factory: a system's double whose reaction carries t^(1 - alpha)."""
    return lambda system: _double(_AltReactionSystem, system)


@pytest.fixture
def alt_convection_profile():
    """Factory: a system's double whose convection is 2 sigma + alpha z."""
    return lambda system: _double(_AltConvectionSystem, system)


@pytest.fixture
def laguerre_calls(monkeypatch):
    """Calls of ``laguerre_table`` and ``laguerre_values`` made through
    :mod:`susycdr.quantum` from here on, by name."""
    calls = {"laguerre_table": 0, "laguerre_values": 0}
    for name in calls:
        def counted(*args, _fn=getattr(quantum, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(quantum, name, counted)
    return calls


# Growth allowed from the small to the large time grid. The streamed layers
# grow by at most 10 kB (O(nt) time and boundary arrays); 100 kB flags
# anything holding about 330 bytes or more per level from 100 to 400 levels.
PEAK_GROWTH_MARGIN = 100_000


def _traced_peak(call, size):
    tracemalloc.start()
    try:
        call(size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_peak_growth(call, small, large, bound):
    call(small)  # untraced: a cold first call peaks up to 160 kB higher
    small_peak = _traced_peak(call, small)
    large_peak = _traced_peak(call, large)
    assert small_peak < bound, (
        f"peak {small_peak} B at {small} is not below {bound} B")
    assert large_peak - small_peak < PEAK_GROWTH_MARGIN, (
        f"peak grew by {large_peak - small_peak} B from {small} to {large}")


@pytest.fixture
def peak_growth_check():
    """The check ``(call, small, large, bound)``: after one untraced
    warm-up, the tracemalloc peak of ``call(small)`` is below ``bound``
    bytes, and that of ``call(large)`` exceeds it by less than
    ``PEAK_GROWTH_MARGIN``. The sizes are numbers of time levels, or a
    Laguerre degree for the eigenstates. Each time grid should hold at
    least two full blocks of ``LEVEL_BLOCK`` levels: a short last block
    reads as growth (pde_residual's finite differences peak 257 kB lower
    at nt = 20 than at nt = 80)."""
    return _check_peak_growth


@pytest.fixture
def hoarding_eval_fields(monkeypatch):
    """``verify.eval_fields`` rebound to keep every result it returns, as a
    layer that held each block of fields would; the list of kept results."""
    kept = []

    def hoarding(*args, _fn=verify.eval_fields):
        kept.append(_fn(*args))
        return kept[-1]

    monkeypatch.setattr(verify, "eval_fields", hoarding)
    return kept
