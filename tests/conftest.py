"""Test doubles shared by the test modules.

The two deliberately inconsistent field assemblies below let the residual
oracles show that they catch a wrong system: one carries the reaction
with t^(1 - alpha) instead of t^(mu - 1) (agreeing only at t = 1), the
other builds the convection on sigma where the exact profile uses sigma'.
A counting fixture records how often the eigenstates run the Laguerre
recurrence.
"""

import dataclasses

import pytest

from susycdr import quantum
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
