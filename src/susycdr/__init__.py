"""Exactly solvable convection-diffusion-reaction systems whose solution
and diffusion profiles are eigenfunctions of partner Schroedinger
problems, plus the numerical oracles that certify them."""

from .cdr import (CaseTag, CdrSystem, build_case_a, build_case_b, build_fpe,
                  eval_fields, swap)
from .mathfn import QuadratureError, gaussian_tail_cutoff, integrate, laguerre
from .quantum import (DEFAULT_X_MIN, Eigenstate, OscillatorParams,
                      RadialOscillatorFamily, base_potential, darboux_partner,
                      darboux_state)
from .verify import (EvolveReport, GridSpec, ResidualReport, evolve_oracle,
                     node_count, ode_residual, orthonormality_matrix,
                     pde_residual, positive_diffusion_x_max,
                     schrodinger_residual)

__version__ = "0.1.0"
