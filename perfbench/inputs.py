"""Seeded inputs for the benchmark workloads.

Every workload draws its configs from ``random.Random(seed)``, so a seed
fixes the inputs exactly. A round holds the same number of systems of
each case, and slot k of a case always has the same Laguerre degrees:
the degrees set how much work every oracle does, so fixing them keeps a
round's work the same for every seed. The seed draws the chain
member s and the continuous parameters (omega, ell, alpha, A, B, grid
ranges) within the ranges the oracles certify.
"""

import random

CASES = ("fpe", "case_a", "case_b")

# Degrees per slot, used in turn: fpe n; case_a (n, m); case_b (n, n').
# n' != n puts the case_b profiles on different chain members, so every
# case_b system costs the oracles two members.
FPE_N = (2, 0, 1)
CASE_A_NM = ((3, 1), (1, 2), (2, 0))
CASE_B_NN = ((3, 1), (1, 2), (0, 2))


def system_config(rng: random.Random, case: str, slot: int) -> dict:
    """The config of one slot of the given case, with seeded parameters."""
    cfg = {
        "omega": round(rng.uniform(0.6, 1.6), 6),
        "ell": round(rng.uniform(0.5, 2.0), 6),
        "alpha": round(rng.uniform(0.6, 1.4), 6),
        "case": case,
        "A": round(rng.uniform(0.5, 3.0), 6),
        "B": round(rng.uniform(0.5, 3.0), 6),
    }
    if case == "fpe":
        cfg.update(s=rng.randint(0, 3), n=FPE_N[slot % len(FPE_N)])
    elif case == "case_a":
        n, m = CASE_A_NM[slot % len(CASE_A_NM)]
        cfg.update(n=n, m=m)
    else:
        n, n_prime = CASE_B_NN[slot % len(CASE_B_NN)]
        s = rng.randint(max(0, n_prime - n), 3)
        cfg.update(n=n, s=s, n_prime=n_prime, s_prime=n + s - n_prime)
    return cfg


def sweep(seed: int, per_case: int) -> list:
    """``per_case`` configs of each case, interleaved fpe, case_a, case_b."""
    rng = random.Random(seed)
    return [system_config(rng, case, slot)
            for slot in range(per_case) for case in CASES]


def export_sweep(seed: int, per_case: int, nx: int, nt: int) -> list:
    """Like :func:`sweep`, each config with a seeded nx-by-nt field grid."""
    rng = random.Random(seed)
    configs = []
    for slot in range(per_case):
        for case in CASES:
            cfg = system_config(rng, case, slot)
            cfg["grid"] = {
                "x_min": round(rng.uniform(0.05, 0.3), 6),
                "x_max": round(rng.uniform(6.0, 10.0), 6),
                "nx": nx,
                "t_min": round(rng.uniform(0.3, 0.8), 6),
                "t_max": round(rng.uniform(1.5, 3.0), 6),
                "nt": nt,
            }
            configs.append(cfg)
    return configs
