"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own closed forms: queue
measures come from truncated birth-death summation, LP optima from vertex
enumeration, MIP optima from exhaustive assignment enumeration.  Tests freeze
values computed by these oracles and check the production code against them.
"""

import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import chargeplan  # noqa: E402,F401  (pins BLAS threads before a test imports numpy)


# ---------------------------------------------------------------------------
# Birth-death oracle for M/M/s queues


def birth_death_probs(lam, mu, s, nmax):
    """State probabilities P_0..P_nmax of an M/M/s queue by direct recursion."""
    logs = [0.0]
    logp = 0.0
    for n in range(1, nmax + 1):
        rate = mu * min(n, s)
        logp += math.log(lam) - math.log(rate)
        logs.append(logp)
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = math.fsum(weights)
    return [w / total for w in weights]


def oracle_p_le_b(lam, mu, s, b, nmax=40000):
    if lam == 0:
        return 1.0
    probs = birth_death_probs(lam, mu, s, nmax)
    return math.fsum(probs[: s + b + 1])


def oracle_lq(lam, mu, s, nmax=40000):
    if lam == 0:
        return 0.0
    probs = birth_death_probs(lam, mu, s, nmax)
    return math.fsum((n - s) * probs[n] for n in range(s + 1, nmax + 1))


def oracle_rho_alpha(m, b, alpha):
    """Invert the service level via the birth-death oracle (bisection on load)."""
    lo, hi = 1e-12, m * (1.0 - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_p_le_b(mid, 1.0, m, b) >= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
