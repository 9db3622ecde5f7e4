"""Closed-form collision probabilities and hash quality (paper §2.2).

These formulas drive parameter selection (Theorem 5.1's ``lambda``) and
are validated against Monte Carlo estimates in the test suite.
"""

from __future__ import annotations

import math

__all__ = [
    "rp_collision_probability",
    "cauchy_collision_probability",
    "cp_collision_probability",
    "cp_rho",
    "hyperplane_collision_probability",
    "bit_sampling_collision_probability",
    "minhash_collision_probability",
    "rho",
]


def rp_collision_probability(tau: float, w: float) -> float:
    """Random projection family collision probability (paper Eq. 2).

    ``p(tau) = 1 - 2*Phi(-w/tau) - 2/(sqrt(2*pi)*(w/tau)) * (1 - exp(-(w/tau)^2/2))``

    Args:
        tau: Euclidean distance between the two points (``tau > 0``; at
            ``tau == 0`` the collision probability is 1).
        w: bucket width of the family (``w > 0``).
    """
    if w <= 0.0:
        raise ValueError("bucket width w must be positive")
    if tau < 0.0:
        raise ValueError("distance tau must be non-negative")
    if tau == 0.0:
        return 1.0
    # At the call site: ``repro.hashes`` imports this module, and serving
    # never evaluates a normal CDF.
    from scipy.special import ndtr

    r = w / tau
    p = 1.0 - 2.0 * ndtr(-r) - (2.0 / (math.sqrt(2.0 * math.pi) * r)) * (
        1.0 - math.exp(-(r * r) / 2.0)
    )
    return float(min(max(p, 0.0), 1.0))


def cauchy_collision_probability(tau: float, w: float) -> float:
    """Cauchy (1-stable) projection collision probability for l1 distance.

    Datar et al. extend the paper's Eq. 1 family to any ``l_p`` with
    ``0 < p <= 2``; for ``p = 1`` the projection vector is Cauchy and

    ``p(tau) = 2*atan(w/tau)/pi - ln(1 + (w/tau)^2) / (pi * (w/tau))``.
    """
    if w <= 0.0:
        raise ValueError("bucket width w must be positive")
    if tau < 0.0:
        raise ValueError("distance tau must be non-negative")
    if tau == 0.0:
        return 1.0
    r = w / tau
    p = 2.0 * math.atan(r) / math.pi - math.log1p(r * r) / (math.pi * r)
    return float(min(max(p, 0.0), 1.0))


def cp_collision_probability(tau: float, d: int) -> float:
    """Cross-polytope family collision probability estimate (paper Eq. 4).

    ``ln(1/p) = tau^2 / (4 - tau^2) * ln d + O_tau(ln ln d)``; we use the
    leading term.  ``tau`` is the Euclidean distance between unit vectors,
    so ``0 <= tau < 2``.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    if not 0.0 <= tau < 2.0:
        raise ValueError("tau must be in [0, 2) for points on the unit sphere")
    if tau == 0.0:
        return 1.0
    ln_inv_p = (tau * tau) / (4.0 - tau * tau) * math.log(d)
    return float(math.exp(-ln_inv_p))


def cp_rho(c: float, R: float) -> float:
    """Asymptotic hash quality of the cross-polytope family (paper Eq. 5).

    ``rho = (1/c^2) * (4 - c^2 R^2) / (4 - R^2)`` (the ``o(1)`` term is
    dropped).  Requires ``c > 1`` and ``0 < cR < 2``.
    """
    if c <= 1.0:
        raise ValueError("approximation ratio c must exceed 1")
    if not (0.0 < R and c * R < 2.0):
        raise ValueError("need 0 < R and cR < 2 on the unit sphere")
    return (1.0 / (c * c)) * (4.0 - c * c * R * R) / (4.0 - R * R)


def hyperplane_collision_probability(theta: float) -> float:
    """Sign-random-projection collision probability ``1 - theta/pi``."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must be an angle in [0, pi]")
    return 1.0 - theta / math.pi


def bit_sampling_collision_probability(dist: float, d: int) -> float:
    """Bit sampling family: ``p = 1 - dist/d`` for Hamming distance."""
    if d <= 0:
        raise ValueError("dimension d must be positive")
    if not 0.0 <= dist <= d:
        raise ValueError("Hamming distance must be in [0, d]")
    return 1.0 - dist / d


def minhash_collision_probability(jaccard_dist: float) -> float:
    """MinHash family: ``p = 1 - jaccard_dist`` (= Jaccard similarity)."""
    if not 0.0 <= jaccard_dist <= 1.0:
        raise ValueError("Jaccard distance must be in [0, 1]")
    return 1.0 - jaccard_dist


def rho(p1: float, p2: float) -> float:
    """Hash quality ``rho = ln(1/p1) / ln(1/p2)``; needs ``0<p2<p1<1``."""
    if not 0.0 < p2 < p1 < 1.0:
        raise ValueError("need 0 < p2 < p1 < 1")
    return math.log(1.0 / p1) / math.log(1.0 / p2)
