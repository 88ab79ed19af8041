"""Closed-form performance guarantees for the mean-field greedy pipeline.

Provides the curvature/submodularity margin of the approximated-welfare
set function, the resulting greedy approximation-ratio guarantee, an
explicit upper bound on the KL divergence of the best independent
approximation from the Gibbs measure, and the welfare-regret bound that
combines the two.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .meanfield import instance_certified
from .model import Instance, logistic_slope

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form guarantee quantities for one instance.

    ``margin`` lower-bounds the submodularity ratio of the approximated
    welfare and equals one minus the curvature upper bound. The validity
    flags record whether the assumptions behind the margin formula hold;
    when they fail the numbers are still reported but certify nothing.
    """

    margin: float
    curvature_upper: float
    submodularity_lower: float
    guarantee_factor: float
    kl_upper_bound: float
    regret_upper_bound: float
    positivity_holds: bool
    sample_size_ok: bool
    contraction_holds: bool


def positivity_profile_holds(theta) -> bool:
    """Nonnegative treatment and spillover effects with strictly positive
    direct and externality coefficients, the sufficient condition for the
    approximated welfare to be monotone with a nondegenerate margin."""
    return (
        theta.theta1 > 0
        and theta.theta4 > 0
        and all(v >= 0 for v in np.atleast_1d(theta.theta3))
        and theta.theta5 >= 0
        and theta.theta6 >= 0
    )


def direct_effect_scale(instance: Instance) -> float:
    """The margin numerator a_n * theta4 * min_degree * m_lower + theta1."""
    th = instance.theta
    return th.a_n * th.theta4 * instance.net.min_degree * instance.m_lower + th.theta1


def sample_size_ok(instance: Instance) -> bool:
    """Network-size condition N >= (a_n theta4 min_degree m_lower + theta1) / 4
    needed for the margin to stay below one."""
    return instance.n >= direct_effect_scale(instance) / 4.0


def curvature_margin(instance: Instance) -> float:
    """Margin bounding the approximated welfare's set-function geometry.

    The value lower-bounds the submodularity ratio and upper-bounds one
    minus the curvature. It multiplies the smallest possible logistic slope
    over the attainable choice-argument range by the smallest possible
    welfare gain of treating one more unit, scaled per person.
    """
    th = instance.theta
    x2 = instance.x_effect2
    x3 = instance.x_effect3
    slope_low = logistic_slope(th.theta0 + float(x2.min()))
    slope_high = logistic_slope(
        th.theta0
        + th.theta1
        + float(x2.max())
        + float(x3.max())
        + th.a_n
        * (th.theta4 + th.theta5 + th.theta6)
        * instance.m_upper
        * instance.net.max_degree
    )
    margin = min(slope_low, slope_high) * direct_effect_scale(instance) / instance.n
    if instance.m_lower == 0.0:
        log.info(
            "similarity lower bound is 0; the guarantee margin is driven "
            "purely by the direct treatment effect"
        )
    return float(margin)


def guarantee_factor(xi: float, gamma: float) -> float:
    """Greedy approximation ratio (1/xi) * (1 - exp(-xi * gamma)).

    Both arguments must lie in (0, 1]. The expm1 evaluation is exact down
    to vanishing xi, where the ratio tends to gamma; at xi = gamma = 1 it
    is the classical 1 - 1/e.
    """
    if not (0.0 < xi <= 1.0):
        raise ValueError(f"curvature bound must be in (0, 1], got {xi}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"submodularity bound must be in (0, 1], got {gamma}")
    return float(-math.expm1(-xi * gamma) / xi)


def _abs_effect_scales(instance: Instance):
    th = instance.theta
    linear = (
        abs(th.theta0)
        + abs(th.theta1)
        + float(np.abs(instance.x_effect2).max())
        + float(np.abs(instance.x_effect3).max())
    )
    spill = abs(th.theta4) + abs(th.theta5) + abs(th.theta6)
    return linear, spill


def kl_upper_bound(instance: Instance) -> float:
    """Explicit upper bound on the KL divergence of the optimal independent
    approximation from the Gibbs measure.

    Built from sup-norm bounds on the potential (f_sup), its gradient
    (grad_sup), and its off-diagonal Hessian entries (hess_sup) over the
    unit cube. Loose but fully computable, and growing linearly in the
    network size when a_n * max_degree stays bounded.
    """
    n = instance.n
    n_bar = instance.net.max_degree
    m_up = instance.m_upper
    a_n = instance.theta.a_n
    linear, spill = _abs_effect_scales(instance)
    f_sup = n * linear + m_up * a_n * n * n_bar * spill
    grad_sup = linear + m_up * a_n * n_bar * spill
    hess_sup = m_up * a_n * (
        abs(instance.theta.theta5) + abs(instance.theta.theta6)
    )
    smooth = math.sqrt(
        grad_sup**2 * n
        + 0.25
        * n_bar
        * n
        * (f_sup * hess_sup**2 + grad_sup**2 * hess_sup + 4 * grad_sup * hess_sup)
    )
    return (
        grad_sup / 4.0
        + 3.0
        + 2.0 * n * math.log(2.0)
        + math.log(n**3 + n)
        + 4.0 * smooth
        + math.log(2.0)
    )


def asymptotic_kl_constants(instance: Instance) -> dict:
    """Coefficients of the informational large-N form of the KL bound.

    The leading terms are C1 * a_n * max_degree + C2 * N; the remaining
    constants scale the lower-order square-root terms. Only the explicit
    bound is checkable as an inequality.
    """
    th = instance.theta
    m_up = instance.m_upper
    linear, spill = _abs_effect_scales(instance)
    t56 = abs(th.theta5) + abs(th.theta6)
    return {
        "C1": 0.25 * m_up * spill,
        "C2": 2.0 * math.log(2.0),
        "C3": 32.0 * m_up * linear * spill,
        "C4": 16.0 * m_up**2 * spill**2,
        "C5": 4.0 * m_up * (linear + 4.0) * linear * t56,
        "C6": 8.0 * m_up**2 * (linear + 2.0) * spill * t56,
        "C7": 4.0 * m_up**3 * spill**2 * t56,
        "C8": 4.0 * m_up**2 * linear * t56**2,
        "C9": 4.0 * m_up**3 * spill * t56**2,
    }


def regret_upper_bound(instance: Instance, bfva_welfare: float | None = None) -> float:
    """Upper bound on the welfare gap between the exact optimum and the
    greedy allocation.

    Combines the approximation penalty sqrt(8 * KL bound) with the greedy
    shortfall (1 - guarantee) * U, where U is the exhaustive mean-field
    optimum when supplied and otherwise the trivial cap N (every marginal
    is below one). Raises ValueError naming the first premise of the
    guarantee that fails (``_guarantee``)."""
    factor, failed = _guarantee(instance, curvature_margin(instance))
    if failed:
        raise ValueError(f"regret bound does not hold: {failed}")
    return _regret(instance, kl_upper_bound(instance), factor, bfva_welfare)


def _guarantee(instance: Instance, margin: float) -> tuple[float, str | None]:
    """The greedy guarantee factor and None when its premises hold: a
    margin in (0, 1), the positivity profile and the network-size
    condition. Otherwise 0 and the first of them that fails, in words."""
    if not 0.0 < margin < 1.0:
        return 0.0, f"the margin {margin:.6g} is not in (0, 1)"
    if not positivity_profile_holds(instance.theta):
        return 0.0, "the positivity profile fails"
    if not sample_size_ok(instance):
        return 0.0, "the network-size condition fails"
    return guarantee_factor(1.0 - margin, margin), None


def _regret(
    instance: Instance, klub: float, factor: float, bfva_welfare: float | None
) -> float:
    cap = float(bfva_welfare) if bfva_welfare is not None else float(instance.n)
    return math.sqrt(8.0 * klub) + (1.0 - factor) * cap


def bounds_report(instance: Instance) -> BoundsReport:
    """Assemble every guarantee quantity with its validity flags."""
    margin = curvature_margin(instance)
    factor, _ = _guarantee(instance, margin)
    klub = kl_upper_bound(instance)
    return BoundsReport(
        margin=margin,
        curvature_upper=1.0 - margin,
        submodularity_lower=margin,
        guarantee_factor=factor,
        kl_upper_bound=klub,
        regret_upper_bound=_regret(instance, klub, factor, None),
        positivity_holds=positivity_profile_holds(instance.theta),
        sample_size_ok=sample_size_ok(instance),
        contraction_holds=instance_certified(instance),
    )
