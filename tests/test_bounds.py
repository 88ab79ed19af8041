"""Closed-form guarantee quantities and their defining inequalities."""

import math

import numpy as np
import pytest
from scipy.special import expit

from netalloc import (
    SimilarityKernel,
    SolverSettings,
    ThetaParams,
    asymptotic_kl_constants,
    bfva,
    bounds_report,
    brute_force_optimal,
    curvature_margin,
    enumerate_gibbs,
    exact_kl,
    greedy,
    guarantee_factor,
    kl_upper_bound,
    make_instance,
    regret_upper_bound,
    solve_allocation,
    weights,
)
from netalloc.bounds import (_guarantee, direct_effect_scale, positivity_profile_holds,
                             sample_size_ok)
from netalloc.experiments import simulation_instance
from netalloc.network import erdos_renyi
from tests.conftest import protocol_instance, random_instance


def reference_margin(inst):
    """Independent transcription of the margin formula with scalar math."""
    th = inst.theta
    x2 = [float(inst.x[i] @ np.atleast_1d(th.theta2)) for i in range(inst.n)]
    x3 = [float(inst.x[i] @ np.atleast_1d(th.theta3)) for i in range(inst.n)]

    def slope(v):
        p = 1.0 / (1.0 + math.exp(-v))
        return p * (1.0 - p)

    low = slope(th.theta0 + min(x2))
    high = slope(
        th.theta0
        + th.theta1
        + max(x2)
        + max(x3)
        + th.a_n
        * (th.theta4 + th.theta5 + th.theta6)
        * inst.m_upper
        * inst.net.max_degree
    )
    scale = th.a_n * th.theta4 * inst.net.min_degree * inst.m_lower + th.theta1
    return min(low, high) * scale / inst.n


class TestMargin:
    def test_matches_reference_transcription(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 20))
            inst = random_instance(rng, n, positivity=True, a_n=float(rng.uniform(0.05, 1.0)))
            assert abs(curvature_margin(inst) - reference_margin(inst)) <= 1e-14

    def test_large_direct_effect_keeps_a_positive_margin(self):
        # theta1 = 45 puts the second slope branch near x = 45, where
        # p (1 - p) cancels to 0. The margin is tiny but positive, so the
        # premise named is the one that fails: N = 10 < 45 / 4.
        theta = ThetaParams(-2.0, 45.0, 0.1, 0.6, 0.7, 0.8, 0.9, a_n=0.1)
        inst = simulation_instance(10, 0.4, theta, seed=3)
        margin = curvature_margin(inst)
        assert 0.0 < margin < 1e-18
        assert _guarantee(inst, margin) == (0.0, "the network-size condition fails")
        with pytest.raises(ValueError, match="network-size condition"):
            regret_upper_bound(inst)

    def test_quarter_slope_case(self):
        # theta0 + min x'theta2 = 0 puts the first slope branch at its
        # maximum 1/4; with a tame second branch the formula collapses to
        # 0.25 * scale / n.
        net = erdos_renyi(6, 1.0, seed=0)
        x = np.zeros((6, 1))
        theta = ThetaParams(0.0, 0.5, 0.3, 0.0, 0.4, 0.0, 0.0, a_n=0.1)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.constant(1.0))
        scale = 0.1 * 0.4 * 5 * 1.0 + 0.5
        branch2 = expit(0.5 + 0.1 * 0.4 * 5) * (1 - expit(0.5 + 0.1 * 0.4 * 5))
        expected = min(0.25, float(branch2)) * scale / 6
        assert curvature_margin(inst) == pytest.approx(expected, abs=1e-14)

    def test_binary_covariates_use_direct_effect_only(self):
        inst = protocol_instance(15, seed=3)
        # L1 similarity on binary covariates has zero lower bound, so the
        # margin reduces to the theta1 branch.
        assert inst.m_lower == 0.0
        assert direct_effect_scale(inst) == pytest.approx(inst.theta.theta1)
        assert curvature_margin(inst) == pytest.approx(
            reference_margin(inst), abs=1e-14
        )

    def test_degenerate_profile_flags(self, rng):
        net = erdos_renyi(8, 0.5, seed=1)
        theta = ThetaParams(-1.0, 0.0, 0.1, 0.0, 0.0, 0.1, 0.1, a_n=0.1)
        inst = make_instance(net, rng.random((8, 1)), theta)
        assert not positivity_profile_holds(theta)
        assert curvature_margin(inst) == pytest.approx(0.0, abs=1e-14)
        report = bounds_report(inst)
        assert not report.positivity_holds
        assert report.guarantee_factor == 0.0

    @pytest.mark.parametrize("theta3, holds", [
        (0.6, True), (0.0, True), (-0.1, False),
        ((0.6, 0.0), True), ((0.6, -0.1), False),
    ])
    def test_positivity_reads_every_theta3_entry(self, theta3, holds):
        theta = ThetaParams(-2.0, 0.5, 0.1, theta3, 0.7, 0.8, 0.9)
        assert positivity_profile_holds(theta) is holds

    def test_sample_size_condition(self, rng):
        inst = protocol_instance(10, seed=0)
        assert sample_size_ok(inst)


class TestGuaranteeFactor:
    def test_classical_submodular_constant(self):
        assert guarantee_factor(1.0, 1.0) == pytest.approx(1 - 1 / math.e, abs=1e-12)

    def test_small_curvature_limit(self):
        assert guarantee_factor(1e-9, 0.5) == pytest.approx(0.5, rel=1e-6)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.05, 1.0, 12)
        for g in grid:
            vals = [guarantee_factor(x, g) for x in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for x in grid:
            vals = [guarantee_factor(x, g) for g in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        for xi, gamma in [(0.0, 0.5), (1.2, 0.5), (0.5, 0.0), (0.5, 1.5), (-0.1, 0.5)]:
            with pytest.raises(ValueError):
                guarantee_factor(xi, gamma)

    def test_attainable_margins_stay_below_classical_constant(self, rng):
        # The two slope arguments in the margin formula are separated by at
        # least the margin's scale numerator, which keeps attainable margins
        # small; on such instances the paired factor never beats 1 - 1/e.
        for _ in range(200):
            n = int(rng.integers(3, 20))
            inst = random_instance(rng, n, positivity=True, a_n=float(rng.uniform(0.05, 1.0)))
            margin = curvature_margin(inst)
            if not (0.0 < margin < 1.0 and sample_size_ok(inst)):
                continue
            factor = guarantee_factor(1.0 - margin, margin)
            assert 0.0 < factor <= 1 - 1 / math.e + 1e-12


class TestKlUpperBound:
    def test_zero_parameters_closed_form(self, rng):
        net = erdos_renyi(8, 0.5, seed=2)
        theta = ThetaParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, a_n=0.5)
        inst = make_instance(net, rng.random((8, 1)), theta)
        n = 8
        expected = 3.0 + 2 * n * math.log(2) + math.log(n**3 + n) + math.log(2)
        assert kl_upper_bound(inst) == pytest.approx(expected, abs=1e-12)

    def test_dominates_exact_kl(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            inst = random_instance(rng, n)
            d = rng.integers(0, 2, n)
            sol = solve_allocation(inst, d, SolverSettings(), seed=1)
            kl = exact_kl(sol.mu, enumerate_gibbs(weights(inst, d)))
            assert 0 <= kl + 1e-10
            assert kl <= kl_upper_bound(inst)

    def test_linear_growth_at_fixed_scaling(self):
        # Ring networks hold a_n * max_degree fixed, so the bound grows
        # linearly in the number of units.
        from netalloc import Network

        values = {}
        for n in (100, 1000):
            ring = Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            theta = ThetaParams.from_set(1, a_n=1.0)
            inst = make_instance(ring, np.zeros((n, 1)), theta,
                                 kernel=SimilarityKernel.constant(1.0))
            values[n] = kl_upper_bound(inst)
        ratio = values[1000] / values[100]
        assert 9.0 <= ratio <= 11.0

    def test_asymptotic_constants(self, rng):
        inst = protocol_instance(10, seed=5)
        consts = asymptotic_kl_constants(inst)
        th = inst.theta
        spill = abs(th.theta4) + abs(th.theta5) + abs(th.theta6)
        assert consts["C1"] == pytest.approx(0.25 * inst.m_upper * spill)
        assert consts["C2"] == pytest.approx(2 * math.log(2))
        assert set(consts) == {f"C{k}" for k in range(1, 10)}
        assert all(v >= 0 for v in consts.values())


class TestRegretBound:
    def test_nonnegative_and_dominates_exact_regret(self, rng):
        for seed in range(5):
            inst = protocol_instance(8, seed=seed)
            kappa = 2
            _, best = brute_force_optimal(inst, kappa)
            g, _ = greedy(inst, kappa, SolverSettings(), seed=0)
            from netalloc import exact_welfare

            regret = best - exact_welfare(g.d, inst)
            _, bf_w = bfva(inst, kappa, SolverSettings())
            bound = regret_upper_bound(inst, bfva_welfare=bf_w)
            assert bound >= 0
            assert regret <= bound

    def test_trivial_cap_without_bfva(self, rng):
        inst = protocol_instance(8, seed=1)
        with_cap = regret_upper_bound(inst)
        _, bf_w = bfva(inst, 2, SolverSettings())
        with_bfva = regret_upper_bound(inst, bfva_welfare=bf_w)
        assert with_bfva <= with_cap

    def test_requires_valid_margin(self, rng):
        net = erdos_renyi(6, 0.5, seed=3)
        theta = ThetaParams(-1.0, 0.0, 0.1, 0.0, 0.0, 0.2, 0.2, a_n=0.1)
        inst = make_instance(net, rng.random((6, 1)), theta)
        with pytest.raises(ValueError, match="margin"):
            regret_upper_bound(inst)

    @pytest.mark.parametrize("n,theta1,theta5,premise,regret", [
        # theta5 < 0 breaks positivity while the margin is 0.00525.
        (10, 0.5, -0.8, "positivity profile", 37.343763027022916),
        # theta1 = 20 asks for N >= 5 units.
        (4, 20.0, 0.8, "network-size condition", 45.37003024137187),
    ])
    def test_requires_the_premises_of_the_report(self, n, theta1, theta5, premise, regret):
        # Outside the premises bounds_report gives a guarantee factor of 0,
        # and regret_upper_bound refuses, although the margin is in (0, 1).
        theta = ThetaParams(-2.0, theta1, 0.1, 0.6, 0.7, theta5, 0.9, a_n=0.1)
        inst = simulation_instance(n, 0.4, theta, seed=3)
        report = bounds_report(inst)
        assert 0.0 < report.margin < 1.0 and report.guarantee_factor == 0.0
        assert report.regret_upper_bound == pytest.approx(regret, rel=1e-12)
        with pytest.raises(ValueError, match=premise):
            regret_upper_bound(inst)

class TestReport:
    def test_fields_and_flags(self):
        inst = protocol_instance(12, seed=9)
        report = bounds_report(inst)
        assert report.curvature_upper == pytest.approx(1.0 - report.margin)
        assert report.submodularity_lower == pytest.approx(report.margin)
        assert report.positivity_holds
        assert report.sample_size_ok
        assert report.contraction_holds
        assert 0 < report.guarantee_factor <= 1 - 1 / math.e + 1e-12
        payload = report.to_dict()
        assert payload["kl_upper_bound"] == report.kl_upper_bound

    def test_greedy_guarantee_inequality(self):
        from netalloc import approx_welfare

        for seed in range(5):
            inst = protocol_instance(10, seed=seed)
            report = bounds_report(inst)
            g, _ = greedy(inst, 3, SolverSettings(), seed=0)
            g_w = approx_welfare(g.d, inst, SolverSettings(), seed=0)
            _, bf_w = bfva(inst, 3, SolverSettings())
            assert g_w >= report.guarantee_factor * bf_w - 1e-9
