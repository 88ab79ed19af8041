"""Greedy, exhaustive, random, and baseline allocation strategies."""

import math

import numpy as np
import pytest

from netalloc import (
    Allocation,
    Network,
    SimilarityKernel,
    SolverSettings,
    ThetaParams,
    approx_welfare,
    bfva,
    brute_force_optimal,
    greedy,
    make_instance,
    random_allocation_welfare,
)
from netalloc.meanfield import instance_certified
from tests.conftest import _unscreened_greedy, protocol_instance, random_instance

SETTINGS = SolverSettings()


def ring_instance(n=8):
    """A certified ring of identical units: every rotation of an allocation
    has the same welfare, so only the tie rule separates them."""
    net = Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    theta = ThetaParams.from_set(1, a_n=1.0)
    return make_instance(net, np.zeros((n, 1)), theta, kernel=SimilarityKernel.constant(1.0))


class TestGreedy:
    def test_zero_capacity(self, rng):
        inst = random_instance(rng, 6)
        allocation, trace = greedy(inst, 0, SETTINGS)
        assert allocation.treated == ()
        assert trace == []

    def test_single_unit_gets_treated(self):
        net = Network.from_edges(1, [])
        theta = ThetaParams(-1.0, 0.8, 0.1, 0.4, 0.7, 0.8, 0.9)
        inst = make_instance(net, np.array([[1.0]]), theta)
        allocation, trace = greedy(inst, 1, SETTINGS)
        assert allocation.treated == (0,)
        from scipy.special import expit

        expected_gain = float(
            expit(theta.theta0 + theta.theta1 + theta.theta2 + theta.theta3)
            - expit(theta.theta0 + theta.theta2)
        )
        assert trace[0].delta == pytest.approx(expected_gain, abs=1e-8)

    def test_respects_capacity_and_trace_shape(self, rng):
        inst = protocol_instance(12, seed=3)
        allocation, trace = greedy(inst, 4, SETTINGS)
        assert len(allocation.treated) == 4
        assert [s.round for s in trace] == [1, 2, 3, 4]
        treated_in_order = [s.unit for s in trace]
        assert sorted(treated_in_order) == list(allocation.treated)

    def test_gains_nonnegative_under_positivity(self, rng):
        for _ in range(5):
            inst = random_instance(rng, 10, positivity=True)
            _, trace = greedy(inst, 3, SETTINGS)
            assert all(s.delta >= -1e-9 for s in trace)

    def test_deterministic(self):
        inst = protocol_instance(15, seed=6)
        a1, t1 = greedy(inst, 4, SETTINGS, seed=0)
        a2, t2 = greedy(inst, 4, SETTINGS, seed=0)
        assert a1.treated == a2.treated
        assert [(s.unit, s.delta) for s in t1] == [(s.unit, s.delta) for s in t2]

    def test_fresh_per_candidate_solves_match_batched_mode(self):
        # Certified instances have a unique fixed point, so warm-started
        # batched evaluation and fresh per-candidate solves must pick the
        # same units.
        inst = protocol_instance(12, seed=14)
        fast, _ = greedy(inst, 3, SETTINGS, seed=1)
        slow, _ = _unscreened_greedy(inst, 3, SETTINGS, seed=1)
        assert fast.treated == slow.treated

    def test_matches_brute_force_on_toy_path(self):
        # 3-node path: the middle unit is the clear best single treatment.
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        x = np.array([[1.0], [1.0], [1.0]])
        theta = ThetaParams(-2.0, 0.5, 0.1, 0.6, 0.7, 0.8, 0.9, a_n=0.5)
        inst = make_instance(net, x, theta, kernel=SimilarityKernel.constant(1.0))
        g, _ = greedy(inst, 1, SETTINGS)
        b, _ = brute_force_optimal(inst, 1)
        assert g.treated == b.treated == (1,)

    @pytest.mark.parametrize("unscreened", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ties_go_to_the_smallest_index(self, unscreened, seed):
        # Solver noise of about 1e-9 between rotations used to pick (2, 3, 4)
        # or (4, 5, 6) depending on the seed and the mode. The unscreened
        # reference solves each candidate from its own random start.
        inst = ring_instance()
        assert instance_certified(inst)
        run = _unscreened_greedy if unscreened else greedy
        allocation, trace = run(inst, 3, SETTINGS, seed=seed)
        assert allocation.treated == (0, 1, 2)
        assert [s.unit for s in trace] == [0, 1, 2]

    def test_invalid_capacity(self, rng):
        inst = random_instance(rng, 4)
        with pytest.raises(ValueError):
            greedy(inst, 5, SETTINGS)

    def test_relabeling_identical_units_is_welfare_equivalent(self):
        # Units 0 and 1 share covariates and neighborhoods; swapping their
        # labels cannot change the achieved welfare.
        net = Network.from_edges(5, [(0, 2), (1, 2), (0, 3), (1, 3), (3, 4)])
        x = np.array([[1.0], [1.0], [0.0], [1.0], [0.0]])
        theta = ThetaParams.from_set(1, a_n=0.2)
        inst = make_instance(net, x, theta)
        swap = np.array([1, 0, 2, 3, 4])
        net_s = Network.from_edges(5, np.argwhere(inst.net.adjacency[np.ix_(swap, swap)]))
        inst_s = make_instance(net_s, x[swap], theta, kernel=inst.kernel)
        g, _ = greedy(inst, 2, SETTINGS, seed=0)
        g_s, _ = greedy(inst_s, 2, SETTINGS, seed=0)
        w = approx_welfare(g.d, inst, SETTINGS, seed=0)
        w_s = approx_welfare(g_s.d, inst_s, SETTINGS, seed=0)
        assert w == pytest.approx(w_s, abs=1e-8)


class TestBfva:
    def test_zero_capacity_equals_no_treatment(self, rng):
        inst = protocol_instance(8, seed=4)
        allocation, value = bfva(inst, 0, SETTINGS)
        assert allocation.treated == ()
        assert value == pytest.approx(
            approx_welfare(np.zeros(8, dtype=int), inst, SETTINGS, seed=0), abs=1e-8
        )

    def test_dominates_greedy(self, rng):
        for seed in range(4):
            inst = protocol_instance(10, seed=seed)
            g, _ = greedy(inst, 3, SETTINGS, seed=0)
            g_w = approx_welfare(g.d, inst, SETTINGS, seed=0)
            _, b_w = bfva(inst, 3, SETTINGS)
            assert b_w >= g_w - 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_go_to_the_smallest_treated_set(self, seed):
        # Adjacent pairs tie on the ring; brute force takes (0, 1), and bfva
        # used to return (4, 5), (3, 4), (1, 2), (0, 7) or (5, 6) by seed.
        inst = ring_instance()
        allocation, _ = bfva(inst, 2, SETTINGS, seed=seed)
        assert allocation.treated == brute_force_optimal(inst, 2)[0].treated == (0, 1)

    def test_uncertified_instance_uses_per_allocation_solves(self):
        inst = protocol_instance(6, set_id=2, seed=2, a_n=1.0)
        allocation, value = bfva(inst, 2, SETTINGS, seed=5)
        assert len(allocation.treated) <= 2
        assert value > 0


class TestRandomAllocation:
    def test_zero_capacity_equals_none(self, rng):
        inst = protocol_instance(8, seed=10)
        evaluator = lambda d: approx_welfare(d, inst, SETTINGS, seed=1)
        none_w = evaluator(Allocation.zeros(inst.n).d)
        rand_w = random_allocation_welfare(inst, 0, draws=5, seed=3, evaluator=evaluator)
        assert rand_w == pytest.approx(none_w, abs=1e-10)

    def test_full_capacity_equals_all_treated(self, rng):
        inst = protocol_instance(8, seed=10)
        evaluator = lambda d: approx_welfare(d, inst, SETTINGS, seed=1)
        all_w = evaluator(np.ones(8, dtype=int))
        rand_w = random_allocation_welfare(inst, 8, draws=3, seed=3, evaluator=evaluator)
        assert rand_w == pytest.approx(all_w, abs=1e-10)

    def test_draw_count_validated(self, rng):
        inst = protocol_instance(6, seed=1)
        with pytest.raises(ValueError):
            random_allocation_welfare(inst, 2, draws=0, seed=0, evaluator=lambda d: 0.0)

    @pytest.mark.parametrize("kappa", [-1, 7])
    def test_capacity_validated(self, kappa):
        inst = protocol_instance(6, seed=1)
        with pytest.raises(ValueError, match="kappa must be between 0 and n"):
            random_allocation_welfare(inst, kappa, draws=1, seed=0, evaluator=lambda d: 0.0)

    def test_exact_kappa_treated(self, rng):
        inst = protocol_instance(9, seed=2)
        seen = []
        random_allocation_welfare(
            inst, 3, draws=10, seed=4, evaluator=lambda d: seen.append(d.sum()) or 0.0
        )
        assert all(c == 3 for c in seen)


@pytest.mark.parametrize("check", ["greedy", "bfva", "random", "feasible", "capacity"])
def test_capacity_errors_share_one_message(check):
    from netalloc.experiments import capacity
    from netalloc.model import feasible_allocations

    inst = protocol_instance(4, seed=1)
    calls = {
        "greedy": lambda: greedy(inst, 9, SETTINGS),
        "bfva": lambda: bfva(inst, 9, SETTINGS),
        "random": lambda: random_allocation_welfare(inst, 9, 1, 0, lambda d: 0.0),
        "feasible": lambda: feasible_allocations(4, 9),
        "capacity": lambda: capacity(4, 9, 0.3),
    }
    with pytest.raises(ValueError, match=r"^kappa must be between 0 and n, got 9 for n = 4$"):
        calls[check]()


@pytest.mark.parametrize("entry,name,value", [
    (entry, "kappa", value)
    for entry in ("greedy", "bfva", "brute_force_optimal", "random") for value in (True, 2.0)
] + [("random", "draws", 2.5), ("random", "draws", True)])
def test_counts_must_be_integers(entry, name, value):
    # kappa=True ran as a capacity of 1, and kappa=2.0 or draws=2.5 failed
    # inside range() with a bare TypeError.
    inst = protocol_instance(4, seed=1)
    args = dict(kappa=2, draws=1) | {name: value}
    calls = {
        "greedy": lambda: greedy(inst, args["kappa"], SETTINGS),
        "bfva": lambda: bfva(inst, args["kappa"], SETTINGS),
        "brute_force_optimal": lambda: brute_force_optimal(inst, args["kappa"]),
        "random": lambda: random_allocation_welfare(inst, args["kappa"], args["draws"], 0,
                                                    lambda d: 0.0),
    }
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        calls[entry]()


class TestOrdering:
    def test_none_below_random_below_greedy(self):
        # Positive-effect benchmark profile: targeted treatment beats
        # untargeted, which beats nothing.
        inst = protocol_instance(30, seed=8)
        kappa = 9
        evaluator = lambda d: approx_welfare(d, inst, SETTINGS, seed=2)
        none_w = evaluator(Allocation.zeros(inst.n).d)
        rand_w = random_allocation_welfare(inst, kappa, draws=20, seed=5, evaluator=evaluator)
        g, _ = greedy(inst, kappa, SETTINGS, seed=0)
        greedy_w = evaluator(g.d)
        assert none_w < rand_w < greedy_w


@pytest.mark.parametrize("frac,n,kappa", [(0.7, 90, 63), (0.29, 100, 29), (0.7, 10, 7)])
def test_capacity_floors_the_decimal_product(frac, n, kappa):
    # 0.7 * 90 is 62.99999999999999 and 0.29 * 100 is 28.999999999999996 in
    # binary floating point; their floors were one below the capacity.
    from netalloc.experiments import capacity

    assert capacity(n, None, frac) == kappa


def test_default_capacity_fraction_unchanged():
    # The default kappa_frac = 0.3 gives the binary product's floor up to
    # N = 5000, so no golden file moves.
    from netalloc.experiments import capacity

    assert all(capacity(n, None, 0.3) == math.floor(0.3 * n) for n in range(1, 5001))
