"""Certified linear-response screening of greedy candidates.

On certified instances greedy scores every candidate at the incumbent
fixed point (``meanfield._linear_response``) and solves exactly only those
whose score interval reaches the best lower bound. The screen must never
change which unit a round treats, its error bound must hold, and it must
step aside when it cannot certify anything.
"""

import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from netalloc import (
    Network,
    SimilarityKernel,
    SolverSettings,
    ThetaParams,
    batch_fixed_point,
    greedy,
    make_instance,
)
from netalloc import allocate
from netalloc.meanfield import (Incumbent, _coupling_products, _linear_response,
                                _tie_tolerance, instance_certified)
from netalloc.network import erdos_renyi
from tests.conftest import _unscreened_greedy, protocol_instance, random_theta

# Tight enough that solver error sits far below the gaps the tests compare.
TIGHT = SolverSettings(foc_tol=1e-13)
# Two greedy gains closer than this are a tie either rule may break its way.
TIE = 1e-9


@st.composite
def certified_instances(draw):
    """Random certified instances: N 5-40, any edge density, positive or
    mixed-sign parameters, a_n set so that the certificate's left side is
    a drawn fraction of 4, and a dense or CSR coupling."""
    n = draw(st.integers(5, 40))
    density = draw(st.floats(0.05, 0.9))
    seed = draw(st.integers(0, 2**31 - 1))
    positive = draw(st.booleans())
    load = draw(st.floats(0.05, 0.95))
    kernel = draw(st.sampled_from([SimilarityKernel.abs_diff(),
                                   SimilarityKernel.inverse_distance()]))
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        net = erdos_renyi(n, density, seed=seed)
    x = rng.integers(0, 3, size=(n, 2)).astype(float)
    theta = random_theta(rng, positivity=positive)
    probe = make_instance(net, x, theta, kernel=kernel)
    spill = probe.m_upper * (abs(theta.theta5) + abs(theta.theta6)) * max(net.max_degree, 1)
    inst = make_instance(net, x, replace(theta, a_n=4.0 * load / max(spill, 1e-12)),
                         kernel=kernel)
    if draw(st.booleans()):
        inst = csr_twin(inst)
    return inst


def csr_twin(inst):
    """The instance with its coupling stored as CSR."""
    if not isinstance(inst.coupling, np.ndarray):
        return inst
    twin = replace(inst)
    csr = sparse.csr_array(inst.coupling)
    csr.eliminate_zeros()
    twin.__dict__["coupling"] = csr
    return twin


def assert_bound_holds(inst, kappa, screen_settings=TIGHT):
    """|s_k - g_k| <= eps_k at every round of a greedy run, with g_k the
    exact batch gains and the screen run with ``screen_settings``. The
    incumbent is column 0 of the candidates' batch, so the drift the
    stopping rule leaves in units a candidate barely moves cancels in the
    difference."""
    _, trace = greedy(inst, kappa, TIGHT, seed=0)
    d = np.zeros(inst.n, dtype=np.int8)
    for step in trace:
        mu = batch_fixed_point(inst, d[None, :], TIGHT, seed=1).mu[:, 0]
        screen = _linear_response(inst, Incumbent(d, mu, _coupling_products(inst, d, mu)),
                                  screen_settings)
        assert screen is not None
        scores, eps, margin = screen
        untreated = np.flatnonzero(d == 0)
        block = np.tile(d, (len(untreated) + 1, 1))
        block[np.arange(1, len(untreated) + 1), untreated] = 1
        batch = batch_fixed_point(inst, block, TIGHT, init=mu)
        assert batch.converged.all()
        gains = batch.welfare[1:] - batch.welfare[0]
        excess = np.abs(scores - gains) - eps
        assert excess.max() <= 1e-12, (step.round, untreated[np.argmax(excess)])
        assert np.isfinite(margin) and margin >= 0
        d[step.unit] = 1


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=certified_instances(), kappa=st.integers(1, 3))
def test_screened_greedy_picks_what_unscreened_greedy_picks(inst, kappa):
    assert instance_certified(inst)
    kappa = min(kappa, inst.n)
    fast, fast_trace = greedy(inst, kappa, TIGHT, seed=2)
    slow, slow_trace = _unscreened_greedy(inst, kappa, TIGHT, seed=2)
    for a, b in zip(fast_trace, slow_trace):
        if a.unit != b.unit:
            # Same incumbent so far, so the two gains must tie.
            assert a.delta == pytest.approx(b.delta, abs=TIE)
            break
    assert all(s.screened <= inst.n - s.round + 1 for s in fast_trace)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=certified_instances(), kappa=st.integers(1, 4))
def test_error_bound_holds_on_random_instances(inst, kappa):
    assert_bound_holds(inst, min(kappa, inst.n))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_error_bound_holds_on_protocol_instance(storage):
    inst = protocol_instance(120, density=0.3, seed=5)
    assert_bound_holds(inst if storage == "dense" else csr_twin(inst), 6)


@pytest.mark.parametrize("max_iter", [1, 2])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_error_bound_holds_when_the_v_solve_is_cut(storage, max_iter):
    # err = change / (1 - L) bounds the last input v wherever the loop stops.
    inst = protocol_instance(80, density=0.3, seed=5)
    assert_bound_holds(inst if storage == "dense" else csr_twin(inst), 4,
                       replace(TIGHT, max_iter=max_iter))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_handed_in_products_give_the_screen_it_computes(storage):
    # Greedy hands the screen the products its last batch made for the
    # winning column.
    inst = protocol_instance(60, density=0.3, seed=2)
    if storage == "csr":
        inst = csr_twin(inst)
    d = np.zeros(inst.n, dtype=np.int8)
    d[[3, 17, 40]] = 1
    solved = batch_fixed_point(inst, d, TIGHT, seed=0)
    mu = solved.mu[:, 0]
    handed = _linear_response(
        inst, Incumbent(d, mu, tuple(p[:, 0] for p in solved.products)), TIGHT)
    computed = _linear_response(inst, Incumbent(d, mu, _coupling_products(inst, d, mu)), TIGHT)
    for got, want in zip(handed, computed):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("certified", [True, False])
def test_round_records_carry_the_counts(caplog, monkeypatch, certified):
    inst = (protocol_instance(30, density=0.3, seed=4) if certified
            else protocol_instance(12, density=0.4, set_id=2, seed=0))
    assert instance_certified(inst) is certified
    iterations = []

    def batch(*args, **kwargs):
        sol = batch_fixed_point(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(allocate, "batch_fixed_point", batch)
    with caplog.at_level(logging.DEBUG, logger="netalloc.allocate"):
        _, trace = greedy(inst, 3, seed=0)
    records = [r for r in caplog.records if r.name == "netalloc.allocate"]
    assert [(r.round, r.screened, r.candidates, r.batch_iterations) for r in records] == [
        (s.round, s.screened, inst.n - s.round + 1, it)
        for s, it in zip(trace, iterations if certified else [None] * 3)]


def test_shortlist_is_small_and_keeps_the_winner():
    inst = protocol_instance(150, density=0.3, seed=7)
    settings_ = SolverSettings()
    _, trace = greedy(inst, 8, settings_, seed=0)
    d = np.zeros(inst.n, dtype=np.int8)
    for step in trace:
        mu = batch_fixed_point(inst, d[None, :], settings_, seed=0).mu[:, 0]
        scores, eps, margin = _linear_response(
            inst, Incumbent(d, mu, _coupling_products(inst, d, mu)), settings_)
        untreated = np.flatnonzero(d == 0)
        kept = untreated[scores + eps >= np.max(scores - eps) - margin]
        block = np.tile(d, (len(untreated), 1))
        block[np.arange(len(untreated)), untreated] = 1
        full = batch_fixed_point(inst, block, settings_, init=mu)
        assert untreated[np.argmax(full.welfare)] in kept
        assert step.screened < len(untreated) // 4
        d[step.unit] = 1


def test_nonconverged_incumbent_solves_every_candidate(caplog):
    inst = protocol_instance(12, seed=3)
    with caplog.at_level(logging.DEBUG, logger="netalloc.allocate"):
        _, trace = greedy(inst, 3, SolverSettings(max_iter=1), seed=0)
    assert [s.screened for s in trace] == [12, 11, 10]
    assert all(s.nonconverged for s in trace)
    assert "greedy round 1: 12 of 12 candidates solved exactly" in caplog.text


def test_certificate_boundary_solves_every_candidate():
    # Complete graph on 5 units, unit similarity: a_n (|theta5| + |theta6|)
    # times the row sum is exactly 4. The boundary is not certified, so
    # greedy solves every candidate; the bound's 4 - R is zero there too.
    n = 5
    net = Network.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 1.0, -1.0, a_n=0.5)
    inst = make_instance(net, np.zeros((n, 1)), theta, kernel=SimilarityKernel.constant(1.0))
    assert not instance_certified(inst)
    d = np.zeros(n, dtype=np.int8)
    mu = batch_fixed_point(inst, d[None, :], TIGHT, seed=0).mu[:, 0]
    assert _linear_response(inst, Incumbent(d, mu, _coupling_products(inst, d, mu)), TIGHT) is None
    _, trace = greedy(inst, 2, seed=0)
    assert [s.screened for s in trace] == [5, 4]


def test_uncertified_instance_gets_no_screen_and_no_tie():
    # Path 0 - 1 - 2 with invdist similarities 1 and 1/11: the certificate
    # reads m_upper max_degree = 2, the bound's R the row sum 12/11. With
    # a_n (|theta5| + |theta6|) = 3 the instance is not certified although
    # R < 4, so the screen steps aside and values compare exactly.
    net = Network.from_edges(3, [(0, 1), (1, 2)])
    theta = ThetaParams(-1.0, 0.5, 0.1, 0.2, 0.7, 1.0, 2.0, a_n=1.0)
    inst = make_instance(net, np.array([[0.0], [0.0], [10.0]]), theta,
                         kernel=SimilarityKernel.inverse_distance())
    assert not instance_certified(inst)
    assert 3.0 * inst.coupling_bounds[0].max() < 4.0
    d = np.zeros(3, dtype=np.int8)
    mu = batch_fixed_point(inst, d[None, :], TIGHT, seed=0).mu[:, 0]
    assert _linear_response(inst, Incumbent(d, mu, _coupling_products(inst, d, mu)), TIGHT) is None
    assert _tie_tolerance(inst, TIGHT) == 0.0


def test_coupling_constants_match_for_both_storages():
    inst = protocol_instance(40, density=0.3, seed=1)
    dense = inst.coupling_bounds
    csr = csr_twin(inst).coupling_bounds
    for a, b in zip(dense, csr):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(dense[1], inst.coupling.max(axis=0))
