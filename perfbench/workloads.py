"""The three benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, then runs a
fixed list of operations (one *pass*) that the timed loop repeats on the
same inputs. ``op`` is the timed call into netalloc. ``check`` runs after
it, outside the timed region: it returns the op's allocations in the form
the frozen reference stores, and the problems it found. ``units`` is how
many operations in the benchmark's sense (replications or greedy rounds)
one call of ``op`` performs.

Every call into the package goes through a module attribute
(``allocate.greedy``, not a name bound at import), so the traced run can
wrap it at that import site.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from netalloc import allocate, exact, experiments, meanfield, model, network

# Allowed disagreement with a frozen reference, and between two evaluations
# of one allocation, in welfare per person. The solvers stop at a residual of
# 1e-8 per marginal, so honest differences stay far below it.
WELFARE_TOL = 1e-6
# Two allocations tie when their objectives differ by at most this much per
# person; a tied allocation may stand in for the reference one.
TIE_TOL = 1e-6
# Sampled versus mean-field welfare per person: the paper's criterion 3.
MCMC_TOL = 0.01


class GuardError(RuntimeError):
    """The instance does not take the code path the workload exists to measure."""


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _guard(instance, certified: bool, workload: str):
    if meanfield.instance_certified(instance) != certified:
        raise GuardError(f"{workload}: contraction certificate is {not certified}, "
                         f"the workload needs {certified}")


def _simulation_instance(n, density, param_set, seed):
    """The package's simulation protocol: fixed-edge-count random graph, one
    fair-coin binary covariate, L1-distance similarity, a_n = 1/N."""
    theta = model.ThetaParams.from_set(param_set, a_n=1.0 / n)
    net = network.erdos_renyi(n, density, seed=sub_seed(seed, 0))
    x = np.random.default_rng(sub_seed(seed, 1)).integers(0, 2, size=(n, 1))
    inst = model.make_instance(net, x.astype(float), theta,
                               kernel=network.SimilarityKernel.abs_diff())
    inst.coupling  # first-use cache, part of set-up
    return inst


def _nbytes(array) -> int:
    """Bytes held by a dense array, or by the buffers of a sparse matrix."""
    if hasattr(array, "indptr"):
        return int(array.data.nbytes + array.indices.nbytes + array.indptr.nbytes)
    return int(array.nbytes)


def _footprint(inst) -> dict:
    """Sizes of the instance's coupling and similarity arrays, in bytes."""
    return {"model.coupling_bytes": _nbytes(inst.coupling),
            "model.similarity_bytes": _nbytes(inst.m)}


def _allocation(treated, objective, **scores) -> dict:
    return {"treated": [int(i) for i in treated], "objective": float(objective),
            "scores": {k: float(v) for k, v in scores.items()}}


def _greedy_problems(steps, kappa: int) -> list[str]:
    problems = []
    if len({s.unit for s in steps}) != kappa:
        problems.append("greedy did not treat kappa distinct units")
    bad = [s.round for s in steps if s.nonconverged]
    if bad:
        problems.append(f"greedy rounds {bad} had non-converged candidate solves")
    return problems


@dataclass(frozen=True)
class OracleN15:
    """Replications of the simulate cell at N=15, parameter set 1, a_n=1/N."""

    name: str = "oracle_n15"
    n: int = 15
    densities: tuple = (0.3, 0.6, 0.3, 0.6)
    param_set: int = 1
    units = 1

    @property
    def kappa(self) -> int:
        return int(math.floor(0.3 * self.n))

    @property
    def ops_per_pass(self) -> int:
        return len(self.densities)

    def setup(self, seed: int, workdir: str) -> dict:
        insts = [_simulation_instance(self.n, dens, self.param_set, sub_seed(seed, 1, i))
                 for i, dens in enumerate(self.densities)]
        # Fill the size-keyed configuration and pair tables on first use.
        zero = np.zeros(self.n, dtype=np.int8)
        exact.welfare_of_allocations(insts[0], zero, max_units=self.n)
        exact.exact_welfare(zero, insts[0])
        return {"instances": insts, "seed": seed, "footprint": _footprint(insts[0])}

    def op(self, ctx, i: int) -> dict:
        inst = ctx["instances"][i]
        seed = sub_seed(ctx["seed"], 2, i)
        brute, brute_w = exact.brute_force_optimal(inst, self.kappa, max_units=self.n)
        bf, bf_w = allocate.bfva(inst, self.kappa, seed=sub_seed(seed, 0))
        gr, steps = allocate.greedy(inst, self.kappa, seed=sub_seed(seed, 1))
        out = {"steps": steps}
        for method, alloc, objective in (("brute", brute, brute_w), ("bfva", bf, bf_w),
                                         ("greedy", gr, None)):
            ex = exact.exact_welfare(alloc.d, inst)
            va = meanfield.approx_welfare(alloc.d, inst, seed=sub_seed(seed, 2))
            out[method] = _allocation(alloc.treated, va if objective is None else objective,
                                      exact=ex, va=va)
        return out

    def check(self, ctx, i: int, out: dict):
        a = {m: out[m] for m in ("brute", "bfva", "greedy")}
        tol, tie = WELFARE_TOL * self.n, TIE_TOL * self.n
        problems = _greedy_problems(out["steps"], self.kappa)
        if any(len(a[m]["treated"]) > self.kappa for m in a):
            problems.append("an allocation exceeds the capacity")
        if abs(a["brute"]["objective"] - a["brute"]["scores"]["exact"]) > tol:
            problems.append("brute-force welfare disagrees with exact_welfare")
        if abs(a["bfva"]["objective"] - a["bfva"]["scores"]["va"]) > tol:
            problems.append("bfva welfare disagrees with approx_welfare")
        if max(a[m]["scores"]["exact"] for m in a) > a["brute"]["scores"]["exact"] + tie:
            problems.append("brute force is beaten in exact welfare")
        if a["greedy"]["scores"]["va"] > a["bfva"]["scores"]["va"] + tie:
            problems.append("bfva is beaten in mean-field welfare")
        return a, problems

    def working_set_mb(self) -> float:
        """The configuration/pair table, the largest array the workload reads."""
        return (1 << self.n) * (self.n + self.n * (self.n - 1) // 2) * 8 / 2**20


@dataclass(frozen=True)
class GreedyDense:
    """Batched greedy on a dense graph that holds the contraction certificate."""

    name: str = "greedy_dense"
    n: int = 500
    density: float = 0.3
    kappa: int = 150
    param_set: int = 1
    ops_per_pass = 1

    @property
    def units(self) -> int:
        return self.kappa

    def setup(self, seed: int, workdir: str) -> dict:
        inst = _simulation_instance(self.n, self.density, self.param_set, sub_seed(seed, 1))
        _guard(inst, True, self.name)
        return {"instance": inst, "seed": seed, "footprint": _footprint(inst)}

    def op(self, ctx, i: int):
        return allocate.greedy(ctx["instance"], self.kappa, seed=sub_seed(ctx["seed"], 2))

    def check(self, ctx, i: int, out):
        alloc, steps = out
        inst, seed = ctx["instance"], sub_seed(ctx["seed"], 3)
        final = meanfield.approx_welfare(alloc.d, inst, seed=seed)
        empty = meanfield.approx_welfare(np.zeros(self.n, dtype=np.int8), inst, seed=seed)
        problems = _greedy_problems(steps, self.kappa)
        if abs(empty + sum(s.delta for s in steps) - final) > WELFARE_TOL * self.n:
            problems.append("greedy round gains do not add up to the final welfare")
        return {"greedy": _allocation(alloc.treated, final, va=final)}, problems

    def working_set_mb(self) -> float:
        """One dense N x N float array."""
        return self.n * self.n * 8 / 2**20


@dataclass(frozen=True)
class SparseAllocate:
    """``run_allocate`` on a generated sparse edge list and covariate file,
    with the single-site sampler checking the greedy allocation."""

    name: str = "sparse_allocate"
    n: int = 2000
    mean_degree: int = 10
    covariates: int = 2
    kappa: int = 2
    a_n: float = 0.05
    sweeps: int = 100
    burn_in: int = 50
    ops_per_pass = 1

    @property
    def units(self) -> int:
        return self.kappa

    def write_inputs(self, seed: int, workdir: str):
        """Generate the edge list and covariate CSV the program reads."""
        rng = np.random.default_rng(sub_seed(seed, 0))
        n = self.n
        iu, ju = np.triu_indices(n, k=1)
        # load_network infers N from the largest index, so unit N-1 needs an edge.
        while True:
            chosen = rng.choice(iu.size, size=n * self.mean_degree // 2, replace=False)
            i, j = iu[chosen], ju[chosen]
            if (j == n - 1).any():
                break
        with open(os.path.join(workdir, "network.csv"), "w") as fh:
            fh.write("# i,j\n")
            fh.writelines(f"{a},{b}\n" for a, b in zip(i.tolist(), j.tolist()))
        x = rng.integers(0, 2, size=(n, self.covariates))
        with open(os.path.join(workdir, "covariates.csv"), "w") as fh:
            fh.write(",".join(f"x{k + 1}" for k in range(self.covariates)) + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in x.tolist())

    def setup(self, seed: int, workdir: str) -> dict:
        theta = model.ThetaParams.from_set(1, a_n=self.a_n).to_dict()
        cfg = experiments.ExperimentConfig(
            theta=theta, kernel="invdist", kappa=self.kappa, method="greedy",
            network_file=os.path.join(workdir, "network.csv"),
            covariates_file=os.path.join(workdir, "covariates.csv"),
            seed=sub_seed(seed, 1), mcmc_check=True,
            sampler=experiments.SamplerSettings(sweeps=self.sweeps, burn_in=self.burn_in),
        )
        inst = experiments.load_instance(cfg)
        inst.coupling  # first-use cache, part of set-up
        _guard(inst, True, self.name)
        # run_allocate loads its own instance; keeping this one through the
        # run would add a second instance to the peak RSS.
        return {"cfg": cfg, "footprint": _footprint(inst)}

    def op(self, ctx, i: int) -> dict:
        return experiments.run_allocate(ctx["cfg"])

    def check(self, ctx, i: int, out: dict):
        rec, bounds = out["allocation"], out["bounds"]
        problems = []
        if len(set(rec["treated"])) != self.kappa:
            problems.append("greedy did not treat kappa distinct units")
        if not bounds["contraction_holds"]:
            problems.append("bounds report lost the contraction certificate")
        if not all(math.isfinite(v) for v in bounds.values()):
            problems.append("bounds report has non-finite entries")
        gap = abs(rec["welfare_mcmc"] - rec["welfare_va"]) / self.n
        if gap > MCMC_TOL:
            problems.append(f"sampled and mean-field welfare differ by {gap:.4f} per person")
        return {"greedy": _allocation(rec["treated"], rec["welfare_va"],
                                      va=rec["welfare_va"])}, problems

    def working_set_mb(self) -> float:
        """One dense N x N float array."""
        return self.n * self.n * 8 / 2**20


WORKLOADS = {w.name: w for w in (OracleN15(), GreedyDense(), SparseAllocate())}


def compare_reference(ref: dict, got: dict, n: int) -> list[str]:
    """Differences between an op's allocations and their frozen reference.

    A different treated set passes when its objective ties the reference's
    within TIE_TOL; a matching one must reproduce every score within
    WELFARE_TOL.
    """
    problems = []
    for method, want in ref.items():
        have = got[method]
        if have["treated"] != want["treated"]:
            if abs(have["objective"] - want["objective"]) > TIE_TOL * n:
                problems.append(f"{method}: treated {have['treated']} is not the reference "
                                f"{want['treated']} and does not tie it")
            continue
        pairs = [("objective", have["objective"], want["objective"])]
        pairs += [(k, have["scores"][k], v) for k, v in want["scores"].items()]
        for key, a, b in pairs:
            if abs(a - b) > WELFARE_TOL * n:
                problems.append(f"{method}: {key} {a!r} differs from the reference {b!r}")
    return problems
