"""The benchmark's answer verifier.

A partition answer is re-checked with the benchmark's own arithmetic,
straight from the :class:`~repro.profiler.records.GraphProfile`'s
per-operator CPU utilization and per-edge byte rates — not through
``PartitionProblem`` — against the request's budgets and the values the
answer reports.  Speech and leak answers are also compared with
:func:`repro.core.bruteforce.brute_force_partition`, the paper's §7.2
ground truth.  Answers whose solve stopped at its time limit
(``unproven``) only need to be feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Scenarios small enough for exhaustive ground truth.
BRUTE_FORCE_SCENARIOS = frozenset({"speech", "leak"})
#: Relative/absolute tolerance on recomputed loads and objectives (sums
#: in a different order differ in the last ulps).
REL_TOL = 1e-9
ABS_TOL = 1e-9
#: The solvers' stand-in for an unlimited channel budget.
NET_BUDGET_CAP = 1e15


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    unproven: bool = False


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def budgets_for(request, platform) -> tuple[float, float]:
    """The (cpu, net) budgets a request is entitled to on ``platform``:
    its own, else the platform's CPU budget fraction and radio goodput."""
    cpu = request.cpu_budget
    if cpu is None:
        cpu = platform.cpu_budget_fraction
    net = request.net_budget
    if net is None:
        net = (
            platform.radio.goodput_capacity_bytes
            if platform.radio is not None
            else math.inf
        )
    return cpu, min(net, NET_BUDGET_CAP)


def edge_cost(profile, edge) -> float:
    """Channel bytes/s of one edge at the profiled rate (on-air bytes
    when the platform has a radio)."""
    ep = profile.edges[edge]
    if profile.platform.radio is not None:
        return ep.on_air_bytes_per_sec
    return ep.bytes_per_sec


def loads(profile, node_set, rate: float) -> tuple[float, float]:
    """(CPU utilization, channel bytes/s) of ``node_set`` at ``rate``."""
    cpu = sum(
        op.utilization for name, op in profile.operators.items()
        if name in node_set
    ) * rate
    net = sum(
        edge_cost(profile, edge)
        for edge in profile.graph.edges
        if (edge.src in node_set) != (edge.dst in node_set)
    ) * rate
    return cpu, net


class Verifier:
    """Checks answers to :class:`~repro.workbench.PartitionRequest`\\ s.

    ``profile`` is the scenario's factor-1.0 ``GraphProfile`` on the
    request's platform.  Ground-truth solves are memoized per
    (scenario, request), since the served mix repeats requests.
    """

    def __init__(self) -> None:
        self._truth: dict[tuple, float | None] = {}
        # Pins of the last profile checked (the served mix checks many
        # answers against one profile; cold starts each bring their own,
        # and holding old ones would inflate the measured memory peak).
        self._pins_for: tuple | None = None

    def _pinned(self, profile, mode) -> tuple[set[str], set[str]]:
        from repro.core.pinning import compute_pinnings
        from repro.dataflow.graph import Pinning

        cached = self._pins_for
        if cached is None or cached[0] is not profile or cached[1] != mode:
            pins = compute_pinnings(profile.graph, mode)
            cached = (
                profile,
                mode,
                {n for n, p in pins.items() if p is Pinning.NODE},
                {n for n, p in pins.items() if p is Pinning.SERVER},
            )
            self._pins_for = cached
        return cached[2], cached[3]

    def _ground_truth(self, scenario, profile, request, budgets):
        """Brute-force optimum (``None`` when infeasible), memoized."""
        key = (scenario, repr(sorted(request.to_payload().items())))
        if key not in self._truth:
            from repro.core.bruteforce import brute_force_partition
            from repro.core.pinning import compute_pinnings
            from repro.core.problem import problem_from_profile

            problem = problem_from_profile(
                profile.scaled(request.rate_factor),
                compute_pinnings(profile.graph, request.mode),
                cpu_budget=budgets[0],
                net_budget=budgets[1],
                alpha=request.alpha,
                beta=request.beta,
            )
            best = brute_force_partition(problem)
            self._truth[key] = best.objective if best.feasible else None
        return self._truth[key]

    def check(self, scenario: str, profile, request, result) -> Verdict:
        """Verify one answer (``result=None`` claims infeasibility)."""
        if request.aggregate_fanin != 1.0 or (
            request.formulation.value != "restricted"
        ):
            return Verdict(False, "request shape not supported by verifier")
        budgets = budgets_for(request, profile.platform)
        rate = request.rate_factor
        exact = scenario in BRUTE_FORCE_SCENARIOS
        truth = (
            self._ground_truth(scenario, profile, request, budgets)
            if exact
            else None
        )
        node_pinned, server_pinned = self._pinned(profile, request.mode)
        if result is None:
            if exact:
                if truth is not None:
                    return Verdict(False, "infeasible claimed, brute force "
                                   "found a partition")
                return Verdict(True)
            # Without ground truth, an infeasibility claim is accepted only
            # when the smallest legal node set already breaks a budget.
            cpu, net = loads(profile, node_pinned, rate)
            if cpu > budgets[0] + ABS_TOL or net > budgets[1] + ABS_TOL:
                return Verdict(True)
            return Verdict(False, "infeasible claimed, pinned set fits")

        partition = result.partition
        node_set = set(partition.node_set)
        unproven = result.solution.status.value != "optimal"
        unknown = node_set - set(profile.operators)
        if unknown:
            return Verdict(False, f"unknown operators {sorted(unknown)[:3]}")
        if not node_pinned <= node_set:
            return Verdict(False, "node-pinned operator off the node")
        if node_set & server_pinned:
            return Verdict(False, "server-pinned operator on the node")
        for edge in profile.graph.edges:
            if edge.src not in node_set and edge.dst in node_set:
                return Verdict(False, f"server->node edge {edge.src}->"
                               f"{edge.dst} in a single-crossing answer")
        cpu, net = loads(profile, node_set, rate)
        objective = request.alpha * cpu + request.beta * net
        if cpu > budgets[0] * (1 + REL_TOL) + ABS_TOL:
            return Verdict(False, f"CPU {cpu:.6g} over budget {budgets[0]}")
        if net > budgets[1] * (1 + REL_TOL) + ABS_TOL:
            return Verdict(False, f"net {net:.6g} over budget {budgets[1]}")
        for label, mine, reported in (
            ("cpu", cpu, partition.cpu_utilization),
            ("net", net, partition.network_bytes_per_sec),
            ("objective", objective, partition.objective_value),
        ):
            if not _close(mine, reported):
                return Verdict(False, f"reported {label} {reported!r} != "
                               f"recomputed {mine!r}")
        if exact:
            if truth is None:
                return Verdict(False, "answer given, brute force says "
                               "infeasible")
            slack = max(abs(truth), 1.0) * request.gap_tolerance + ABS_TOL
            if not unproven and objective > truth + slack:
                return Verdict(False, f"objective {objective!r} worse than "
                               f"brute force {truth!r}")
        return Verdict(True, unproven=unproven)
