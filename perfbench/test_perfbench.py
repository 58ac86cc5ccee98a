"""Tests of the benchmark's own parts: seeded generators, the answer
verifier, and the span arithmetic of the traced run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from perfbench import generators, tracing, workloads
from perfbench.verify import Verifier, loads


# -- seeded generators --------------------------------------------------------


def test_fig6_rates_are_seeded():
    assert generators.fig6_rates(7) == generators.fig6_rates(7)
    assert generators.fig6_rates(7) != generators.fig6_rates(8)
    assert sorted(generators.fig6_rates(7)) == sorted(
        generators.fig6_rates(8)
    )
    assert generators.fig6_rates(7, 1) == generators.fig6_rates(7, 1)
    assert set(generators.fig6_rates(7, 1)) != set(
        generators.fig6_rates(8, 1)
    )


def test_fig6_rates_cover_the_sweep_without_repeats():
    first, second = generators.fig6_rates(3, 0), generators.fig6_rates(3, 1)
    step = (generators.FIG6_HIGH - generators.FIG6_LOW) / len(first)
    ordered = sorted(first)
    assert generators.FIG6_LOW <= ordered[0] < generators.FIG6_LOW + step
    assert ordered[-1] < generators.FIG6_HIGH
    assert all(b - a == pytest.approx(step) for a, b in zip(ordered,
                                                            ordered[1:]))
    assert not set(first) & set(second)
    assert generators.FIG6_SETUP_RATE not in first + second


def test_cold_start_specs_are_seeded_and_in_range():
    assert generators.cold_start_specs(5) == generators.cold_start_specs(5)
    assert generators.cold_start_specs(5) != generators.cold_start_specs(6)
    channels = [s["n_channels"] for s in generators.cold_start_specs(5)]
    assert sorted(channels) == list(generators.COLD_CHANNELS)
    assert all(16 <= c <= 44 for c in channels)
    seeds = [s["data_seed"] for s in generators.cold_start_specs(5)]
    assert len(set(seeds)) == len(seeds)


def _served(seed: int, rotations: int = 3):
    stream = generators.ServedStream(seed)
    out = [stream.warmup()]
    out += [stream.rotation() for _ in range(rotations)]
    return out


def test_served_stream_is_seeded():
    assert _served(11) == _served(11)
    assert _served(11) != _served(12)


def test_served_batches_mix_cached_and_new_requests():
    stream = generators.ServedStream(4)
    sent = {name: list(batch) for name, _, batch in stream.warmup()}
    for _ in range(3):
        for name, _, batch in stream.rotation():
            old = [r for r in batch if r in sent[name]]
            new = [r for r in batch if r not in sent[name]]
            assert (len(old), len(new)) == (
                generators.SERVED_CACHED, generators.SERVED_NEW
            )
            low, high = generators.SERVED_RATES[name]
            assert all(low <= r["rate_factor"] <= high for r in new)
            sent[name] += new


# -- the verifier -------------------------------------------------------------


@pytest.fixture(scope="module")
def speech():
    from repro.workbench import PartitionRequest, Session

    session = Session("speech")
    request = PartitionRequest(rate_factor=0.1)
    (result,) = session.partition_many([request])
    return session.service.profile("tmote"), request, result


@pytest.fixture(scope="module")
def slack_speech(speech):
    """A speech answer whose CPU budget is slack, so a feasible but worse
    neighbour exists."""
    from repro.workbench import PartitionRequest, Session

    request = PartitionRequest(rate_factor=0.03)
    (result,) = Session("speech").partition_many([request])
    return speech[0], request, result


def _answer(profile, node_set, rate, beta=1.0, status="optimal"):
    from repro.solver.solution import SolveStatus

    cpu, net = loads(profile, node_set, rate)
    return SimpleNamespace(
        partition=SimpleNamespace(
            node_set=frozenset(node_set),
            cpu_utilization=cpu,
            network_bytes_per_sec=net,
            objective_value=beta * net,
        ),
        solution=SimpleNamespace(status=SolveStatus(status)),
    )


def test_verifier_accepts_the_solver_answer(speech):
    profile, request, result = speech
    assert Verifier().check("speech", profile, request, result).ok


def _moves(profile, node_set):
    """Node sets one operator away from ``node_set`` that keep every edge
    flowing node -> server."""
    edges = profile.graph.edges
    for name in profile.graph.operators:
        if name in node_set:
            if not any(e.src == name and e.dst in node_set for e in edges):
                yield node_set - {name}
        elif all(e.src in node_set for e in edges if e.dst == name):
            yield node_set | {name}


def test_verifier_rejects_an_operator_moved_over_budget(speech):
    profile, request, result = speech
    budget = profile.platform.cpu_budget_fraction
    broken = next(
        moved for moved in _moves(profile, set(result.partition.node_set))
        if loads(profile, moved, request.rate_factor)[0] > budget
    )
    verdict = Verifier().check(
        "speech", profile, request,
        _answer(profile, broken, request.rate_factor),
    )
    assert not verdict.ok and "over budget" in verdict.reason


def test_verifier_rejects_misreported_values(speech):
    profile, request, result = speech
    answer = _answer(profile, result.partition.node_set,
                     request.rate_factor)
    answer.partition.objective_value *= 1.01
    verdict = Verifier().check("speech", profile, request, answer)
    assert not verdict.ok and "objective" in verdict.reason


def test_verifier_rejects_a_suboptimal_speech_answer(slack_speech):
    profile, request, result = slack_speech
    rate = request.rate_factor
    budget = profile.platform.cpu_budget_fraction
    capacity = profile.platform.radio.goodput_capacity_bytes
    best = result.partition.objective_value
    worse = next(
        moved for moved in _moves(profile, set(result.partition.node_set))
        if loads(profile, moved, rate)[0] <= budget
        and capacity >= loads(profile, moved, rate)[1] > best * 1.01
    )
    verdict = Verifier().check(
        "speech", profile, request, _answer(profile, worse, rate)
    )
    assert not verdict.ok and "brute force" in verdict.reason


def test_verifier_rejects_a_false_infeasibility_claim(speech):
    profile, request, _ = speech
    verdict = Verifier().check("speech", profile, request, None)
    assert not verdict.ok


# -- statistics and span arithmetic -------------------------------------------


def test_tail_uses_ten_samples_beyond():
    values = [float(i) for i in range(1, 25)]
    value, percentile, beyond = workloads.tail(values)
    assert beyond == 10 and value == 14.0
    assert percentile == pytest.approx(100 * 14 / 24)
    assert workloads.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    few = [float(i) for i in range(19)]
    assert workloads.tail(few) == (9.0, 50.0, 9)


def _span(pid, sid, parent, layer, name, start, end, op=0):
    return {"pid": pid, "sid": sid, "parent": parent, "layer": layer,
            "name": name, "start": start, "end": end, "op": op,
            "attrs": None}


def test_self_time_subtracts_overlapping_children():
    spans = [
        _span(1, 1, None, "probe", "build", 0.0, 10.0),
        _span(1, 2, 1, "preprocess", "p", 1.0, 4.0),
        _span(1, 3, 1, "formulate", "f", 3.0, 6.0),
    ]
    tracing.self_times(spans)
    assert [s["self"] for s in spans] == pytest.approx([5.0, 3.0, 3.0])


def test_unattributed_counts_time_no_span_covers():
    client, server = 1, 2
    spans = [
        _span(client, 1, None, "client", "partition_many", 0.0, 10.0),
        _span(client, 2, 1, "scenarios", "build", 0.0, 2.0),
        _span(server, 1, None, "cache", "lookup", 3.0, 5.0),
        _span(server, 2, None, "frames", "recv_message", 0.0, 10.0),
    ]
    assert tracing.unattributed(spans, [(0, 0.0, 10.0)]) == [
        pytest.approx(6.0)
    ]
    # The client's blocking read explains nothing: the 4 s of it that no
    # server span covers stay unattributed and are the transport wait.
    spans.append(_span(client, 3, 1, "frames", "recv_message", 5.0, 9.0))
    assert tracing.unattributed(spans, [(0, 0.0, 10.0)]) == [
        pytest.approx(6.0)
    ]
    assert tracing.transport_wait(spans, client) == pytest.approx(4.0)


def test_assign_ops_uses_time_windows_for_other_processes():
    spans = [_span(2, 1, None, "cache", "lookup", 5.5, 6.0, op=None),
             _span(2, 2, None, "cache", "lookup", 9.5, 9.6, op=None)]
    tracing.assign_ops(spans, [(0, 0.0, 5.0), (1, 5.0, 9.0)], client_pid=1)
    assert [s["op"] for s in spans] == [1, None]
    assert math.isclose(spans[0]["end"] - spans[0]["start"], 0.5)


def test_layer_map_covers_every_per_layer_metric():
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parent
    groups = json.loads((root / "layers.json").read_text())["groups"]
    spec = json.loads((root.parent / "BENCHMARK.json").read_text())
    mapped = [name for group in groups for name in group["metrics"]]
    assert mapped == [m["name"] for m in spec["per_layer"]]
    workloads_named = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for group in groups:
        for move in group["moves"]:
            assert move["workload"] in workloads_named
            assert move["metric"] in end_to_end
    computed = tracing.layer_metrics([], [(0, 0.0, 1.0)], 1, None, 0)
    traced_only = {name for name in mapped if name.startswith("trace.")}
    assert set(computed) | traced_only == set(mapped)
