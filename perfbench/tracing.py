"""Span recording for the traced benchmark run.

:func:`install` wraps public entry points of every layer of the program
(solver, formulation, profiling, caches, artifacts, frames, client,
pool) from the outside: the program's source is not touched.  Each call
becomes one span — layer, name, start, end, parent span, op id and a few
counters — appended to an in-memory list and written out as JSON lines
when the process ends.  Processes forked after :func:`install` (the
partition server's workers) inherit the wrappers, start a fresh span list
and write their own file.

:func:`load_spans` reads every process's spans back and
:func:`assign_ops` assigns them to the benchmark's ops: by op id in the
client process, by time window in the server processes (all processes
share ``CLOCK_MONOTONIC``).  :func:`layer_metrics` then derives the
per-layer metrics; a layer's *self* time is its spans' duration minus
the part covered by their child spans.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: Span-record field order (one JSON list per line on disk).
FIELDS = ("pid", "sid", "parent", "layer", "name", "start", "end", "op",
          "attrs")


class Recorder:
    """In-memory span list of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.op: Any = None
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.op = None

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self.stack()
        return stack[-1] if stack else None

    def dump(self) -> Path:
        """Write this process's spans to ``spans-<pid>.jsonl``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps([self.pid] + span) + "\n")
        return path


def _wrap(recorder: Recorder, layer: str, name: str, fn: Callable,
          pre: Callable | None = None, post: Callable | None = None):
    """``fn`` recorded as one span per call.

    ``pre(args, kwargs)`` runs before the call and its value is handed to
    ``post(state, args, kwargs, result)``, which returns the span's
    counters; both run outside the span's own interval.
    """

    def wrapper(*args, **kwargs):
        state = pre(args, kwargs) if pre is not None else None
        stack = recorder.stack()
        span = [next(recorder._ids), stack[-1][0] if stack else None,
                layer, name, 0.0, 0.0, recorder.op, None]
        stack.append(span)
        span[4] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = time.monotonic()
            stack.pop()
            span[7] = {"error": type(exc).__name__}
            recorder.spans.append(span)
            raise
        span[5] = time.monotonic()
        stack.pop()
        if post is not None:
            span[7] = post(state, args, kwargs, result)
        recorder.spans.append(span)
        return result

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    (``from x import f`` copies the name) at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


# -- counters read off calls ------------------------------------------------


def _solution_attrs(state, args, kwargs, solution):
    unproven = solution.status.value in ("feasible", "limit")
    attrs = {
        "nodes": solution.nodes_explored,
        "lp_iterations": solution.iterations,
        "unproven": int(unproven),
    }
    if unproven and solution.objective is not None \
            and solution.bound is not None:
        # Relative gap between the final incumbent and the proven bound.
        attrs["gap"] = (solution.objective - solution.bound) / max(
            abs(solution.objective), 1e-9
        )
    return attrs


def _preprocess_attrs(state, args, kwargs, reduced):
    return {
        "vertices_in": len(args[0].vertices),
        "clusters_out": len(reduced.problem.vertices),
    }


def _arrays_attrs(state, args, kwargs, arrays):
    return {
        "variables": int(arrays.c.shape[0]),
        "rows": int(arrays.a_ub.shape[0] + arrays.a_eq.shape[0]),
    }


def _measure_attrs(state, args, kwargs, measurement):
    return {
        "op_invocations": sum(
            s.invocations for s in measurement.stats.operators.values()
        )
    }


def _store_pre(args, kwargs):
    stats = args[0].stats
    return stats.hits, stats.misses


def _store_attrs(state, args, kwargs, result):
    stats = args[0].stats
    return {"hits": stats.hits - state[0], "misses": stats.misses - state[1]}


def _lookup_attrs(state, args, kwargs, entry):
    return {"hit": int(entry is not None)}


def _add_bytes(recorder: Recorder, count: int) -> None:
    span = recorder.current()
    if span is not None:
        attrs = span[7] if span[7] is not None else {}
        attrs["bytes"] = attrs.get("bytes", 0) + count
        span[7] = attrs


# -- installation -------------------------------------------------------------


def install(out_dir: Path) -> Recorder:
    """Wrap every layer's public entry points; returns the recorder.

    Call it once per process, before the partition server forks its
    workers, so they inherit the wrappers.
    """
    # import_module, not ``from package import name``: ``repro.core``
    # re-exports the *function* ``preprocess`` under its module's name.
    (partitioner, preprocess, probe, profiler, records, frames, model,
     artifacts, cache, scenarios, server, session, store) = (
        importlib.import_module(f"repro.{name}") for name in (
            "core.partitioner", "core.preprocess", "core.probe",
            "profiler.profiler", "profiler.records", "runtime.frames",
            "solver.model", "workbench.artifacts", "workbench.cache",
            "workbench.scenarios", "workbench.server", "workbench.session",
            "workbench.store",
        )
    )

    recorder = Recorder(out_dir)

    def method(cls, attr, layer, name, pre=None, post=None):
        setattr(cls, attr,
                _wrap(recorder, layer, name, getattr(cls, attr), pre, post))

    def function(module, attr, layer, name, pre=None, post=None):
        original = getattr(module, attr)
        _rebind(original,
                _wrap(recorder, layer, name, original, pre, post))

    Wishbone = partitioner.Wishbone
    method(Wishbone, "solve_arrays", "solver", "solve_arrays",
           post=_solution_attrs)
    method(Wishbone, "build_problem", "problem", "build_problem")
    function(preprocess, "preprocess", "preprocess", "preprocess",
             post=_preprocess_attrs)
    method(Wishbone, "formulate", "formulate", "formulate")
    method(model.LinearProgram, "to_arrays", "formulate", "to_arrays",
           post=_arrays_attrs)
    method(probe.ScaledProbe, "__init__", "probe", "ScaledProbe")
    function(session, "build_group_probe", "probe", "build_group_probe")
    method(scenarios.Scenario, "build", "scenarios", "build")
    method(scenarios.Scenario, "instantiate", "scenarios", "instantiate")
    method(profiler.Profiler, "measure", "profiler", "measure",
           post=_measure_attrs)
    method(store.ProfileStore, "measurement", "store", "measurement",
           pre=_store_pre, post=_store_attrs)
    method(profiler.Measurement, "on", "costing", "on")
    method(records.GraphProfile, "scaled", "costing", "scaled")
    method(Wishbone, "package_result", "package", "package_result")
    function(cache, "result_key", "cache", "result_key")
    method(cache.ResultCache, "lookup", "cache", "lookup",
           post=_lookup_attrs)
    method(cache.ResultCache, "materialize", "cache", "materialize")
    method(cache.ResultCache, "store", "cache", "store")
    method(cache.ResultCache, "store_document", "cache", "store_document")
    function(artifacts, "to_document", "artifacts", "encode")
    function(artifacts, "from_document", "artifacts", "decode")
    function(artifacts, "write_document", "artifacts", "write")
    function(frames, "send_message", "frames", "send")
    # A received message is a blocking read (waiting on the peer, a
    # ``recv_message`` span) around its decode (``recv``, the frames
    # layer's own cost).
    function(frames, "recv_message", "frames", "recv_message")
    prefix = frames.LENGTH_PREFIX.size
    function(frames, "decode_message", "frames", "recv",
             post=lambda state, args, kwargs, result: {
                 "bytes": len(args[0]) + len(args[1]) + 2 * prefix})
    _count_sent_bytes(recorder, frames)
    method(server.ServerClient, "partition_many", "client",
           "partition_many")
    method(server.WorkerPool, "submit", "pool", "submit")
    function(session, "solve_group", "pool", "solve_group")

    worker_main = server._worker_main

    def traced_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            recorder.dump()

    server._worker_main = traced_worker_main
    return recorder


def _count_sent_bytes(recorder: Recorder, frames) -> None:
    """Add each written frame's wire size to the enclosing send span."""
    original = frames.write_frame
    prefix = frames.LENGTH_PREFIX.size

    def counted(stream, data, *args, **kwargs):
        _add_bytes(recorder, len(data) + prefix)
        return original(stream, data, *args, **kwargs)

    counted.__wrapped__ = original
    _rebind(original, counted)


# -- analysis -----------------------------------------------------------------


def load_spans(trace_dir: Path) -> list[dict[str, Any]]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                spans.append(dict(zip(FIELDS, json.loads(line))))
    return spans


def _uncovered(start: float, end: float,
               intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` that none of ``intervals`` covers."""
    covered, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return max(end - start - covered, 0.0)


def self_times(spans: list[dict[str, Any]]) -> None:
    """Set ``span["self"]``: duration minus the union of its children."""
    children: dict[tuple, list] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["pid"], span["parent"]].append(
                (span["start"], span["end"])
            )
    for span in spans:
        span["self"] = _uncovered(
            span["start"], span["end"],
            children.get((span["pid"], span["sid"]), ()),
        )


def assign_ops(spans, ops, client_pid: int) -> None:
    """Set ``span["op"]`` for server-side spans from the op windows
    (``ops`` = sorted list of ``(op_id, start, end)``)."""
    starts = [start for _, start, _ in ops]
    for span in spans:
        if span["pid"] == client_pid:
            continue
        i = bisect.bisect_right(starts, span["start"]) - 1
        if i >= 0 and span["start"] <= ops[i][2]:
            span["op"] = ops[i][0]
        else:
            span["op"] = None


#: The blocking frame read.  A server-side one includes the idle time
#: between requests; the client's spans the whole server round trip.
READ_SPAN = ("frames", "recv_message")
#: Spans that say nothing about where an op's time went, so coverage
#: ignores them: the client call that encloses a whole served op, and
#: every blocking frame read.  A client waiting on a transport stall or
#: on server code outside the wrapped layers is therefore unattributed.
UNCOVERING_SPANS = frozenset({("client", "partition_many"), READ_SPAN})


def _covers(span) -> bool:
    return (span["layer"], span["name"]) not in UNCOVERING_SPANS


def transport_wait(spans, client_pid: int) -> float:
    """Time the client sat in a blocking frame read while no layer span
    ran in any server process: transport stalls plus server code outside
    the wrapped layers."""
    reads = [
        (s["start"], s["end"]) for s in spans
        if s["pid"] == client_pid and (s["layer"], s["name"]) == READ_SPAN
        and s["op"] is not None
    ]
    remote = [
        (s["start"], s["end"]) for s in spans
        if s["pid"] != client_pid and s["op"] is not None and _covers(s)
    ]
    return sum(_uncovered(a, b, remote) for a, b in reads)


def unattributed(spans, ops) -> list[float]:
    """Per op: the time no layer span (in any process) covers."""
    by_op: dict[Any, list] = defaultdict(list)
    for span in spans:
        if _covers(span):
            by_op[span["op"]].append((span["start"], span["end"]))
    return [
        _uncovered(start, end, by_op.get(op_id, ()))
        for op_id, start, end in ops
    ]


def layer_metrics(spans, ops, client_pid: int, server_pid: int | None,
                  workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (per-op means unless the
    name says otherwise)."""
    op_ids = {op_id for op_id, _, _ in ops}
    n_ops = max(len(ops), 1)
    busy = sum(end - start for _, start, end in ops)
    timed = [s for s in spans if s["op"] in op_ids]
    worker_side = {s["pid"] for s in timed} - {client_pid, server_pid}

    def pick(layer, *names, pids=None):
        return [
            s for s in timed
            if s["layer"] == layer and (not names or s["name"] in names)
            and (pids is None or s["pid"] in pids)
        ]

    def total(selection, key="self"):
        return sum(s[key] for s in selection)

    def counter(selection, name):
        return sum((s["attrs"] or {}).get(name, 0) for s in selection)

    def per_call(selection, name):
        return counter(selection, name) / len(selection) if selection else 0.0

    m: dict[str, float] = {}
    solves = pick("solver")
    m["solver.solve_s"] = total(solves) / n_ops
    m["solver.calls"] = len(solves) / n_ops
    m["solver.nodes"] = counter(solves, "nodes") / n_ops
    m["solver.lp_iterations"] = counter(solves, "lp_iterations") / n_ops
    solve_time = total(solves, "self")
    m["solver.nodes_per_s"] = (
        counter(solves, "nodes") / solve_time if solve_time else 0.0
    )
    m["solver.unproven"] = counter(solves, "unproven") / n_ops
    m["solver.unproven_gap"] = per_call(
        [s for s in solves if "gap" in (s["attrs"] or {})], "gap"
    )

    m["problem.build_s"] = total(pick("problem")) / n_ops
    pre = pick("preprocess")
    m["preprocess.s"] = total(pre) / n_ops
    m["preprocess.vertices_in"] = per_call(pre, "vertices_in")
    m["preprocess.clusters_out"] = per_call(pre, "clusters_out")
    m["formulate.s"] = total(pick("formulate")) / n_ops
    arrays = pick("formulate", "to_arrays")
    m["formulate.variables"] = per_call(arrays, "variables")
    m["formulate.rows"] = per_call(arrays, "rows")
    probes = pick("probe")
    builds = len(pick("probe", "ScaledProbe"))
    m["probe.build_s"] = total(probes) / n_ops
    m["probe.builds"] = float(builds)
    m["probe.builds_per_batch"] = builds / n_ops

    scen = pick("scenarios")
    m["scenarios.build_s"] = total(scen) / n_ops
    m["scenarios.build_calls"] = len(pick("scenarios", "build")) / n_ops

    measures = pick("profiler")
    m["profiler.measure_s"] = total(measures) / n_ops
    m["profiler.op_invocations"] = counter(measures, "op_invocations") / n_ops
    stores = pick("store")
    m["store.self_s"] = total(stores) / n_ops
    m["store.hits"] = counter(stores, "hits") / n_ops
    m["store.misses"] = counter(stores, "misses") / n_ops
    m["costing.on_s"] = total(pick("costing", "on")) / n_ops
    m["costing.scaled_s"] = total(pick("costing", "scaled")) / n_ops
    m["package.s"] = total(pick("package")) / n_ops

    m["cache.key_s"] = total(pick("cache", "result_key")) / n_ops
    lookups = pick("cache", "lookup")
    hits = counter(lookups, "hit")
    m["cache.lookup_s"] = total(lookups) / n_ops
    m["cache.hits"] = hits / n_ops
    m["cache.misses"] = (len(lookups) - hits) / n_ops
    m["cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    m["cache.materialize_s"] = total(pick("cache", "materialize")) / n_ops
    m["cache.store_s"] = (
        total(pick("cache", "store", "store_document")) / n_ops
    )
    m["artifacts.encode_s"] = total(pick("artifacts", "encode")) / n_ops
    m["artifacts.decode_s"] = total(pick("artifacts", "decode")) / n_ops
    m["artifacts.write_s"] = total(pick("artifacts", "write")) / n_ops

    sends, recvs = pick("frames", "send"), pick("frames", "recv")
    client = {client_pid}
    m["frames.send_s"] = total(sends) / n_ops
    m["frames.recv_s"] = total(recvs) / n_ops
    m["frames.bytes_sent"] = counter(
        pick("frames", "send", pids=client), "bytes") / n_ops
    m["frames.bytes_received"] = counter(
        pick("frames", "recv", pids=client), "bytes") / n_ops
    m["frames.messages"] = len(
        pick("frames", "send", "recv", pids=client)) / n_ops
    m["frames.wait_s"] = transport_wait(timed, client_pid) / n_ops
    calls = pick("client")
    m["client.call_s"] = total(calls) / n_ops
    m["client.decode_s"] = total(
        pick("artifacts", "decode", pids=client)) / n_ops if calls else 0.0
    m["pool.jobs"] = len(pick("pool", "submit")) / n_ops
    worker_solve = sum(
        s["end"] - s["start"]
        for s in pick("pool", "solve_group", pids=worker_side)
    )
    m["pool.worker_solve_s"] = worker_solve / n_ops
    m["pool.worker_busy_frac"] = (
        worker_solve / (workers * busy) if workers and busy else 0.0
    )
    return m
