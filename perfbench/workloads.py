"""The three benchmark workloads and the closed loop that times them.

Every workload is driven by one client thread that waits for each reply
before sending the next request (a closed loop).  A run sets up the
workload ``setup_repeats`` times (tearing down all but the last),
then runs whole passes of the seeded request stream until the ops have
taken ``seconds`` in total and the workload's ``min_passes`` are done,
verifies every answer outside the timed region, and tears down.

* ``fig6_sweep`` — one warm in-process EEG session (22 ch); each op is a
  single Fig. 6 request, so the time is nearly all branch and bound.
* ``cold_start`` — each op is the first request against a never-profiled
  EEG deployment of 16..44 channels on a fresh durable store: graph
  build, profiling, store write, costing, preprocessing, formulation and
  an easy solve.
* ``served_mixed`` — a ``PartitionServer(workers=2)`` in its own process
  and one ``ServerClient``; ops are 4-request batches rotating eeg,
  speech and leak, three answered from the result cache and one new.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Any

from . import generators, serve
from .verify import Verifier

#: Set-ups per run of an in-process workload; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Branch-and-bound time limit of a fig6 request.  ``experiments.fig6``
#: uses 30 s, but a run must end in well under a minute.  On a 2-core box
#: the 24 rates of a pass take 0.04-2.3 s each, except six that need 4 s
#: to over 30 s; 3 s caps exactly those six (they report
#: ``solver.unproven``), so the op at ``op_tail_s`` (the eleventh slowest)
#: and the median are both uncapped solves, with headroom for a slower
#: host.
FIG6_TIME_LIMIT = 3.0
#: Client-side timeout of one served batch; a batch that takes longer
#: counts as failed.
SERVED_TIMEOUT = 30.0


@dataclass
class Context:
    """What a workload needs from the command line and the checkout."""

    root: Path
    scratch: Path
    seed: int
    seconds: float
    trace_dir: Path | None = None


@dataclass
class OpRecord:
    op_id: int
    start: float
    end: float
    requests: int
    cpu_s: float = 0.0
    failed: bool = False
    reason: str = ""
    unproven: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


# -- /proc readers ------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs: how much CPU time the host
    took from this machine, for judging noisy runs."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def _timed(fn) -> float:
    start = time.monotonic()
    fn()
    return time.monotonic() - start


# -- workloads ----------------------------------------------------------------


class _InProcess:
    """Shared parts of the two in-process workloads."""

    scenario = "eeg"
    #: Whole passes a run makes at least.
    min_passes = 1
    setup_repeats = SETUP_REPEATS

    def __init__(self, ctx: Context, verifier: Verifier) -> None:
        self.ctx = ctx
        self.verifier = verifier
        self.session = None

    def requests_in(self, item) -> int:
        return 1

    def check(self, record: OpRecord, item, answers) -> None:
        profile = self.session.service.profile("tmote")
        for request, result in answers:
            verdict = self.verifier.check(
                self.scenario, profile, request, result
            )
            record.unproven += int(verdict.unproven)
            if not verdict.ok:
                record.failed, record.reason = True, verdict.reason

    def pids(self) -> list[int]:
        return [os.getpid()]

    def cpu_counted_per_op(self) -> bool:
        return True


class Fig6Sweep(_InProcess):
    name = "fig6_sweep"

    @staticmethod
    def request(rate: float):
        from repro.workbench import PartitionRequest

        return PartitionRequest(
            rate_factor=rate,
            cpu_budget=1.0,
            net_budget=math.inf,
            gap_tolerance=5e-3,
            time_limit=FIG6_TIME_LIMIT,
        )

    def setup(self) -> None:
        from repro.workbench import Session

        self.session = Session("eeg", n_channels=22)
        self.session.partition_many(
            [self.request(generators.FIG6_SETUP_RATE)], skip_infeasible=True
        )

    def passes(self):
        for index in count():
            yield generators.fig6_rates(self.ctx.seed, index)

    def op(self, rate: float):
        request = self.request(rate)
        (result,) = self.session.partition_many(
            [request], skip_infeasible=True
        )
        return [(request, result)]

    def after_op(self) -> None:
        pass

    def teardown(self) -> float:
        def release():
            self.session = None
            gc.collect()

        return _timed(release)

    def teardown_samples(self, final: float, earlier: list[float]):
        return earlier + [final]


class ColdStart(_InProcess):
    name = "cold_start"

    def __init__(self, ctx: Context, verifier: Verifier) -> None:
        super().__init__(ctx, verifier)
        self.releases: list[float] = []

    def _cold_request(self, channels: int, data_seed: int) -> list:
        from repro.workbench import PartitionRequest, ProfileStore, Session

        self.store_dir = tempfile.mkdtemp(dir=self.ctx.scratch)
        self.session = Session(
            "eeg",
            store=ProfileStore(self.store_dir),
            n_channels=channels,
            seed=data_seed,
        )
        request = PartitionRequest(
            platform="tmote",
            rate_factor=generators.COLD_RATE_NUMERATOR / channels,
        )
        (result,) = self.session.partition_many([request])
        return [(request, result)]

    def _release(self) -> float:
        def release():
            self.session = None
            gc.collect()
            shutil.rmtree(self.store_dir)

        return _timed(release)

    def setup(self) -> None:
        # Warm-up: a 2-channel cold request pays the lazy imports and
        # first-call costs, so the first timed op is as cold as the rest.
        self._cold_request(2, self.ctx.seed)
        self._release()

    def passes(self):
        for index in count():
            yield [
                (spec["n_channels"], spec["data_seed"])
                for spec in generators.cold_start_specs(self.ctx.seed, index)
            ]

    def op(self, item):
        return self._cold_request(*item)

    def after_op(self) -> None:
        self.releases.append(self._release())

    def teardown(self) -> float:
        """Nothing is left: each op released its own session and store,
        and those releases are this workload's teardowns."""
        return 0.0

    def teardown_samples(self, final: float, earlier: list[float]):
        return list(self.releases)


class ServedMixed:
    name = "served_mixed"
    #: A pass is one eeg, one speech and one leak batch, and an eeg batch
    #: takes about 40 times as long as the others.  ``op_tail_s`` is the
    #: eleventh-slowest op, so it is an eeg batch only once a run holds
    #: at least eleven of them.  With sixteen it is the sixth-fastest eeg
    #: batch, well inside their spread: a few unusually fast or slow eeg
    #: batches in a run do not move it, where with twelve (the
    #: second-fastest) two fast ones could drop it to a speech batch.
    min_passes = 16
    #: A served set-up and the teardown after it take about 9 s (the
    #: server start, three warm-up batches, and ``PartitionServer.close``,
    #: which waits 2 s), so a run sets up twice and ``setup_s`` is the
    #: median (mean) of two, which keeps a run of sixteen passes near a
    #: minute.
    setup_repeats = 2

    def __init__(self, ctx: Context, verifier: Verifier) -> None:
        self.ctx = ctx
        self.verifier = verifier
        self.deferred: list[tuple[OpRecord, str, dict, list]] = []
        self.process: subprocess.Popen | None = None
        self.client = None

    def setup(self) -> None:
        from repro.workbench import ServerClient

        self.store_dir = tempfile.mkdtemp(dir=self.ctx.scratch)
        command = [
            sys.executable, "-m", "perfbench.serve",
            "--store", self.store_dir,
        ]
        if self.ctx.trace_dir is not None:
            command += ["--trace-dir", str(self.ctx.trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.ctx.root / "src"), str(self.ctx.root)]
        )
        self.process = subprocess.Popen(
            command, cwd=self.ctx.root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("partition server exited during start-up")
        info = json.loads(line)
        self.server_pid = info["pid"]
        self.worker_pids = info["workers"]
        self.client = ServerClient(
            (info["host"], info["port"]), timeout=SERVED_TIMEOUT
        )
        self.stream = generators.ServedStream(self.ctx.seed)
        for item in self.stream.warmup():
            self.op(item)

    def passes(self):
        return generators.served_rotations(self.stream)

    def requests_in(self, item) -> int:
        return len(item[2])

    def op(self, item):
        from repro.workbench import PartitionRequest

        scenario, params, batch = item
        requests = [PartitionRequest(**spec) for spec in batch]
        results = self.client.partition_many(
            scenario, requests, params=params, skip_infeasible=True
        )
        return list(zip(requests, results))

    def check(self, record: OpRecord, item, answers) -> None:
        # Reference profiles are built after the run, outside every timed
        # region and off the server's processes.
        self.deferred.append((record, item[0], item[1], answers))

    def after_op(self) -> None:
        pass

    def verify_deferred(self) -> None:
        from repro.workbench import Session

        profiles: dict[str, Any] = {}
        for record, scenario, params, answers in self.deferred:
            if scenario not in profiles:
                profiles[scenario] = Session(
                    scenario, **params
                ).service.profile("tmote")
            for request, result in answers:
                verdict = self.verifier.check(
                    scenario, profiles[scenario], request, result
                )
                record.unproven += int(verdict.unproven)
                if not verdict.ok:
                    record.failed, record.reason = True, verdict.reason
        self.deferred.clear()

    def pids(self) -> list[int]:
        return [self.server_pid] + list(self.worker_pids)

    def cpu_counted_per_op(self) -> bool:
        return False

    def teardown(self) -> float:
        """``ServerClient.close`` + ``PartitionServer.close`` (timed in the
        server process); the interpreter's exit is not counted."""
        client_close = _timed(self.client.close)
        self.process.stdin.write("close\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        if not line:
            raise RuntimeError("partition server died before closing")
        return client_close + json.loads(line)["close_s"]

    def kill(self) -> None:
        """Stop the server process after a failure: end of input makes it
        close the pool and exit; kill it if it does not."""
        if self.process is None or self.process.poll() is not None:
            return
        try:
            self.process.stdin.close()
            self.process.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=15)

    def teardown_samples(self, final: float, earlier: list[float]):
        return earlier + [final]


CLASSES = {cls.name: cls for cls in (Fig6Sweep, ColdStart, ServedMixed)}


# -- the closed loop ----------------------------------------------------------


@dataclass
class PassStats:
    """One pass of the request stream: what it asked, answered, cost."""

    requests: int = 0
    answered: int = 0
    busy_s: float = 0.0
    cpu_s: float = 0.0


@dataclass
class LoopResult:
    records: list[OpRecord]
    executed: list[list]
    passes: list[PassStats]
    peak_rss_mb: float
    cpu_steal_frac: float
    ops: list[tuple[int, float, float]] = field(default_factory=list)


def timed_loop(workload, passes, seconds: float, recorder=None) -> LoopResult:
    """Run whole passes until the ops have taken ``seconds`` and the
    workload's ``min_passes`` are done."""
    pids = workload.pids()
    per_op = workload.cpu_counted_per_op()
    records: list[OpRecord] = []
    executed: list[list] = []
    stats: list[PassStats] = []
    busy = 0.0
    op_ids = count()
    steal_start = cpu_steal_ticks()
    for items in passes:
        done, pass_stats = [], PassStats()
        cpu_start = 0.0 if per_op else sum(map(proc_cpu_seconds, pids))
        for item in items:
            record = OpRecord(next(op_ids), 0.0, 0.0,
                              workload.requests_in(item))
            if recorder is not None:
                recorder.op = record.op_id
            cpu0 = time.process_time()
            record.start = time.monotonic()
            try:
                answers = workload.op(item)
            except Exception as exc:  # a failed op is counted, not fatal
                answers = None
                record.failed = True
                record.reason = f"{type(exc).__name__}: {exc}"
            record.end = time.monotonic()
            record.cpu_s = time.process_time() - cpu0
            if recorder is not None:
                recorder.op = None
            if answers is not None:
                workload.check(record, item, answers)
            workload.after_op()
            records.append(record)
            done.append(item)
            pass_stats.busy_s += record.latency
            pass_stats.cpu_s += record.cpu_s if per_op else 0.0
            pass_stats.requests += record.requests
        if not per_op:
            pass_stats.cpu_s = sum(map(proc_cpu_seconds, pids)) - cpu_start
        executed.append(done)
        stats.append(pass_stats)
        busy += pass_stats.busy_s
        if busy >= seconds and len(stats) >= workload.min_passes:
            break
    peak = max(map(proc_peak_rss_mb, pids))
    steal_end = cpu_steal_ticks()
    steal = (steal_end[0] - steal_start[0]) / max(
        steal_end[1] - steal_start[1], 1
    )
    return LoopResult(
        records, executed, stats, peak, steal,
        [(r.op_id, r.start, r.end) for r in records],
    )


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    with at least ten samples beyond it.  Below 20 ops that percentile
    would fall under the median, so the median is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n // 2
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(loop: LoopResult, setups: list[float], teardowns: list[float],
               import_s: float) -> dict[str, Any]:
    records = loop.records
    latencies = [r.latency for r in records]
    failed_ops = sum(r.failed for r in records)
    tail_s, tail_pct, beyond = tail(latencies)
    # Served answers are verified after the loop, so count them now.
    start = 0
    for stats, items in zip(loop.passes, loop.executed):
        done = records[start:start + len(items)]
        start += len(items)
        stats.answered = sum(r.requests for r in done if not r.failed)
    # Throughput and CPU cost are medians over passes: a pass is one
    # complete mix of the workload's requests.
    requests_per_s = statistics.median(
        p.answered / p.busy_s for p in loop.passes
    )
    cpu_per_request = statistics.median(
        p.cpu_s / p.requests for p in loop.passes
    )
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "teardown_s": (statistics.median(teardowns), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "requests_per_s": (requests_per_s, "1/s"),
        "verified_frac": (1.0 - failed_ops / len(records), "frac"),
        "cpu_s_per_request": (cpu_per_request, "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    details = {
        "ops": len(records),
        "requests": sum(r.requests for r in records),
        "passes": len(loop.passes),
        "failed_ops": failed_ops,
        "failed_frac": failed_ops / len(records),
        "unproven_requests": sum(r.unproven for r in records),
        "timed_s": sum(latencies),
        "cpu_steal_frac": loop.cpu_steal_frac,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "import_s": import_s,
        "teardown_samples_s": teardowns,
        "latencies_s": latencies,
        "failures": [
            {"op": r.op_id, "reason": r.reason} for r in records if r.failed
        ][:20],
    }
    return {"metrics": metrics, "details": details}


def _finish(workload) -> float:
    teardown = workload.teardown()
    if isinstance(workload, ServedMixed):
        workload.verify_deferred()
    return teardown


def run_untraced(name: str, ctx: Context, import_s: float,
                 repeats: int | None = None):
    """Set up ``repeats`` times (by default the workload's
    ``setup_repeats``), run the timed loop on the last set-up."""
    if repeats is None:
        repeats = CLASSES[name].setup_repeats
    verifier = Verifier()
    setups, teardowns = [], []
    workload = None
    try:
        for attempt in range(repeats):
            workload = CLASSES[name](ctx, verifier)
            setups.append(_timed(workload.setup))
            if attempt < repeats - 1:
                teardowns.append(workload.teardown())
        loop = timed_loop(workload, workload.passes(), ctx.seconds)
        final = _finish(workload)
    except BaseException:
        if isinstance(workload, ServedMixed):
            workload.kill()
        raise
    teardowns = workload.teardown_samples(final, teardowns)
    return loop, end_to_end(loop, setups, teardowns, import_s)


def run_traced(name: str, ctx: Context, executed: list[list]):
    """Replay ``executed`` with every layer wrapped; per-layer metrics."""
    from repro.workbench import register_builtin_scenarios

    from . import tracing

    # Fresh scenario objects: the untraced pass memoized the graph
    # fingerprints of every request it sent, which would make a replayed
    # cold start warmer than the original.
    register_builtin_scenarios()
    ctx.trace_dir = ctx.scratch / "trace"
    recorder = tracing.install(ctx.trace_dir)
    verifier = Verifier()
    workload = CLASSES[name](ctx, verifier)
    try:
        workload.setup()
        loop = timed_loop(workload, executed, math.inf, recorder=recorder)
        _finish(workload)
    except BaseException:
        if isinstance(workload, ServedMixed):
            workload.kill()
        raise
    recorder.dump()
    spans = tracing.load_spans(ctx.trace_dir)
    server_pid = getattr(workload, "server_pid", None)
    tracing.assign_ops(spans, loop.ops, recorder.pid)
    tracing.self_times(spans)
    workers = serve.WORKERS if isinstance(workload, ServedMixed) else 0
    layers = tracing.layer_metrics(
        spans, loop.ops, recorder.pid, server_pid, workers
    )
    gaps = tracing.unattributed(spans, loop.ops)
    return loop, layers, gaps
