"""Seeded request generators for the three benchmark workloads.

Every stream is a pure function of the seed (and, for multi-pass runs,
of the pass index), built from :class:`random.Random` instances keyed by
workload name, seed and pass, so the same seed always yields the same
requests and no generator shares state with another.  Requests are plain
dicts of :class:`repro.workbench.PartitionRequest` fields; the workloads
turn them into request objects, so this module imports nothing from the
program under test.

Each workload is *stratified*: a fixed structure (rate grid, channel
strata, scenario rotation) sets the mix of cheap and expensive requests,
and the seed picks the order and the rest of each request (data seeds,
cached picks, new rates and budgets).  The mix is identical from seed to
seed, which is what keeps a run's median and tail comparable between
seeds.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

# -- fig6_sweep -------------------------------------------------------------

#: The Fig. 6 sweep range of ``repro.experiments.fig6`` ("everything
#: fits" at 0.25 to "nothing fits" at 40).
FIG6_LOW, FIG6_HIGH = 0.25, 40.0
#: Rates per pass.  One pass of 24 requests is about 37 s of solver time
#: on a 2-core box, so one run covers the whole sweep once.
FIG6_RATES = 24
#: Each rate sits at the centre of its grid bin in the first pass.  The
#: solver's cost is a cliff-shaped function of the rate (neighbouring
#: rates differ up to 40x) and about half the sweep is expensive, so the
#: pass median sits on the cheap/expensive boundary: any seed-dependent
#: shift of the first pass flips the median between ~1.0 s and ~1.8 s.
#: The seed therefore orders the first pass and shifts only later ones.
FIG6_FIRST_OFFSET = 0.5
#: Offset added per further pass (golden-ratio sequence), plus a seeded
#: share of a step: every pass of a run visits new rates, so no request
#: ever hits the result cache.
_PASS_SHIFT = 0.6180339887498949

#: Rate of the setup solve; no grid point reaches it, so it never
#: pre-answers a timed request.
FIG6_SETUP_RATE = FIG6_HIGH


def fig6_rates(seed: int, pass_index: int = 0) -> list[float]:
    """One pass of the Fig. 6 sweep: evenly spaced rates in seeded order;
    passes after the first are shifted by a seeded offset smaller than
    one step."""
    rng = random.Random(f"fig6_sweep:{seed}:{pass_index}")
    offset = FIG6_FIRST_OFFSET
    if pass_index:
        offset += pass_index * _PASS_SHIFT + rng.uniform(0.0, 0.1)
        offset %= 1.0
    step = (FIG6_HIGH - FIG6_LOW) / FIG6_RATES
    rates = [FIG6_LOW + (i + offset) * step for i in range(FIG6_RATES)]
    rng.shuffle(rates)
    return rates


# -- cold_start -------------------------------------------------------------

#: Channel counts of one cold pass (about 25 s of work on a 2-core box).
#: The ends show the superlinear growth (1 s at 16 ch, 10 s at 44); the
#: three 30-ch deployments differ only in their data, which moves a cold
#: request's cost by up to 15%, so the pass median is the median of three
#: like requests instead of one.  A seeded channel count would move the
#: median and the total with the draw, so the counts are fixed and the
#: seed picks each request's data seed and the order.
COLD_CHANNELS = (16, 30, 30, 30, 44)
#: The "everything fits" rate, divided by the channel count.
COLD_RATE_NUMERATOR = 2.2


def cold_start_specs(seed: int, pass_index: int = 0) -> list[dict[str, int]]:
    """One pass of cold requests: ``{"n_channels", "data_seed"}`` per
    channel count, each with a new seeded data seed, in seeded order."""
    rng = random.Random(f"cold_start:{seed}:{pass_index}")
    specs = [
        {"n_channels": channels, "data_seed": rng.randrange(1, 2**31)}
        for channels in COLD_CHANNELS
    ]
    rng.shuffle(specs)
    return specs


# -- served_mixed -----------------------------------------------------------

#: Scenario rotation of the served mix, with each scenario's parameters.
SERVED_SCENARIOS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("eeg", {"n_channels": 22}),
    ("speech", {}),
    ("leak", {}),
)
#: Cheap rate range per scenario (the "everything fits" end).
SERVED_RATES = {
    "eeg": (0.05, 0.3),
    "speech": (0.005, 0.1),
    "leak": (0.05, 1.0),
}
#: CPU budgets drawn for new requests; ``None`` is the platform default.
SERVED_BUDGETS = (None, 0.8, 1.0)
#: Requests per batch answered from the result cache, and new ones.
SERVED_CACHED, SERVED_NEW = 3, 1
#: Size of the warm-up batch sent per scenario during setup.
SERVED_WARMUP = 3


class ServedStream:
    """The served mix: warm-up batches, then rotating 4-request batches.

    Each batch holds :data:`SERVED_CACHED` requests drawn from the
    scenario's already-sent ones (result-cache hits) plus
    :data:`SERVED_NEW` new cheap request (a miss, solved and cached).
    The stream tracks what it has sent, so it is a pure function of the
    seed.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"served_mixed:{seed}")
        self._sent: dict[str, list[dict[str, Any]]] = {
            name: [] for name, _ in SERVED_SCENARIOS
        }

    def _new_request(self, scenario: str) -> dict[str, Any]:
        low, high = SERVED_RATES[scenario]
        while True:
            request = {
                "rate_factor": self._rng.uniform(low, high),
                "cpu_budget": self._rng.choice(SERVED_BUDGETS),
            }
            if request not in self._sent[scenario]:
                break
        self._sent[scenario].append(request)
        return request

    def warmup(self) -> list[tuple[str, dict[str, Any], list[dict]]]:
        """One ``(scenario, params, requests)`` batch per scenario."""
        return [
            (name, dict(params),
             [self._new_request(name) for _ in range(SERVED_WARMUP)])
            for name, params in SERVED_SCENARIOS
        ]

    def rotation(self) -> list[tuple[str, dict[str, Any], list[dict]]]:
        """One batch per scenario, in rotation order."""
        batches = []
        for name, params in SERVED_SCENARIOS:
            batch = self._rng.sample(self._sent[name], SERVED_CACHED)
            batch += [self._new_request(name) for _ in range(SERVED_NEW)]
            self._rng.shuffle(batch)
            batches.append((name, dict(params), batch))
        return batches


def served_rotations(stream: ServedStream) -> Iterator[list]:
    """Endless rotations of a served stream (the run stops them)."""
    while True:
        yield stream.rotation()
