"""The three workloads: set-up, timed loop and end-to-end metrics.

``cold_batch``      closed loop, one client; each request is one
                    ``QueryService.execute_many`` on a fresh batch of
                    three star-join reports (plan-cache misses, inline
                    columnar execution).  Frontend, cse and optimizer
                    do nearly all the work.
``warm_exec``       closed loop, one client; single reports of one cost
                    class, round-robin, every plan warmed in set-up
                    (plan-cache hits), columnar on the thread runtime
                    with 2 workers.  ``repro.exec`` does nearly all
                    the work.
``admission_open``  open loop; seeded arrivals from one generator
                    thread into an ``AdmissionController`` in its
                    production mode, over a geometric ladder of offered
                    rates that brackets the latency knee, plus a
                    back-to-back burst that saturates the controller.
                    Every merged composition is warmed in set-up, so
                    no timed window runs the optimizer.

Set-up is deterministic CPU work with explicit warm-up calls: no sleep,
no real-clock window and no drainer thread runs before timing starts.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cse.merge import canonicalize, script_fingerprint
from repro.frontend import compile_text
from repro.plan.physical import PhysSpool
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    QueryService,
)
from repro.workloads.starjoin import (
    generate_starjoin_data,
    make_starjoin_catalog,
)

from common import (
    ADMISSION_QUERIES,
    COLD_CONSTANTS,
    SLO_S,
    WARM_QUERIES,
    Oracle,
    Sample,
    cold_batch_texts,
    median,
    query_text,
    sorted_outputs,
    tail,
)

#: Set-ups before and again after the timed phase: each time at least
#: this many, and until this much time has been spent setting up.
#: ``setup_s`` is the median of both series, so it samples the host at
#: both ends of the run and not only during its first seconds.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 2.0

#: Sizes per scale; ``tiny`` is the self-check's.
PARAMS = {
    "full": {
        "cold_batch": {"n_sales": 6_000, "cache_capacity": 8},
        "warm_exec": {"n_sales": 90_000},
        "admission_open": {"n_sales": 1_000, "base_rate": 12.0,
                           "steps": 8, "passes": 4},
    },
    "tiny": {
        "cold_batch": {"n_sales": 300, "cache_capacity": 2},
        "warm_exec": {"n_sales": 1_000},
        "admission_open": {"n_sales": 500, "base_rate": 8.0, "steps": 2,
                           "passes": 1},
    },
}

#: Ratio between neighbouring rates of the admission ladder.
LADDER_RATIO = math.sqrt(2.0)
#: A generator this far behind schedule has passed the knee; the ladder
#: stops there so a run stays within its time.
MAX_GENERATOR_LAG_S = 2.0
#: Length of the lowest rate's step, which gives the latency metrics,
#: and of each pass's saturating burst, in ladder steps.
LOW_STEPS = 2.0
BURST_STEPS = 4.0
#: Submissions per burst, per second of its nominal length: about the
#: controller's capacity on a 2-vCPU VM, so a burst lasts about
#: ``BURST_STEPS`` steps.  A fixed count, not a fixed time, keeps the
#: memory the run retains (tickets, the service's event log) the same
#: however fast the program is.
BURST_RATE = 600.0
#: A burst stops early after this many times its nominal length.
BURST_MAX_STRETCH = 3.0
#: ``Sample.extra["step"]`` of the burst's submissions.
BURST = "burst"


@dataclass
class State:
    """Everything a workload built in set-up."""

    name: str
    seed: int
    params: Dict[str, object]
    data: Dict[str, list]
    catalog: object
    service: QueryService
    #: Execution settings every request runs with.
    exec_kwargs: Dict[str, object]
    #: Closed loops: the request stream; open loop: the script pool.
    requests: List[List[str]] = field(default_factory=list)
    controller: Optional[AdmissionController] = None

    @property
    def workers(self) -> int:
        return int(self.exec_kwargs.get("workers", 0))


@dataclass
class Timed:
    """Outcome of one timed phase."""

    samples: List[Sample]
    cache_evictions: int = 0
    #: Open loop only: per-step summaries and generator lateness.
    steps: List[Dict[str, float]] = field(default_factory=list)
    #: Open loop only: per pass, the burst's start, end and submissions.
    bursts: List[Dict[str, float]] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    #: Open loop only: per executed window, its ``run``, the counters
    #: copied from it (``probe``), its submissions' ``texts`` and the
    #: ``steps`` they were sent in.
    windows: List[Dict[str, object]] = field(default_factory=list)
    admission: Dict[str, float] = field(default_factory=dict)
    resolve_latencies: List[float] = field(default_factory=list)


def _note_error(sample: Sample, exc: BaseException) -> None:
    sample.error = f"{type(exc).__name__}: {exc}"
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)


def _fill_from_run(sample: Sample, run) -> None:
    """Copy a run's counters into ``sample`` (outside the timed span)."""
    metrics = run.metrics
    sample.submit_latency = run.submit.latency
    sample.cache_hit = run.submit.cache_hit
    sample.rows = metrics.rows_processed()
    sample.cost = run.submit.result.cost
    extra = sample.extra
    extra["rows_shuffled"] = metrics.rows_shuffled
    extra["rows_spooled"] = metrics.rows_spooled
    extra["task_retries"] = metrics.task_retries
    graph = run.stage_graph
    if graph is None:
        sample.bad_spools = _inline_spool_reruns(run.submit.result.plan,
                                                 metrics.operator_invocations)
        return
    spools = graph.spool_vertices()
    launches = [metrics.vertices[v.name].launches for v in spools]
    sample.bad_spools = sum(1 for n in launches if n != 1)
    stats = list(metrics.vertices.values())
    extra["vertices"] = len(graph.vertices)
    extra["tasks"] = sum(v.tasks for v in stats)
    extra["busy_s"] = sum(v.wall_seconds for v in stats)
    extra["spools"] = len(spools)
    extra["spool_launches"] = sum(launches)


def _inline_spool_reruns(plan, invocations: Dict[str, int]) -> int:
    """1 when an inline run's operator counts differ from a walk of
    ``plan`` that enters each spool's producer exactly once (the inline
    executors keep no per-vertex launch counts), else 0."""
    expected: Dict[str, int] = {}
    entered = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        expected[node.op.name] = expected.get(node.op.name, 0) + 1
        if isinstance(node.op, PhysSpool):
            if id(node) in entered:
                continue
            entered.add(id(node))
        stack.extend(node.children)
    return int(expected != invocations)


# -- set-up ---------------------------------------------------------------


def _base(name: str, seed: int, scale: str, cache_capacity: int = 64):
    params = PARAMS[scale][name]
    data = generate_starjoin_data(n_sales=params["n_sales"], seed=seed)
    catalog, _ = make_starjoin_catalog(data)
    service = QueryService(
        catalog, cache_capacity=params.get("cache_capacity", cache_capacity)
    )
    return params, data, catalog, service


def setup_cold_batch(seed: int, scale: str) -> State:
    params, data, catalog, service = _base("cold_batch", seed, scale)
    # Constants without replacement: every request misses the cache.
    draws = random.Random(seed).sample(COLD_CONSTANTS, len(COLD_CONSTANTS))
    state = State("cold_batch", seed, params, data, catalog, service,
                  exec_kwargs={"workers": 0, "backend": "columnar",
                               "files": data},
                  requests=[cold_batch_texts(*c) for c in draws])
    # Warm-up on fixed constants outside the drawn space (qty_gt 1),
    # so every seed warms up with the same script: one script end to end.
    service.execute(cold_batch_texts(2, 0, 2024, 1)[-1], **state.exec_kwargs)
    return state


def setup_warm_exec(seed: int, scale: str) -> State:
    params, data, catalog, service = _base("warm_exec", seed, scale)
    texts = [query_text(name) for name in WARM_QUERIES]
    offset = seed % len(texts)
    state = State("warm_exec", seed, params, data, catalog, service,
                  exec_kwargs={"workers": 2, "runtime": "thread",
                               "backend": "columnar", "files": data},
                  requests=[[t] for t in texts[offset:] + texts[:offset]])
    # Warm every plan, then run each once (imports, first execution).
    for (text,) in state.requests:
        service.submit(text)
    for (text,) in state.requests:
        service.execute(text, **state.exec_kwargs)
    return state


def admission_compositions(service: QueryService, texts: List[str]):
    """Every window composition the controller can form from ``texts``,
    in the order it merges them (fingerprint-sorted, labels q0..)."""
    catalog = service.catalog
    prints = [script_fingerprint(canonicalize(compile_text(t, catalog)))
              for t in texts]
    order = sorted(range(len(texts)), key=lambda i: prints[i])
    for size in range(1, len(texts) + 1):
        for combo in itertools.combinations(order, size):
            yield [texts[i] for i in combo]


def setup_admission_open(seed: int, scale: str) -> State:
    params, data, catalog, service = _base("admission_open", seed, scale)
    texts = [query_text(name) for name in ADMISSION_QUERIES]
    controller = AdmissionController(service, workers=2, backend="columnar",
                                     runtime="thread", files=data)
    state = State("admission_open", seed, params, data, catalog, service,
                  exec_kwargs={"workers": 2, "runtime": "thread",
                               "backend": "columnar", "files": data},
                  requests=[[t] for t in texts], controller=controller)
    # Warm all merged compositions by optimization only.
    for group in admission_compositions(service, texts):
        service.submit_many(group, labels=[f"q{i}" for i in range(len(group))],
                            uniquify_labels=True)
    # One synchronous window with every pool script (no drainer, no clock).
    for text in texts:
        controller.submit_nowait(text)
    controller.flush()
    return state


SETUPS = {
    "cold_batch": setup_cold_batch,
    "warm_exec": setup_warm_exec,
    "admission_open": setup_admission_open,
}


def setup(name: str, seed: int, scale: str):
    """Set up ``SETUP_MIN_REPEATS`` times or more, until
    ``SETUP_MIN_SECONDS`` are spent; returns (last state, seconds of
    each set-up)."""
    times = []
    state = None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        state = None  # free the previous set-up before timing the next
        gc.collect()
        started = time.perf_counter()
        state = SETUPS[name](seed, scale)
        times.append(time.perf_counter() - started)
    gc.collect()
    return state, times


# -- closed loops ---------------------------------------------------------


def _cold_request(state: State, index: int):
    texts = state.requests[index % len(state.requests)]
    sample = Sample(texts=tuple(texts), latency=0.0)
    started = time.perf_counter()
    try:
        run = state.service.execute_many(texts, **state.exec_kwargs)
    except Exception as exc:  # a failed request is counted, not fatal
        sample.latency = time.perf_counter() - started
        _note_error(sample, exc)
        return sample, None
    sample.latency = time.perf_counter() - started
    sample.outputs = [sorted_outputs(out) for out in run.outputs]
    _fill_from_run(sample, run)
    return sample, run


def _warm_request(state: State, index: int):
    (text,) = state.requests[index % len(state.requests)]
    sample = Sample(texts=(text,), latency=0.0)
    started = time.perf_counter()
    try:
        run = state.service.execute(text, **state.exec_kwargs)
    except Exception as exc:  # a failed request is counted, not fatal
        sample.latency = time.perf_counter() - started
        _note_error(sample, exc)
        return sample, None
    sample.latency = time.perf_counter() - started
    sample.outputs = [sorted_outputs(run.outputs)]
    _fill_from_run(sample, run)
    return sample, run


REQUESTS = {"cold_batch": _cold_request, "warm_exec": _warm_request}


def closed_loop(state: State, seconds: float) -> Timed:
    """One client: the next request is sent when the previous returns."""
    request = REQUESTS[state.name]
    evictions = state.service.cache.stats.evictions
    samples: List[Sample] = []
    started = time.perf_counter()
    index = 0
    while not samples or time.perf_counter() - started < seconds:
        if state.name == "cold_batch" and index >= len(state.requests):
            break  # constant space exhausted: never reuse a batch
        samples.append(request(state, index)[0])
        index += 1
    return Timed(samples=samples,
                 cache_evictions=state.service.cache.stats.evictions
                 - evictions)


# -- open loop ------------------------------------------------------------


def ladder(params) -> List[float]:
    return [params["base_rate"] * LADDER_RATIO ** k
            for k in range(params["steps"])]


def open_loop(state: State, seconds: float) -> Timed:
    """Seeded arrivals over the rate ladder, timed from each due time.

    The ladder is climbed ``passes`` times with short steps, and each
    rate's samples are pooled over the passes, so a slow spell of the
    host lands on every rate alike instead of on one step.  The lowest
    rate's step is ``LOW_STEPS`` steps long.  Each step offers
    ``rate * length`` arrivals placed uniformly at random in the step
    (a Poisson process conditioned on its count), so every seed offers
    the same load.  Each pass ends with a burst of
    ``BURST_RATE * BURST_STEPS * step_s`` submissions sent back to
    back, so the offered load is whatever the controller's submit path
    admits and completions measure its capacity.  Between
    passes the generator waits until the queue has drained, so no pass
    starts behind.  Scripts are drawn from the pool and tenants
    assigned cyclically over 4.
    """
    controller = state.controller
    service = state.service
    texts = [t for (t,) in state.requests]
    rng = random.Random(state.seed)
    rates = ladder(state.params)
    passes = state.params["passes"]
    step_s = seconds / (passes * (len(rates) - 1 + LOW_STEPS + BURST_STEPS))

    resolved: Dict[int, float] = {}
    resolve_latencies: List[float] = []

    def on_event(event) -> None:
        if getattr(event, "kind", None) == "service.admission.resolve":
            resolved.setdefault(event.get("window"), time.monotonic())
            resolve_latencies.append(event.get("latency"))

    def outstanding() -> int:
        return sum(1 for rec in records
                   if not isinstance(rec[3], Exception) and not rec[3].done())

    def send(step, due: float, lag: float, text: str) -> None:
        tenant = f"tenant{len(records) % 4}"
        try:
            ticket = controller.submit_nowait(text, tenant=tenant)
        except AdmissionRejected as exc:
            ticket = exc
        records.append((step, due, lag, ticket, text))

    service.bus.subscribe(on_event)
    base_stats = controller.stats_snapshot()
    records = []  # (step, due, late, ticket or exception, text)
    steps = [{"rate": rate, "offered": 0, "sent": 0,
              "lag_end": 0.0, "outstanding_end": 0} for rate in rates]
    bursts = []
    lag = 0.0
    gc.collect()
    controller.start()
    try:
        for _ in range(passes):
            step_start = time.monotonic() + 0.01
            for k, rate in enumerate(rates):
                length = step_s * (LOW_STEPS if k == 0 else 1.0)
                count = max(1, round(rate * length))
                offsets = sorted(rng.uniform(0.0, length)
                                 for _ in range(count))
                picks = [rng.randrange(len(texts)) for _ in range(count)]
                first = len(records)
                for offset, pick in zip(offsets, picks):
                    due = step_start + offset
                    now = time.monotonic()
                    if due > now:
                        time.sleep(due - now)
                    lag = time.monotonic() - due
                    if lag > MAX_GENERATOR_LAG_S:
                        break
                    send(k, due, lag, texts[pick])
                step = steps[k]
                step["offered"] += count
                step["sent"] += len(records) - first
                step["lag_end"] = max(step["lag_end"], lag)
                step["outstanding_end"] = max(step["outstanding_end"],
                                              outstanding())
                step_start += length
                if lag > MAX_GENERATOR_LAG_S:
                    break
            if lag > MAX_GENERATOR_LAG_S:
                break
            burst_start = time.monotonic()
            burst_end = burst_start + BURST_MAX_STRETCH * BURST_STEPS * step_s
            first = len(records)
            for _ in range(round(BURST_RATE * BURST_STEPS * step_s)):
                if time.monotonic() > burst_end:
                    break
                send(BURST, time.monotonic(), 0.0,
                     texts[rng.randrange(len(texts))])
            bursts.append({"start": burst_start, "end": time.monotonic(),
                           "sent": len(records) - first})
            drain_by = time.monotonic() + MAX_GENERATOR_LAG_S
            while outstanding() and time.monotonic() < drain_by:
                time.sleep(0.005)
    finally:
        controller.stop()

    samples: List[Sample] = []
    windows: Dict[int, Dict[str, object]] = {}
    converted: Dict[int, Dict[str, list]] = {}
    for k, due, lag, ticket, text in records:
        sample = Sample(texts=(text,), latency=0.0)
        sample.extra["step"] = k
        sample.extra["due"] = due
        if isinstance(ticket, Exception):
            _note_error(sample, ticket)
            samples.append(sample)
            continue
        try:
            result = ticket.result(timeout=60.0)
        except Exception as exc:  # routed group failure
            _note_error(sample, exc)
            samples.append(sample)
            continue
        done_at = resolved[result.window_id]
        sample.latency = done_at - due
        sample.extra["done"] = done_at
        key = id(result.outputs)
        if key not in converted:
            converted[key] = sorted_outputs(result.outputs)
        sample.outputs = [converted[key]]
        sample.cache_hit = result.run.submit.cache_hit
        window = windows.get(result.window_id)
        if window is None:
            probe = Sample(texts=(), latency=0.0)
            _fill_from_run(probe, result.run)
            window = windows[result.window_id] = {
                "run": result.run, "probe": probe, "texts": [],
                "steps": set()}
        window["texts"].append(text)
        window["steps"].add(k)
        samples.append(sample)

    stats = controller.stats_snapshot()
    admission = {name: stats[name] - base_stats.get(name, 0)
                 for name in ("submits", "deduped", "rejected", "windows",
                              "shared_vertices", "failed_groups")}
    return Timed(samples=samples, steps=steps, bursts=bursts,
                 late=[rec[2] for rec in records if rec[0] != BURST],
                 windows=[windows[w] for w in sorted(windows)],
                 admission=admission, resolve_latencies=resolve_latencies)


# -- end-to-end metrics ---------------------------------------------------


def rate_at_slo(steps: List[Dict[str, float]], slo: float = SLO_S):
    """Offered rate where the step tail crosses ``slo``, interpolated
    linearly between the two bracketing steps; steps whose backlog grew
    do not count as meeting it.  Returns (rate, how)."""
    previous = None
    for step in steps:
        ok = step["tail"] <= slo and not step["backlog_grew"]
        if not ok:
            if previous is None:
                return step["rate"], "clipped-low"
            lo_rate, lo_tail = previous["rate"], previous["tail"]
            hi_rate, hi_tail = step["rate"], step["tail"]
            if step["backlog_grew"] and hi_tail <= slo:
                return lo_rate, "backlog"
            share = (slo - lo_tail) / (hi_tail - lo_tail)
            return lo_rate + share * (hi_rate - lo_rate), "interpolated"
        previous = step
    return steps[-1]["rate"], "clipped-high"


def summarize_steps(timed: Timed, slo: float) -> None:
    """Per-step latency summary and backlog verdict, in place."""
    by_step: Dict[int, List[float]] = {}
    for sample in timed.samples:
        if sample.error is None:
            by_step.setdefault(sample.extra["step"], []).append(sample.latency)
    for k, step in enumerate(timed.steps):
        latencies = by_step.get(k, [])
        step["p50"] = median(latencies)
        step["tail"], step["tail_pct"], step["n"] = tail(latencies)
        # Little's law: a queue still meeting the objective holds about
        # rate * slo requests; twice that plus one window's slack, or a
        # generator behind schedule by more than the objective, is a
        # growing backlog.
        step["backlog_grew"] = (
            step["outstanding_end"] > 2 * step["rate"] * slo + 10
            or step["lag_end"] > slo
            or step["sent"] < step["offered"]
        )


def burst_rates(timed: Timed):
    """Median over the passes' bursts of (completions/s, submissions/s):
    each burst counts from its first submission to its last completion.
    The median, like the latency metrics', keeps a slow spell of the
    host that spans a few bursts out of the figure."""
    burst = [s for s in timed.samples if s.extra.get("step") == BURST]
    done, sent = [], []
    for b in timed.bursts:
        ok = [s for s in burst if s.error is None
              and b["start"] <= s.extra["due"] <= b["end"]]
        if ok:
            last = max(s.extra["done"] for s in ok)
            done.append(len(ok) / (last - b["start"]))
        sent.append(b["sent"] / (b["end"] - b["start"]))
    return median(done), median(sent)


def end_to_end(name: str, timed: Timed, setup_s: float,
               rss_mb: float) -> Dict[str, object]:
    """Every end-to-end metric plus the notes the report prints;
    ``rss_mb`` is the peak resident set read right after timing."""
    ok = [s for s in timed.samples if s.error is None]
    notes: Dict[str, str] = {}
    if name == "admission_open":
        summarize_steps(timed, SLO_S)
        lowest = timed.steps[0]
        low = [s.latency for s in ok if s.extra["step"] == 0]
        p50 = median(low)
        tail_s, pct, n = tail(low)
        scripts_per_s, offered = burst_rates(timed)
        notes["latency_p50_s"] = f"at {lowest['rate']:.1f}/s offered"
        notes["scripts_per_s"] = (f"burst completions, {offered:.0f}/s "
                                  f"submitted back to back")
        # Ladder windows only: in a burst, dedup alone sets the share.
        ladder_windows = [w for w in timed.windows if BURST not in w["steps"]]
        served = max(1, sum(len(w["texts"]) for w in ladder_windows))
        rows = sum(w["probe"].rows for w in ladder_windows) / served
        cost = sum(w["probe"].cost for w in ladder_windows) / served
    else:
        latencies = [s.latency for s in ok]
        p50 = median(latencies)
        tail_s, pct, n = tail(latencies)
        scripts = sum(len(s.texts) for s in ok)
        busy = sum(latencies)
        scripts_per_s = scripts / busy if busy > 0 else 0.0
        rows = sum(s.rows for s in ok) / max(1, scripts)
        cost = sum(s.cost for s in ok) / max(1, scripts)
    notes["latency_tail_s"] = f"p{pct:.1f} of {n} samples"
    attempted = len(timed.samples)
    metrics = {
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_s, "s"),
        "scripts_per_s": (scripts_per_s, "1/s"),
        "rows_per_script": (rows, "rows"),
        "est_cost_per_script": (cost, "cost"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return {"metrics": metrics, "notes": notes, "attempted": attempted,
            "failed": attempted - len(ok)}


def check(state: State, timed: Timed) -> List[str]:
    """Output oracle and workload invariants; returns the violations and
    marks wrong samples as failed.  Every workload is chosen so that no
    request fails, so a request that raised or was rejected is one."""
    problems: List[str] = []
    raised = sum(1 for s in timed.samples if s.error is not None)
    if raised:
        problems.append(f"{raised} request(s) raised or were rejected")
    oracle = Oracle(state.catalog, state.data)
    wrong = 0
    for sample in timed.samples:
        if oracle.wrong(sample):
            sample.error = "output differs from the naive oracle"
            wrong += 1
    if wrong:
        problems.append(f"{wrong} request(s) returned wrong output")
    served = [s for s in timed.samples if s.error is None]
    hits = sum(1 for s in served if s.cache_hit)
    ratio = hits / len(served) if served else 0.0
    expected = 0.0 if state.name == "cold_batch" else 1.0
    if served and ratio != expected:
        problems.append(
            f"service.cache_hit_ratio is {ratio:.3f} in the timed phase, "
            f"expected {expected:.0f}"
        )
    runs = [w["probe"] for w in timed.windows] or served
    bad = sum(s.bad_spools for s in runs)
    if bad:
        problems.append(f"{bad} spool producer(s) launched other than once "
                        "(inline runs: operator counts off the plan's)")
    return problems
