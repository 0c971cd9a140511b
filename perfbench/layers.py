"""The traced run: per-layer metrics and the table of layer shares.

The timed phase of a traced run is untraced and gives the counters the
service and the executors already keep (cache hits, vertex statistics,
admission counters).  The replay phase then sends requests through the
layers' public functions, in the order the service calls them::

    compile_text -> canonicalize + script_fingerprint -> merge_scripts
    -> plan cache lookup -> optimize_plan (misses only)
    -> build_stage_graph -> executor.execute -> output routing

The benchmark opens its own span around each call; where an entry point
takes ``tracer=`` it gets the same :class:`repro.obs.Tracer`, which adds
the program's parse, compile, prune, CSE, phase, round, vertex and task
spans underneath.  A layer's self time is the duration of its spans
minus the part their child spans cover.  Each replayed request is also
run once untraced through the same calls (for ``obs.trace_overhead``)
and once through the service (its plan fingerprint and outputs must
match the replay's).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.cse.merge import canonicalize, merge_scripts, script_fingerprint
from repro.exec import Cluster, TaskScheduler
from repro.exec.backend import get_backend
from repro.exec.columnar.batch import from_row_dataset
from repro.exec.datasets import Dataset
from repro.exec.dist import decode_dataset, encode_dataset
from repro.exec.stage_graph import build_stage_graph
from repro.frontend import compile_text
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.explain import explain_normalized
from repro.plan.physical import PhysExtract, PhysSpool
from repro.api import optimize_plan
from repro.service import QueryService

from common import median, sorted_outputs
import workloads

#: Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.compile_s": "s",
    "cse.key_s": "s",
    "cse.merge_s": "s",
    "cse.detect_s": "s",
    "cse.shared_groups": "count",
    "cse.batch_rows_ratio": "1",
    "cse.batch_cost_ratio": "1",
    "cse.batch_latency_ratio": "1",
    "plan.prune_s": "s",
    "optimizer.phase1_s": "s",
    "optimizer.phase2_s": "s",
    "optimizer.fallback_s": "s",
    "optimizer.rounds": "count",
    "optimizer.s_per_round": "s",
    "optimizer.candidates_tried": "count",
    "optimizer.round_gain_ratio": "1",
    "service.submit_s": "s",
    "service.cache_hit_ratio": "1",
    "service.cache_evictions": "count",
    "service.admission.window_scripts": "count",
    "service.admission.dedup_ratio": "1",
    "service.admission.shared_vertices_per_window": "count",
    "service.admission.resolve_s": "s",
    "service.admission.generator_late_p50_s": "s",
    "service.admission.generator_late_max_s": "s",
    "service.admission.rejected": "count",
    "service.admission.max_rate_at_slo": "1/s",
    "exec.run_s": "s",
    "exec.stage_cut_s": "s",
    "exec.task_busy_s": "s",
    "exec.worker_utilisation": "1",
    "exec.vertices": "count",
    "exec.tasks": "count",
    "exec.rows_shuffled": "rows",
    "exec.rows_spooled": "rows",
    "exec.spool_launches": "count",
    "exec.task_retries": "count",
    "exec.dist.wire_encode_mb_s": "MB/s",
    "exec.dist.wire_decode_mb_s": "MB/s",
    "exec.dist.wire_bytes_per_row": "B/row",
    "obs.trace_overhead": "1",
}

#: Layers of the share table, in pipeline order; ``bench`` is the
#: benchmark's own time inside a request (output conversion, loops).
LAYERS = ("repro.frontend", "repro.cse", "repro.plan", "repro.optimizer",
          "repro.service", "repro.service.admission", "repro.exec", "bench")
for _layer in LAYERS:
    PER_LAYER[f"share.{_layer}"] = "1"

#: Layers no workload exercises, named in the report as such.
NOT_MEASURED = {
    "repro.stats": "feedback is off in every workload",
    "repro.verify": "plan verification is off on the request path",
}

#: Span name (or ``prefix/``) -> layer.
_SPAN_LAYER = {
    "request": "bench",
    "frontend": "repro.frontend",
    "parse": "repro.frontend",
    "compile": "repro.frontend",
    "cse.key": "repro.cse",
    "cse.merge": "repro.cse",
    "cse.detect": "repro.cse",
    "cse.propagate": "repro.cse",
    "prune": "repro.plan",
    "optimizer": "repro.optimizer",
    "optimize.phase1": "repro.optimizer",
    "optimize.phase2": "repro.optimizer",
    "optimize.round": "repro.optimizer",
    "optimize.fallback": "repro.optimizer",
    "service.lookup": "repro.service",
    "service.route": "repro.service",
    "service.admission.route": "repro.service.admission",
}


_SHOWN_AS = {"optimize.round": "optimize.phase2"}


def span_layer(name: str) -> str:
    layer = _SPAN_LAYER.get(name)
    if layer is not None:
        return layer
    return "repro.exec"  # exec, stage cut, vertices, tasks, spools


def exclusive_time(root) -> Dict[Tuple[str, str], float]:
    """Wall time of ``root`` attributed to the innermost active span.

    Sequentially this is each span's duration minus what its children
    cover; where children overlap (tasks on parallel workers) each
    instant still counts once, so a request's layers sum to its wall
    time.  Returns (layer, span name) -> seconds.
    """
    spans = []

    def collect(span, depth):
        spans.append((span.start, span.end, depth, span.name))
        for child in span.children:
            collect(child, depth + 1)

    collect(root, 0)
    points = sorted({t for start, end, _, _ in spans for t in (start, end)})
    out: Dict[Tuple[str, str], float] = {}
    for lo, hi in zip(points, points[1:]):
        active = [(depth, name) for start, end, depth, name in spans
                  if start <= lo and end >= hi]
        if active:
            name = max(active)[1]
            # Rounds are phase 2's work: show them under phase 2.
            shown = _SHOWN_AS.get(name, name.split("/", 1)[0])
            key = (span_layer(name), shown)
            out[key] = out.get(key, 0.0) + (hi - lo)
    return out


# -- the replay -------------------------------------------------------------


def _executor(state, tracer):
    """The executor ``QueryService`` would build for these settings."""
    kwargs = state.exec_kwargs
    cluster = Cluster(machines=state.service.config.cost_params.machines)
    for path, rows in state.data.items():
        cluster.load_file(path, rows)
    engine = get_backend(kwargs["backend"])
    workers = kwargs.get("workers", 0)
    if workers == 0:
        return engine.executor_cls(cluster, validate=True, tracer=tracer)
    return TaskScheduler(cluster, workers=workers, validate=True,
                         tracer=tracer, backend=engine.name)


def replay(state, texts: List[str], reference, tracer=NULL_TRACER):
    """One request through the layers' public functions.

    ``texts`` are the request's scripts (every submission of a window,
    duplicates included); ``reference`` is the service's run of the same
    request, whose cache decision the replay mirrors.  Returns
    ``(fingerprint, result, per-script outputs, seconds)``.
    """
    catalog = state.catalog
    admission = state.name == "admission_open"
    started = time.perf_counter()
    with tracer.span("request"):
        plans: Dict[str, object] = {}
        fingerprint = ""
        for text in texts:
            with tracer.span("frontend"):
                logical = compile_text(text, catalog, tracer=tracer)
            with tracer.span("cse.key"):
                logical = canonicalize(logical)
                fingerprint = script_fingerprint(logical)
            plans.setdefault(fingerprint, logical)
        batch = None
        if state.name != "warm_exec":
            if admission:  # dedup, then the controller's label order
                keys = sorted(plans)
                labels = [f"q{i}" for i in range(len(keys))]
            else:
                keys, labels = list(plans), None
            with tracer.span("cse.merge"):
                batch = merge_scripts([plans[k] for k in keys], labels,
                                      uniquify=admission)
            with tracer.span("cse.key"):
                fingerprint = script_fingerprint(batch.plan)
            logical = batch.plan
        with tracer.span("service.lookup"):
            entry = state.service.cache.get(reference.submit.key)
        if reference.submit.cache_hit and entry is not None:
            result = entry.result
        else:
            with tracer.span("optimizer"):
                result = optimize_plan(logical, catalog, state.service.config,
                                       tracer=tracer)
        with tracer.span("exec.stage_cut"):
            build_stage_graph(result.plan)
        with tracer.span("exec"):
            outputs = _executor(state, tracer).execute(result.plan)
        if batch is None:
            per_script = [outputs]
        else:
            route = "service.admission.route" if admission else "service.route"
            with tracer.span(route):
                per_script = batch.split_outputs(outputs)
    return fingerprint, result, per_script, time.perf_counter() - started


def _replay_requests(state, timed, budget: float):
    """Yield ``(texts, the service's run, its timed sample or None)``
    until the budget is spent (at least one request)."""
    started = time.perf_counter()
    if state.name == "admission_open":
        windows = timed.windows
        # Evenly spread over the ladder, cheapest windows first.
        order = sorted(range(len(windows)),
                       key=lambda i: len(windows[i]["texts"]))
        picks = order[:: max(1, len(order) // 12)] or order
        for index in picks:
            window = windows[index]
            yield window["texts"], window["run"], None
            if time.perf_counter() - started > budget:
                return
        return
    request = workloads.REQUESTS[state.name]
    index = len(timed.samples)
    while True:
        if state.name == "cold_batch" and index >= len(state.requests):
            return
        sample, run = request(state, index)
        index += 1
        if run is None:
            continue
        yield list(sample.texts), run, sample
        if time.perf_counter() - started > budget:
            return


def _solo_cold(state, texts):
    """Each script of a batch run alone on a fresh, empty service."""
    service = QueryService(state.catalog)
    rows = cost = seconds = 0.0
    for text in texts:
        started = time.perf_counter()
        run = service.execute(text, **state.exec_kwargs)
        seconds += time.perf_counter() - started
        rows += run.metrics.rows_processed()
        cost += run.submit.result.cost
    return rows, cost, seconds


def _wire(state, plan) -> Tuple[float, float, float]:
    """encode/decode MB/s and bytes per row over the scans of ``plan``,
    partitioned the way the executors' extract partitions them."""
    machines = state.service.config.cost_params.machines
    datasets = []
    seen = set()
    for node in _walk(plan):
        if isinstance(node.op, PhysExtract) and node.op.path not in seen:
            seen.add(node.op.path)
            names = node.schema.names
            parts = [[] for _ in range(machines)]
            for i, row in enumerate(state.data[node.op.path]):
                parts[i % machines].append({c: row[c] for c in names})
            datasets.append(from_row_dataset(
                Dataset(node.schema, parts, node.props)))
    total_bytes = rows = 0
    enc = dec = 0.0
    for _ in range(3):
        for dataset in datasets:
            started = time.perf_counter()
            blob = encode_dataset(dataset)
            mid = time.perf_counter()
            decode_dataset(blob)
            dec += time.perf_counter() - mid
            enc += mid - started
            total_bytes += len(blob)
            rows += dataset.total_rows()
    mb = total_bytes / 1e6
    return mb / enc, mb / dec, total_bytes / max(1, rows)


def _walk(plan):
    seen = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children)


def _round_gain(roots) -> float:
    """Rounds that lowered their LCA's best cost / rounds tried, from
    the ``optimize.round`` spans of each replayed request."""
    gains = tried = 0
    for root in roots:
        best: Dict[object, float] = {}
        for span in root.walk():
            if span.name != "optimize.round":
                continue
            tried += 1
            cost = span.attrs.get("cost")
            if cost is None:
                continue
            lca = span.attrs.get("lca")
            if lca in best and cost < best[lca]:
                gains += 1
            best[lca] = min(cost, best.get(lca, cost))
    return gains / tried if tried else 0.0


# -- assembly ---------------------------------------------------------------


def traced(state, timed, budget: float) -> Dict[str, object]:
    """Replay, then assemble every per-layer metric and the share table."""
    problems: List[str] = []
    tracer = Tracer()
    untraced: List[float] = []
    traced_s: List[float] = []
    scripts = submits = batches = 0
    ratios = {"rows": [], "cost": [], "latency": []}
    candidates: List[int] = []
    exec_s: List[float] = []
    plans = []
    spool_spans: List[int] = []
    for texts, run, sample in _replay_requests(state, timed, budget):
        # Alternate which of the pair runs first, so drift of the host
        # between the two runs cancels out of the overhead.
        if len(traced_s) % 2:
            untraced.append(replay(state, texts, run)[3])
        before = len(tracer.roots)
        fingerprint, result, per_script, seconds = replay(state, texts, run,
                                                          tracer)
        traced_s.append(seconds)
        if len(untraced) < len(traced_s):
            untraced.append(replay(state, texts, run)[3])
        plans.append(result.plan)
        root = tracer.roots[before]
        exec_s.append(root.find("exec").duration)
        spool_spans.append(sum(1 for s in root.walk()
                               if s.name == "spool.materialize"))
        scripts += len(texts)
        submits += len(texts) + (state.name != "warm_exec")
        batches += state.name != "warm_exec"
        engine = getattr(result.details, "engine", None)
        if not run.submit.cache_hit and engine is not None:
            candidates.append(engine.stats.candidates_tried)
        if fingerprint != run.submit.fingerprint:
            problems.append("replay fingerprint differs from the service's")
        served_plan = explain_normalized(run.submit.plan)
        if explain_normalized(result.plan) != served_plan:
            problems.append("replay plan differs from the service's")
        expected = (run.outputs if isinstance(run.outputs, list)
                    else [run.outputs])
        if ([sorted_outputs(o) for o in per_script]
                != [sorted_outputs(o) for o in expected]):
            problems.append("replay outputs differ from the service's")
        if state.name == "cold_batch":
            rows, cost, solo_s = _solo_cold(state, texts)
            ratios["rows"].append(run.metrics.rows_processed() / rows)
            ratios["cost"].append(run.submit.result.cost / cost)
            ratios["latency"].append(sample.latency / solo_s)

    requests = max(1, len(traced_s))
    spans = [s for root in tracer.roots for s in root.walk()]

    def per(name: str, count: int) -> float:
        total = sum(s.duration for s in spans if s.name == name)
        return total / max(1, count)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    rounds = [s for s in spans if s.name == "optimize.round"]
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float) -> None:
        metrics[name] = (float(value), PER_LAYER[name])

    put("frontend.parse_s", per("parse", scripts))
    put("frontend.compile_s", per("compile", scripts))
    put("cse.key_s", per("cse.key", submits))
    put("cse.merge_s", per("cse.merge", batches))
    put("cse.detect_s", per("cse.detect", requests))
    put("cse.shared_groups", attr_sum("cse.detect", "shared_groups")
        / requests)
    put("cse.batch_rows_ratio", median(ratios["rows"]))
    put("cse.batch_cost_ratio", median(ratios["cost"]))
    put("cse.batch_latency_ratio", median(ratios["latency"]))
    put("plan.prune_s", per("prune", requests))
    put("optimizer.phase1_s", per("optimize.phase1", requests))
    put("optimizer.phase2_s", per("optimize.phase2", requests))
    put("optimizer.fallback_s", per("optimize.fallback", requests))
    put("optimizer.rounds", len(rounds) / requests)
    put("optimizer.s_per_round",
        sum(s.duration for s in rounds) / len(rounds) if rounds else 0.0)
    put("optimizer.candidates_tried", median(candidates))
    put("optimizer.round_gain_ratio", _round_gain(tracer.roots))

    # Timed-phase counters (untraced).
    if state.name == "admission_open":
        probes = [w["probe"] for w in timed.windows]
        served = probes
    else:
        probes = served = [s for s in timed.samples if s.error is None]
    put("service.submit_s", median([s.submit_latency for s in served]))
    put("service.cache_hit_ratio",
        sum(1 for s in served if s.cache_hit) / max(1, len(served)))
    put("service.cache_evictions", timed.cache_evictions)
    adm = timed.admission
    windows = max(1, adm.get("windows", 0))
    put("service.admission.window_scripts", adm.get("submits", 0)
        / windows if adm else 0.0)
    put("service.admission.dedup_ratio", adm.get("deduped", 0)
        / max(1, adm.get("submits", 0)) if adm else 0.0)
    put("service.admission.shared_vertices_per_window",
        adm.get("shared_vertices", 0) / windows if adm else 0.0)
    put("service.admission.resolve_s", median(timed.resolve_latencies))
    put("service.admission.generator_late_p50_s", median(timed.late))
    put("service.admission.generator_late_max_s", max(timed.late, default=0))
    put("service.admission.rejected", adm.get("rejected", 0))
    rate, how = (workloads.rate_at_slo(timed.steps) if timed.steps
                 else (0.0, "open loop only"))
    put("service.admission.max_rate_at_slo", rate)

    def mean(key: str) -> float:
        return sum(p.extra.get(key, 0) for p in probes) / max(1, len(probes))

    if state.name == "admission_open":
        run_s = median(exec_s)
    else:
        run_s = median([s.latency - s.submit_latency for s in served])
    busy = median([p.extra.get("busy_s", 0.0) for p in probes])
    put("exec.run_s", run_s)
    put("exec.stage_cut_s", per("exec.stage_cut", requests))
    put("exec.task_busy_s", busy)
    put("exec.worker_utilisation",
        busy / (run_s * state.workers) if state.workers and run_s else 0.0)
    put("exec.vertices", mean("vertices") if state.workers else median(
        [len(build_stage_graph(plan).vertices) for plan in plans]))
    put("exec.tasks", mean("tasks"))
    put("exec.rows_shuffled", mean("rows_shuffled"))
    put("exec.rows_spooled", mean("rows_spooled"))
    if state.workers:
        spools = sum(p.extra.get("spools", 0) for p in probes)
        launches = sum(p.extra.get("spool_launches", 0) for p in probes)
        put("exec.spool_launches", launches / spools if spools else 0.0)
    else:
        # Inline runs keep no vertex statistics: count the spool
        # materializations the replay's tracer saw per spool node.
        nodes = [_spool_nodes(plan) for plan in plans]
        put("exec.spool_launches",
            sum(spool_spans) / sum(nodes) if sum(nodes) else 0.0)
        if spool_spans != nodes:
            problems.append("an inline spool materialized other than once")
    put("exec.task_retries", mean("task_retries"))
    encode, decode, per_row = _wire(state, plans[-1]) if plans else (0, 0, 0)
    put("exec.dist.wire_encode_mb_s", encode)
    put("exec.dist.wire_decode_mb_s", decode)
    put("exec.dist.wire_bytes_per_row", per_row)
    ratios_traced = [t / u for t, u in zip(traced_s, untraced)]
    put("obs.trace_overhead",
        median(ratios_traced) - 1.0 if ratios_traced else 0.0)

    shares, table = share_table(tracer.roots, state.name)
    for layer in LAYERS:
        put(f"share.{layer}", shares.get(layer, 0.0))
    notes = {"service.admission.max_rate_at_slo":
             f"{how}, tail objective {workloads.SLO_S} s",
             "optimizer.round_gain_ratio":
             "rounds lowering their LCA's best cost / rounds tried",
             "obs.trace_overhead":
             f"paired replay, {len(traced_s)} request(s)"}
    return {"metrics": metrics, "notes": notes, "table": table,
            "problems": problems}


def _spool_nodes(plan) -> int:
    return sum(1 for node in _walk(plan) if isinstance(node.op, PhysSpool))


def share_table(roots, workload: str):
    """Self time per layer (and per span name) over all replayed
    requests; returns (layer -> share, rendered table)."""
    by_layer: Dict[str, float] = {}
    by_span: Dict[Tuple[str, str], float] = {}
    total = 0.0
    for root in roots:
        total += root.duration
        for (layer, name), seconds in exclusive_time(root).items():
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
            by_span[(layer, name)] = by_span.get((layer, name), 0.0) + seconds
    total = total or 1.0
    shares = {layer: by_layer.get(layer, 0.0) / total for layer in LAYERS}
    lines = [f"layer self time, {workload}, {len(roots)} replayed request(s)",
             f"  {'layer':<26} {'span':<20} {'self s':>10} {'share':>7}"]
    for layer in LAYERS:
        seconds = by_layer.get(layer, 0.0)
        lines.append(f"  {layer:<26} {'':<20} {seconds:>10.4f}"
                     f" {shares[layer]:>7.1%}")
        for (owner, name), seconds in sorted(by_span.items(),
                                              key=lambda kv: -kv[1]):
            if owner == layer and seconds / total >= 0.005:
                lines.append(f"  {'':<26} {name:<20} {seconds:>10.4f}"
                             f" {seconds / total:>7.1%}")
    for layer, why in NOT_MEASURED.items():
        lines.append(f"  {layer:<26} not measured: {why}")
    return shares, "\n".join(lines)
