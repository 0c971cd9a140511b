"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload warm_exec --seed 1 --seconds 30 --trace 1

``--trace 0`` is the timed run: it prints every end-to-end metric of
``BENCHMARK.json``.  ``--trace 1`` is the separate traced run: it
replays requests through each layer's public functions under spans and
prints every per-layer metric plus the table of layer self-time shares.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output matched the
oracle and every workload invariant held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("cold_batch", "warm_exec", "admission_open")
#: Share of ``--seconds`` the traced run spends in its untraced timed
#: phase; the rest goes to the span-instrumented replay.
TRACED_TIMED_SHARE = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Put the program's sources on the path; fail without them."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: program sources not found at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _print_metrics(metrics, notes) -> None:
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        suffix = f"  ({note})" if note else ""
        print(f"{name:<44} {value:>14.6g} {unit}{suffix}")


def run(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import workloads
    from common import median, peak_rss_mb

    state, setup_times = workloads.setup(args.workload, args.seed,
                                         args.scale)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    try:
        if args.trace:
            import layers

            seconds = args.seconds * TRACED_TIMED_SHARE
        else:
            seconds = args.seconds
        if args.workload == "admission_open":
            timed = workloads.open_loop(state, seconds)
        else:
            timed = workloads.closed_loop(state, seconds)
        # Before the oracle runs: its peak must not mask the program's.
        rss_mb = peak_rss_mb()
        if not args.trace:  # only the timed run reports setup_s
            setup_times += workloads.setup(args.workload, args.seed,
                                           args.scale)[1]
            print(f"setup_s is the median of {len(setup_times)} set-ups, "
                  f"before and after the timed phase")
        setup_s = median(setup_times)
        problems = workloads.check(state, timed)
        report = workloads.end_to_end(args.workload, timed, setup_s, rss_mb)
        for step in timed.steps:
            print(f"ladder {step['rate']:8.1f}/s  sent {step['sent']:5d}  "
                  f"p50 {step['p50']:.3f} s  tail {step['tail']:.3f} s "
                  f"(p{step['tail_pct']:.1f})  lag {step['lag_end']:.3f} s  "
                  f"outstanding {step['outstanding_end']}"
                  + ("  backlog grew" if step["backlog_grew"] else ""))
        if timed.bursts:
            done, sent = workloads.burst_rates(timed)
            print(f"burst: {sent:.1f}/s submitted back to back, "
                  f"{done:.1f}/s completed")
        if timed.steps:
            rate, how = workloads.rate_at_slo(timed.steps)
            print(f"ladder tail crosses {workloads.SLO_S} s at "
                  f"{rate:.1f}/s ({how})")
        if args.trace:
            layer_report = layers.traced(state, timed, args.seconds - seconds)
            problems += layer_report["problems"]
            metrics, notes = layer_report["metrics"], layer_report["notes"]
            print(layer_report["table"])
        else:
            metrics, notes = report["metrics"], report["notes"]
    finally:
        if state.controller is not None:
            state.controller.stop()
    attempted, failed = report["attempted"], report["failed"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{'failed_fraction':<44} {failed / max(1, attempted):>14.6g} 1  "
          f"({failed} of {attempted} requests)")
    _print_metrics(metrics, notes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(run())
