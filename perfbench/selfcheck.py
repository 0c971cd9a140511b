"""Fast self-check of the benchmark: tiny sizes, every workload, both runs.

Usage, from the root of the repository::

    python3 perfbench/selfcheck.py

Validates ``BENCHMARK.json`` (keys, names, units, bounds), then runs
each workload at tiny sizes for about a second, untraced and traced,
each in a fresh process the way the benchmark is driven, and checks the
output schema: the last line is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``; the run is
correct with no failed request; and the metrics are exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) names with their
units.  Exits non-zero on the first broken expectation, so a change that
breaks the benchmark fails here in well under a minute of work per
workload.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec) -> list:
    """Rules on ``BENCHMARK.json`` itself: exact keys, name and unit
    alphabets, 2-8 workloads, bounds in (0, 0.25], a ``setup_s``."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
    if not 1 <= int(spec["run_seconds"]) <= 60:
        errors.append("run_seconds outside 1..60")
    for path in spec["paths"]:
        if not PATH.match(path) or path.startswith("/") or ".." in path:
            errors.append(f"bad path {path!r}")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200:
            errors.append(f"bad workload entry {entry}")
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"}:
            errors.append(f"bad end_to_end entry {entry}")
        elif not 0 < entry["bound"] <= 0.25:
            errors.append(f"bound of {entry['name']} outside (0, 0.25]")
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            errors.append(f"bad per_layer entry {entry}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for entry in metrics:
        if not UNIT.match(entry["unit"]) or entry["better"] not in (
                "higher", "lower"):
            errors.append(f"bad unit or direction in {entry}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is missing")
    return errors


def check_run(spec, workload: str, trace: int) -> list:
    command = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: last line is not JSON"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result['attempted']!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"{where}: metrics missing "
                      f"{sorted(set(expected) - set(got))}, unexpected "
                      f"{sorted(set(got) - set(expected))}")
    for name, entry in got.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(
                name, entry["unit"]):
            errors.append(f"{where}: {name} entry {entry}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = check_spec(spec)
    for entry in spec["workloads"]:
        for trace in (0, 1):
            if not errors:
                errors += check_run(spec, entry["name"], trace)
                print(f"{entry['name']} --trace {trace}: "
                      f"{'ok' if not errors else 'FAILED'}", flush=True)
    for error in errors:
        print(f"selfcheck: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
