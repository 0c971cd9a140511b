"""Shared pieces of the benchmark: the star-join scripts, statistics
helpers, the output oracle and the per-request sample record.

Importing this module needs ``src`` on ``sys.path`` (``run.py`` puts it
there); it starts no thread and touches no file.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.workloads.starjoin import STARJOIN_QUERIES

#: Latency objective of ``admission_open`` on the tail, in seconds.
SLO_S = 0.15

#: The shared CTE of the q02/q07 pair (``repro.workloads.starjoin``),
#: spelled identically in both consumers so the batch merge shares it.
BAND_SALES_CTE = """WITH band_sales AS (
  SELECT Band, State, SUM(Net) AS revenue, SUM(Qty) AS units
  FROM store_sales AS ss JOIN customer AS c ON ss.CustSk = c.CustSk
  GROUP BY Band, State
)
"""


def cold_batch_texts(state_lt: int, band_gt: int, year: int,
                     qty_gt: int) -> List[str]:
    """One ``cold_batch`` request: q02 and q07 with predicates on the
    consumer side of their shared CTE, plus a q03-style star filter."""
    return [
        BAND_SALES_CTE
        + "SELECT Band, SUM(revenue) AS revenue FROM band_sales\n"
        f"WHERE State < {state_lt}\nGROUP BY Band;\n",
        BAND_SALES_CTE
        + "SELECT State, SUM(units) AS units FROM band_sales\n"
        f"WHERE Band > {band_gt}\nGROUP BY State;\n",
        "SELECT State, Category, SUM(Net) AS revenue\n"
        "FROM store_sales AS ss\n"
        "JOIN date_dim AS d ON ss.DateSk = d.DateSk\n"
        "JOIN customer AS c ON ss.CustSk = c.CustSk\n"
        "JOIN item AS i ON ss.ItemSk = i.ItemSk\n"
        f"WHERE Year = {year} AND Qty > {qty_gt}\n"
        "GROUP BY State, Category;\n",
    ]


#: ``cold_batch`` constant space: (state_lt, band_gt, year, qty_gt).
COLD_CONSTANTS = [
    (state_lt, band_gt, year, qty_gt)
    for state_lt in range(2, 20)
    for band_gt in range(0, 8)
    for year in (2023, 2024)
    for qty_gt in range(2, 10)
]

#: ``warm_exec`` rotation: single reports whose thread-runtime cost is
#: within 1.15x of each other (one cost class).  An odd count puts the
#: median of the round-robin mix inside the middle report's latencies,
#: not in a gap between two pairs of reports that it can jump across
#: from run to run.
WARM_QUERIES = ("q02_band_revenue", "q06_store_split", "q07_band_units")

#: ``admission_open`` pool: recurring reports including the q02/q07
#: CTE pair, so windows both dedup and share work across scripts.
ADMISSION_QUERIES = ("q02_band_revenue", "q07_band_units",
                     "q04_monthly_having", "q10_weekday_profile")


def query_text(name: str) -> str:
    return STARJOIN_QUERIES[name]


# -- statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``; with 10 samples or fewer
    no such percentile exists and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- samples and the oracle ---------------------------------------------


@dataclass
class Sample:
    """One timed request (a batch, a single script, or one admission
    submission) and what the checks need from it."""

    texts: Tuple[str, ...]
    latency: float
    #: Per-script outputs as canonically sorted rows, ``None`` on failure.
    outputs: Optional[List[Dict[str, list]]] = None
    error: Optional[str] = None
    submit_latency: float = 0.0
    cache_hit: bool = False
    rows: int = 0
    cost: float = 0.0
    #: Spool vertices whose producer launched other than exactly once
    #: (inline runs, which keep no vertex statistics: 1 if any did).
    bad_spools: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def sorted_outputs(outputs: Dict[str, object]) -> Dict[str, list]:
    return {path: data.sorted_rows() for path, data in outputs.items()}


class Oracle:
    """Reference outputs from :mod:`repro.naive`, one per distinct
    script text, computed lazily and outside every timed interval."""

    def __init__(self, catalog, files):
        self._catalog = catalog
        self._files = files
        self._cache: Dict[str, Dict[str, list]] = {}

    def expected(self, text: str) -> Dict[str, list]:
        hit = self._cache.get(text)
        if hit is None:
            logical = compile_text(text, self._catalog)
            hit = self._cache[text] = NaiveEvaluator(self._files).run(logical)
        return hit

    def wrong(self, sample: Sample) -> bool:
        """True when a served sample's outputs differ from the reference."""
        return sample.outputs is not None and any(
            self.expected(text) != got
            for text, got in zip(sample.texts, sample.outputs))
