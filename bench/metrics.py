"""Latency statistics and failure accounting shared by the benchmark runners.

A timed phase runs the same inputs in several rounds.  Every execution is
checked and counted, and an op's latency is its median time over its rounds:
a stall of the shared machine that hits one execution of an input does not
move it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

TAIL_BEYOND = 10  # successful ops that must lie above the reported tail percentile

OK = "ok"
ERROR = "error"  # the op raised or exited nonzero
WRONG = "wrong"  # the op returned output that failed its check


def tail_latency(values, beyond: int = TAIL_BEYOND):
    """Highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the (n - beyond)-th smallest of n
    values, at percentile ``100 (n - beyond) / n``.  A sample too small to
    leave ``beyond`` above any rank gives its maximum at percentile 100.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if rank < 1:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed ops must lie between 0 and the attempted count")
    return failed / attempted


@dataclass
class Tally:
    """Outcome of every execution in one timed phase, and each op's typical time.

    ``times`` holds, per op key, the seconds of its successful executions;
    ``spent`` those of all its executions whatever their outcome, so that an
    op that always fails still costs the loop its time.
    """

    times: dict = field(default_factory=dict)  # key -> [seconds], successful executions only
    spent: dict = field(default_factory=dict)  # key -> [seconds], any outcome
    ok: int = 0
    errors: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    problems: list = field(default_factory=list)  # first few failure messages

    def record(self, key, status: str, elapsed_s: float, detail: str = "") -> None:
        if status not in (OK, ERROR, WRONG):
            raise ValueError(f"unknown op status {status!r}")
        self.spent.setdefault(key, []).append(elapsed_s)
        if status == OK:
            self.ok += 1
            self.times.setdefault(key, []).append(elapsed_s)
            return
        if status == ERROR:
            self.errors += 1
        else:
            self.wrong += 1
        if len(self.problems) < 8:
            self.problems.append(f"{status}: {detail}")

    @property
    def attempted(self) -> int:
        return self.ok + self.errors + self.wrong

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def typical(self) -> list:
        """Each successful op's median time over its successful executions, in seconds."""
        return [statistics.median(v) for v in self.times.values()]

    def throughput(self) -> float:
        """Successful ops per second of one pass over every op at its median time."""
        return len(self.times) / sum(statistics.median(v) for v in self.spent.values())

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.typical())

    def tail_ms(self) -> tuple[float, float, int]:
        value, pct, n = tail_latency(self.typical())
        return 1000.0 * value, pct, n
