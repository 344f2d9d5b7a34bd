"""How a run's samples become one figure."""

from __future__ import annotations

import statistics


def slow_decile(values: list[float], rate: bool = False) -> float | None:
    """A time's 90th percentile over the run's samples, or a rate's 10th.

    On the shared 2-core machine the benchmark was built on, the same work ran
    at two speeds about 2x apart, switching every few seconds to minutes.
    Every run spent some time at the slower, contended speed, but the share
    varied, so a run's median moved between the two speeds more than its
    slowest decile did.
    """
    if len(values) < 2:
        return values[0] if values else None
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if rate else deciles[8]
