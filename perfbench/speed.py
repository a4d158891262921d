"""Rescale measured times by the machine's current speed.

On a shared machine the speed of pure-Python code can change by up to about
2x for seconds to minutes at a time, so two runs of the same code disagree by more
than a regression the benchmark should catch.  ``Clock`` runs a fixed
reference search, written here and sharing no code with dmp, just before each
measured operation, and the operation's time is multiplied by
``REFERENCE_S`` over the reference's time.  A result is then in seconds at
the speed the machine had when ``REFERENCE_S`` was taken, and a change to dmp
scales it by the same factor as the raw time.
"""

from __future__ import annotations

import random
import time

from inputs import random_cubic_edges

# the reference search's median time on the machine the benchmark was tuned
# on (Python 3.11.7, 2 CPUs) in its fast state
REFERENCE_S = 0.008


_ADJ: list[list[int]] = [[] for _ in range(16)]  # a fixed cubic graph, as the solver searches
for _u, _v in random_cubic_edges(16, random.Random(20140815)):
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)


def reference_search() -> int:
    """Depth-first search over simple paths of up to 13 vertices from every start."""
    seen = [False] * len(_ADJ)
    path: list[int] = []
    best = 0

    def extend(v: int) -> None:
        nonlocal best
        seen[v] = True
        path.append(v)
        best = max(best, len(path))
        if len(path) < 13:
            for w in _ADJ[v]:
                if not seen[w]:
                    extend(w)
        path.pop()
        seen[v] = False

    for start in range(len(_ADJ)):
        extend(start)
    return best


class Clock:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def scale(self) -> float:
        """Time the reference search now; return REFERENCE_S over that time."""
        t0 = time.perf_counter()
        reference_search()
        self.samples.append(time.perf_counter() - t0)
        return REFERENCE_S / self.samples[-1]
