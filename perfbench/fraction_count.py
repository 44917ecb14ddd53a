"""Count `Fraction` constructions per certified datum under cProfile.

A pass of its own, apart from every timed sweep, so the profiler never
touches a reported time.  It certifies every STRIDE-th datum of the
workload's range, in enumeration order, with the profiler on only around
`verify_correspondence`, and prints {"data": n, "fraction_new": calls} as
JSON.  The sample is fixed by the stride, so the count repeats exactly.

    PYTHONPATH=src python3 perfbench/fraction_count.py gate
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys

from check import configurations
from workloads import WORKLOADS

STRIDE = 4


def count(workload: str) -> dict:
    from embtypes.correspondence import verify_correspondence
    from embtypes.enumeration import enumerate_data

    w = WORKLOADS[workload]
    prof = cProfile.Profile()
    index = 0
    sampled = 0
    for f, r, m in configurations(w.sweep):
        for datum in enumerate_data(f, r, m):
            if index % STRIDE == 0:
                prof.enable()
                verify_correspondence(datum)
                prof.disable()
                sampled += 1
            index += 1
    calls = sum(
        nc
        for (path, _, func), (_, nc, *_rest) in pstats.Stats(prof).stats.items()
        if func == "__new__" and path.endswith("fractions.py")
    )
    return {"data": sampled, "fraction_new": calls}


if __name__ == "__main__":
    print(json.dumps(count(sys.argv[1])))
