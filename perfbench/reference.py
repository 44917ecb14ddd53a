"""Host-speed reference of the end-to-end metrics.

On a shared host the speed of a vCPU drifts by up to 1.5x over minutes as
other tenants load the machine, and every sweep slows with it whatever the
program does; a median over the sweeps of one run cannot remove a drift that
lasts longer than the run.  The reference is a fixed sweep-shaped job that
belongs to the benchmark, not to the program: in a fresh interpreter, with
the sweep's --jobs, it walks the configurations of the workload's range and maps
`item` over as many integers as each configuration has data, through a
`multiprocessing.Pool` with chunksize 512 when jobs > 1, as `run_verify`
does with its data.  `item` is Fraction arithmetic and a least rotation of a
short tuple, the kind of work a datum costs.  So the reference slows as a
sweep does, in compute and in pool transport alike.

The benchmark runs it once before the first sweep and once after each sweep
of a run, and divides the run's mean times by the host factor

    (mean wall time of the reference runs of the benchmark run) / REF_NOMINAL_S

which expresses them at one fixed host speed, the speed at which the
reference takes REF_NOMINAL_S ("reference seconds").  The drift is slow
next to a run, so one factor per run follows it.  A change to the program
moves the adjusted times by exactly the share it moves the raw ones.
The raw times stay in the run record.

    python3 perfbench/reference.py 6 4 7 8 2
"""

from __future__ import annotations

import sys
from fractions import Fraction
from multiprocessing import Pool

from check import configurations, count_data
from workloads import SweepRange

# A round figure near the reference's wall time, spawn to exit, over the fr<=8
# slice on a 2-vCPU Xeon VM at 2.0 GHz; a unit, not a target.
REF_NOMINAL_S = 1.0


def rotation(i: int) -> tuple[int, ...]:
    x = tuple((i * k + k * k) % 5 for k in range(6))
    return min(x[j:] + x[:j] for j in range(6))


def item(i: int) -> tuple[tuple[int, ...], Fraction]:
    total = Fraction(0)
    for k in range(1, 15):
        total += Fraction(i % 7 + k, k + 2)
    return rotation(i), total


def result_line(items: int, checksum: int) -> str:
    return f"reference items={items} checksum={checksum}"


def expected_line(rng: SweepRange) -> str:
    """The reference's stdout, without its Fraction work."""
    n = sum(count_data(*c) for c in configurations(rng))
    return result_line(n, sum(rotation(i)[-1] for i in range(n)))


def main(rng: SweepRange) -> str:
    # The default start method, as run_verify's pool uses; this process starts no threads.
    pool = Pool(rng.jobs) if rng.jobs > 1 else None
    items = 0
    checksum = 0
    try:
        for f, r, m in configurations(rng):
            batch = range(items, items + count_data(f, r, m))
            results = pool.imap(item, batch, chunksize=512) if pool else map(item, batch)
            for least, _ in results:
                checksum += least[-1]
            items += len(batch)
    finally:
        if pool:
            pool.close()
            pool.join()
    return result_line(items, checksum)


if __name__ == "__main__":
    print(main(SweepRange(*map(int, sys.argv[1:6]))))
