"""Command line front end: JSON on standard streams, deterministic output.

Exit codes: 0 on success, 1 when a verification sweep finds a failing
datum, 2 on malformed input or an unwritable report path, 3 when the program
crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, TextIO

from .apartment import coordinate_class
from .correspondence import _checks, _report, embedding_type_from_local, report_to_json, verify_correspondence
from .cyclic import _ints, canonical, classes_equal, complement, flatten, make_matrix, pairs_of
from .embedding import _datum, datum_from_json, datum_to_json
from .enumeration import _shard, count_data, enumerate_data

# Consecutive shards per pool message: batches cut the main process's round
# trips to a quarter, and are still small enough to keep every worker busy.
SHARDS_PER_BATCH = 4


class _Bounds(NamedTuple):
    f_max: int
    r_max: int
    m_max: int
    fr_max: int
    jobs: int = 1


class VerifyRange(_Bounds):
    """Bounds of an exhaustive certification sweep."""

    __slots__ = ()

    def __new__(cls, f_max: int, r_max: int, m_max: int, fr_max: int, jobs: int = 1) -> VerifyRange:
        bounds = (f_max, r_max, m_max, fr_max, jobs)
        return _Bounds.__new__(cls, *_ints(bounds, "all bounds must be positive integers", 1))

    @classmethod
    def _make(cls, iterable) -> VerifyRange:
        """Through __new__, so _replace checks the bounds too."""
        return cls(*iterable)

    def configurations(self):
        for f in range(1, self.f_max + 1):
            for r in range(1, self.r_max + 1):
                if f * r > self.fr_max:
                    continue
                for m in range(1, self.m_max + 1):
                    yield f, r, m


def _verify_shard(task):
    """Verify the shard (f, r, m, head) of M(f, r; m), enumerated here.

    Returns the number of data and their failures in enumeration order,
    so a pool worker receives four integers and sends back no datum
    that passed.  The checks run on flat vectors; only a failure is built.
    Raises RuntimeError when a vector does not start with head, is not
    above the one before it, or has not m units (the direct route's
    numerator count), so the data checked are distinct members of the
    shard; run_verify compares their number with count_data.
    """
    f, r, m, head = task
    count = 0
    failures = []
    last = ()
    for count, v in enumerate(_shard(*task), 1):
        if v[0] != head or v <= last:
            message = f"shard {head} yields {v} after {last}, not a new datum with first entry {head}"
            raise RuntimeError(f"f={f} r={r} m={m}: {message}")
        last = v
        try:
            outcome = _checks(f, r, v)
            units = len(outcome[0][0])
        except Exception as exc:
            outcome, units = exc, sum(v)
        if units != m:
            raise RuntimeError(f"f={f} r={r} m={m}: shard {head} yields {v}, with {units} units, not {m}")
        if isinstance(outcome, Exception) or outcome[-1] is not None:
            failures.append(_failure(f, r, m, v, outcome))
    return count, failures


def _failure(f, r, m, v, outcome) -> dict:
    """Wire form of the flat datum v, as verify_correspondence reports what _checks gave or raised."""
    datum = _datum(f, r, m, v)
    if isinstance(outcome, Exception):
        error = f"{type(outcome).__name__}: {outcome}"
        return {"datum": datum_to_json(datum), "verdict": "fail", "mismatch": "exception", "error": error}
    return report_to_json(_report(datum, *outcome))


def _temp_beside(path: str) -> tuple[int, str]:
    """(fd, name) of a new file with a unique name in path's directory."""
    import tempfile  # here, so that a run without a report never loads it

    directory, name = os.path.split(path)
    return tempfile.mkstemp(suffix=".tmp", prefix=name + ".", dir=directory or ".")


def run_verify(rng: VerifyRange, report_path: str | None = None, stream: TextIO | None = None) -> int:
    """Certify every datum in the range; returns the exit code.

    The range is cut into shards (f, r, m, head), the data of one
    configuration whose first flattened entry is head, and all of them
    go through one ordered pass: a pool of up to jobs workers, one per
    batch of SHARDS_PER_BATCH consecutive shards, or builtin map where
    one worker would do, so no configuration waits for the one before
    it.  One line per configuration plus a total, in enumeration order,
    so two runs over the same range print identical summaries whatever
    the worker count; a configuration's line is printed when its last
    shard returns, once its data count is checked against count_data,
    so with the checks of _verify_shard a pass covers M(f, r; m)
    exactly; a wrong count raises RuntimeError.  An error that escapes a
    shard ends the sweep, and the pool runs no shard that no worker has
    taken yet; a worker that dies raises RuntimeError naming the first
    batch that did not return.  The first failing datum, if any, is printed as a
    full JSON report; with report_path the summary and all failures are
    written to a JSON file as well, through a new temporary file beside
    it that then replaces it, so an interrupted write leaves no
    truncated report and a failed one leaves no temporary file.
    """
    out = stream or sys.stdout
    if report_path is not None:
        # fail on an unwritable path now rather than after the whole sweep
        if not report_path:
            raise FileNotFoundError("report path is empty")
        if os.path.isdir(report_path):
            raise IsADirectoryError(f"report path {report_path} is a directory")
        fd, tmp = _temp_beside(report_path)
        os.close(fd)
        os.remove(tmp)
    tasks = [(f, r, m, head) for f, r, m in rng.configurations() for head in range(m + 1)]
    configs = []
    failures = []
    total = data = fail = 0
    batches = -(-len(tasks) // SHARDS_PER_BATCH)
    workers = min(rng.jobs, batches)
    pool, broken = None, ()  # () matches no error: without a pool nothing is imported
    if workers > 1:  # imported here, so that a sweep in one process loads no concurrent.futures
        import signal
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool as broken
        # a worker dies of Ctrl-C, rather than catch it and run the batches queued for it
        pool = ProcessPoolExecutor(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_DFL))
    done = 0
    try:
        results = pool.map(_verify_shard, tasks, chunksize=SHARDS_PER_BATCH) if pool else map(_verify_shard, tasks)
        for done, ((count, failed), (f, r, m, head)) in enumerate(zip(results, tasks), 1):
            failures.extend(failed)
            data += count
            fail += len(failed)
            if head == m:
                expected = count_data(f, r, m)
                if data != expected:
                    raise RuntimeError(f"f={f} r={r} m={m}: the shards yield {data} data, count_data gives {expected}")
                total += data
                configs.append({"f": f, "r": r, "m": m, "data": data, "fail": fail})
                print(f"f={f} r={r} m={m} data={data} fail={fail}", file=out)
                data = fail = 0
    except broken as exc:  # a worker died, and its batch and every one after it are lost
        lost = ", ".join(map(str, tasks[done:done + SHARDS_PER_BATCH]))
        raise RuntimeError(f"the pool broke before shards (f, r, m, head) {lost} returned: {exc}") from exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)  # run no shard that no worker has taken yet
    print(f"total data={total} fail={len(failures)}", file=out)
    if failures:
        print(json.dumps(failures[0], sort_keys=True), file=out)
    if report_path is not None:
        payload = {
            "range": {"f_max": rng.f_max, "r_max": rng.r_max, "m_max": rng.m_max, "fr_max": rng.fr_max},
            "configurations": configs,
            "total": total,
            "failures": [{**x["datum"], "mismatch": x["mismatch"]} for x in failures],
            "verdict": "pass" if not failures else "fail",
        }
        fd, tmp = _temp_beside(report_path)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                mask = os.umask(0)
                os.umask(mask)
                os.chmod(tmp, 0o666 & ~mask)  # the mode open() gives a new file, not mkstemp's 0600
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, report_path)
        except BaseException:
            os.remove(tmp)
            raise
    return 1 if failures else 0


def _int_vector(text: str) -> tuple[int, ...]:
    data = json.loads(text)
    message = "expected a JSON array of integers"
    if not isinstance(data, list):
        raise ValueError(message)
    return _ints(data, message)


def _rational(v) -> Fraction:
    message = "rationals are integers or [numerator, denominator] pairs with nonzero denominator"
    # an integer n reads as the pair [n, 1]
    pair = _ints(v if isinstance(v, list) else [v, 1], message)
    if len(pair) != 2 or pair[1] == 0:
        raise ValueError(message)
    return Fraction(*pair)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embtypes",
        description="exact computations with embedding types, chains, and local types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical rotation of a cyclic vector")
    p.add_argument("vector", help="JSON array of non-negative integers")

    p = sub.add_parser("pairs", help="pairs form (value, gap) of a cyclic vector")
    p.add_argument("vector", help="JSON array of non-negative integers")

    p = sub.add_parser("complement", help="complement class of a cyclic vector")
    p.add_argument("vector", help="JSON array of non-negative integers")

    p = sub.add_parser("flatten", help="row-major flattening of a matrix")
    p.add_argument("matrix", help="JSON array of integer arrays")

    p = sub.add_parser("local-type", help="local type of a datum, both pipelines")
    p.add_argument("--datum", required=True, help='JSON {"f", "r", "m", "rows"}')

    p = sub.add_parser("embedding-type", help="embedding datum of a local type class")
    p.add_argument("--mu", required=True, help="JSON array of rationals ([num, den] pairs or integers)")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("verify", help="certify every datum in a range")
    p.add_argument("--f-max", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--fr-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write a JSON summary to this path")

    p = sub.add_parser("enumerate", help="list the data of M(f, r; m)")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "canon":
        print(json.dumps(list(canonical(_int_vector(args.vector)))))
    elif args.command == "pairs":
        print(json.dumps([list(ab) for ab in pairs_of(_int_vector(args.vector))]))
    elif args.command == "complement":
        print(json.dumps(list(complement(_int_vector(args.vector)))))
    elif args.command == "flatten":
        print(json.dumps(list(flatten(make_matrix(json.loads(args.matrix))))))
    elif args.command == "local-type":
        report = verify_correspondence(datum_from_json(json.loads(args.datum)))
        sides = {"direct": coordinate_class(report.coordinates), "geometric": report.geometric}
        out = {name: {"class": list(c), "denominator": c.total} for name, c in sides.items()}
        out.update(mu=report_to_json(report)["mu"], agree=classes_equal(*sides.values()))
        print(json.dumps(out, sort_keys=True))
    elif args.command == "embedding-type":
        values = [_rational(v) for v in json.loads(args.mu)]
        datum = embedding_type_from_local(coordinate_class(values), args.f, args.r)
        print(json.dumps(datum_to_json(datum), sort_keys=True))
    elif args.command == "enumerate":
        if args.count_only:
            print(count_data(args.f, args.r, args.m))
        else:
            for d in enumerate_data(args.f, args.r, args.m):
                print(json.dumps(datum_to_json(d), sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    bad_input = (ValueError, TypeError, OSError)
    try:
        if args.command != "verify":
            return _dispatch(args)
        rng = VerifyRange(args.f_max, args.r_max, args.m_max, args.fr_max, args.jobs)
        bad_input = OSError  # the bounds passed, so only the report path can be at fault
        return run_verify(rng, args.report)
    except bad_input as exc:  # an except clause reads bad_input when it matches
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the program is at fault, whatever the command
        import traceback  # here, so that no run without a crash pays for the import
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
