"""Command line front end: JSON on standard streams, deterministic output.

Exit codes: 0 on success, 1 when a verification sweep finds a failing
datum, 2 on malformed input or an unwritable report path, 3 when the program
crashes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence, TextIO

from .apartment import coordinate_class
from .correspondence import (
    _class_kernel,
    _member_kernel,
    embedding_type_from_local,
    report_to_json,
    verify_correspondence,
)
from .cyclic import _ints, canonical, classes_equal, complement, flatten, make_matrix, pairs_of
from .embedding import _datum, datum_from_json, datum_to_json
from .enumeration import _class_count, _necklaces, count_data, enumerate_data

if TYPE_CHECKING:
    from fractions import Fraction

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
        for f in range(1, min(self.f_max, self.fr_max) + 1):
            for r in range(1, min(self.r_max, self.fr_max // f) + 1):
                for m in range(1, self.m_max + 1):
                    yield f, r, m


def _verify_shard(task):
    """Verify the class shard (f, r, m, z) of M(f, r; m), enumerated here.

    The shard is the necklaces of _necklaces(f, r, m, z).  The direct
    side, a class property, runs once per necklace v through
    _class_kernel, and the geometric side, which reads the matrix shape,
    on each of its p rotations through _member_kernel.  Returns the
    numbers of classes and data and the failing members' failures, so a
    pool worker receives four integers and sends back no datum that
    passed.  A failing member is reported by verify_correspondence; one
    that passes there shows a direct side that is not a class function,
    and raises RuntimeError.  So does a vector that does not start with
    exactly z zeros, is not above the one before it, does not sum to m,
    has a zero column or does not repeat with period p, or a rotation
    by 0 < k < p that is not above v: the classes checked are then
    distinct necklaces, each with its least period, and run_verify
    compares their numbers with _class_count and count_data.
    """
    f, r, m, z = task
    classes = count = 0
    failures = []
    last = ()
    for v, p in _necklaces(*task):
        message = None
        if any(v[:z]) or not v[z]:
            message = f"yields {v}, whose first nonzero entry is not at index {z}"
        elif v <= last:
            message = f"yields {v} after {last}, not a new necklace"
        elif sum(v) != m:
            message = f"yields {v}, with {sum(v)} units, not {m}"
        elif not all(any(v[j::r]) for j in range(r)):
            message = f"yields {v}, which has a zero column"
        elif v[p:] + v[:p] != v:
            message = f"yields {v} with period {p}, which it does not have"
        if message:
            raise RuntimeError(f"f={f} r={r} m={m}: shard {z} {message}")
        last = v
        classes += 1
        count += p
        try:
            direct, site = _class_kernel(f, r, v)[2:]
        except Exception:
            direct, site = None, "exception"
        for k in range(p):
            u = v[k:] + v[:k]
            if k and u <= v:
                message = f"yields {v} with period {p}, whose rotation by {k} is {u}, not above it"
                raise RuntimeError(f"f={f} r={r} m={m}: shard {z} {message}")
            try:
                if site is None and _member_kernel(f, r, u, direct)[1] is None:
                    continue
            except Exception:  # reported by _failure, as a failing member is
                pass
            failure = _failure(f, r, m, u)
            if failure["verdict"] == "pass":
                message = f"{u} passes its own checks but fails with its class {v}"
                raise RuntimeError(f"f={f} r={r} m={m}: {message}: the direct side is not a class function")
            failures.append(failure)
    return classes, count, failures


def _failure(f, r, m, v) -> dict:
    """Wire form of the flat datum v, as verify_correspondence reports it or what it raised."""
    datum = _datum(f, r, m, v)
    try:
        report = verify_correspondence(datum)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"datum": datum_to_json(datum), "verdict": "fail", "mismatch": "exception", "error": error}
    return report_to_json(report)


def _temp_beside(target: str, path: str) -> tuple[int, str]:
    """(fd, name) of a new file in target's directory, named by mkstemp alone; an error names path."""
    import tempfile  # here, so that a run without a report never loads it

    try:
        return tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(target))
    except OSError as exc:  # the temporary name is ours, so name the path the user gave
        raise OSError(exc.errno, exc.strerror, path) from None


def run_verify(rng: VerifyRange, report_path: str | None = None, stream: TextIO | None = None) -> int:
    """Certify every datum in the range; returns the exit code.

    The range is cut into class shards (f, r, m, z), the rotation
    classes of one configuration whose necklaces start with exactly z
    zeros, z <= f * r - r, and all of them go through one ordered pass:
    a pool of up to jobs workers, one per batch of SHARDS_PER_BATCH
    consecutive shards, or builtin map where one worker would do, so no
    configuration waits for the one before it.  One line per
    configuration plus a total, in enumeration order, so two runs over
    the same range print identical summaries whatever the worker count;
    a configuration's line is printed when its last shard returns, once
    its class count is checked against _class_count and its data count
    against count_data, so with the checks of _verify_shard a pass
    covers M(f, r; m) exactly; a wrong count raises RuntimeError.  Its
    failures are sorted by flattened matrix, the order of enumerate_data.
    An error that escapes a shard ends the sweep, and the pool runs no
    shard that no worker has taken yet; a worker that dies raises
    RuntimeError naming the first batch that did not return.  The first
    failing datum, if any, is printed as a full JSON report; with
    report_path the summary and all failures are written to a JSON file
    as well, through a new temporary file beside it that then replaces
    it, so an interrupted write leaves no truncated report and a failed
    one leaves no temporary file.  A symlink stays one and the report
    replaces its target; a path to a directory, FIFO, device, socket or
    symlink loop raises OSError before the sweep.
    """
    out = stream or sys.stdout
    if report_path is not None:
        # fail on an unwritable path now rather than after the whole sweep
        if not report_path:
            raise FileNotFoundError("report path is empty")
        if os.path.isdir(report_path):  # these follow a symlink to its target
            raise IsADirectoryError(f"report path {report_path} is a directory")
        if os.path.exists(report_path) and not os.path.isfile(report_path):
            raise OSError(f"report path {report_path} is not a regular file")
        target = os.path.realpath(report_path)
        if os.path.islink(target):  # realpath stops at a link that leads back to itself
            raise OSError(f"report path {report_path} is a symlink loop")
        fd, tmp = _temp_beside(target, report_path)
        os.close(fd)
        os.remove(tmp)
    tasks = [(f, r, m, z) for f, r, m in rng.configurations() for z in range(f * r - r + 1)]
    configs = []
    failures = []
    total = classes = data = 0
    pending = []  # the failures of the configuration in progress
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
        for done, ((found, count, failed), (f, r, m, z)) in enumerate(zip(results, tasks), 1):
            classes += found
            data += count
            pending.extend(failed)
            if z == f * r - r:
                expected = _class_count(f, r, m)
                if classes != expected:
                    message = f"the shards yield {classes} classes, the Burnside count gives {expected}"
                    raise RuntimeError(f"f={f} r={r} m={m}: {message}")
                expected = count_data(f, r, m)
                if data != expected:
                    raise RuntimeError(f"f={f} r={r} m={m}: the shards yield {data} data, count_data gives {expected}")
                pending.sort(key=lambda x: x["datum"]["rows"])  # rows compare as their flattenings do
                failures.extend(pending)
                total += data
                configs.append({"f": f, "r": r, "m": m, "data": data, "fail": len(pending)})
                print(f"f={f} r={r} m={m} data={data} fail={len(pending)}", file=out)
                classes = data = 0
                pending = []
    except broken as exc:  # a worker died, and its batch and every one after it are lost
        lost = ", ".join(map(str, tasks[done:done + SHARDS_PER_BATCH]))
        raise RuntimeError(f"the pool broke before shards (f, r, m, z) {lost} returned: {exc}") from exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)  # run no shard that no worker has taken yet
    print(f"total data={total} fail={len(failures)}", file=out)
    if failures:
        import json  # here and for the report, so that a passing sweep without one never loads it
        print(json.dumps(failures[0], sort_keys=True), file=out)
    if report_path is not None:
        import json
        payload = {
            "range": {"f_max": rng.f_max, "r_max": rng.r_max, "m_max": rng.m_max, "fr_max": rng.fr_max},
            "configurations": configs,
            "total": total,
            "failures": [{**x["datum"], "mismatch": x["mismatch"]} for x in failures],
            "verdict": "pass" if not failures else "fail",
        }
        fd, tmp = _temp_beside(target, report_path)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                mask = os.umask(0)
                os.umask(mask)
                os.chmod(tmp, 0o666 & ~mask)  # the mode open() gives a new file, not mkstemp's 0600
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, target)
        except BaseException:
            os.remove(tmp)
            raise
    return 1 if failures else 0


def _json(text: str):
    """The JSON value in text; nesting too deep for the decoder is malformed input, a ValueError."""
    import json
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_array(text: str, message: str) -> list:
    """The JSON array in text; any other JSON value raises ValueError(message)."""
    data = _json(text)
    if not isinstance(data, list):
        raise ValueError(message)
    return data


def _int_vector(text: str) -> tuple[int, ...]:
    message = "expected a JSON array of integers"
    return _ints(_json_array(text, message), message)


def _rational(v) -> Fraction:
    from fractions import Fraction
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
    import json
    if args.command == "canon":
        print(json.dumps(list(canonical(_int_vector(args.vector)))))
    elif args.command == "pairs":
        print(json.dumps([list(ab) for ab in pairs_of(_int_vector(args.vector))]))
    elif args.command == "complement":
        print(json.dumps(list(complement(_int_vector(args.vector)))))
    elif args.command == "flatten":
        print(json.dumps(list(flatten(make_matrix(_json(args.matrix))))))
    elif args.command == "local-type":
        report = verify_correspondence(datum_from_json(_json(args.datum)))
        sides = {"direct": coordinate_class(report.coordinates), "geometric": report.geometric}
        out = {name: {"class": list(c), "denominator": c.total} for name, c in sides.items()}
        out.update(mu=report_to_json(report)["mu"], agree=classes_equal(*sides.values()))
        print(json.dumps(out, sort_keys=True))
    elif args.command == "embedding-type":
        values = [_rational(v) for v in _json_array(args.mu, "expected a JSON array of rationals")]
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
