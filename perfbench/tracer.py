"""Span tracing of an `embtypes verify` sweep from outside the program.

`install` wraps every public function of the traced modules in each
namespace that holds it, so calls that modules make to one another through
their globals pass through the wrappers.  It must run before `run_verify`
creates its pool: workers are forked and inherit the wrappers, and the pool
wrapper gives each worker an initializer that starts its own record and
writes it out when the worker exits.

A span's self time is its duration minus the time its child spans cover.
Spans are summed per name in memory, per thread; only the data the seed
samples keep their full span tree.  `finish` writes the main process's
record; each worker writes its own.  The benchmark merges the files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import threading
import zlib
from multiprocessing import Pool as _Pool
from multiprocessing.util import Finalize
from time import perf_counter_ns

MODULES = ("cli", "enumeration", "embedding", "correspondence", "apartment", "cyclic")
ROOT = "correspondence.verify_correspondence"
SAMPLE_EVERY = 2048
MAX_TREES = 64


class _ThreadState:
    __slots__ = ("stack", "agg", "tree", "top_level", "root_ns", "covered_ns")

    def __init__(self) -> None:
        self.stack = []  # frames [child_ns, tree node or None]
        self.agg = {}  # name -> [calls, total_ns, self_ns, summed input length]
        self.tree = False  # inside a sampled root span
        self.top_level = False  # inside a top-level candidate generator step
        self.root_ns = []
        self.covered_ns = 0


class Tracer:
    """Span record of one process of the traced sweep."""

    def __init__(self, out_dir: str, seed: int) -> None:
        self.out_dir = out_dir
        self.seed = seed
        self._reset(worker=False)

    def _reset(self, worker: bool) -> None:
        self.worker = worker
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.trees = []
        self.candidates = 0
        self.pool = {"wait_ns": 0, "chunks": 0, "bytes_sent": 0, "bytes_returned": 0}
        self.born_ns = perf_counter_ns()
        self.main_thread = threading.get_ident()

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append((threading.get_ident(), st))
            return st

    def sampled(self, datum) -> bool:
        if len(self.trees) >= MAX_TREES:
            return False
        return zlib.crc32(f"{self.seed}:{datum.rows}".encode()) % SAMPLE_EVERY == 0

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn, name: str, measure_len: bool = False):
        state = self.state
        is_root = name == ROOT

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            node = None
            if st.tree and stack[-1][1] is not None:
                node = {"name": name, "children": []}
                stack[-1][1]["children"].append(node)
            elif is_root and self.sampled(args[0]):
                node = {"name": name, "datum": [list(r) for r in args[0].rows], "children": []}
                st.tree = True
            frame = [0, node]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                e = st.agg.get(name)
                if e is None:
                    e = st.agg[name] = [0, 0, 0, 0]
                e[0] += 1
                e[1] += dur
                e[2] += dur - frame[0]
                if measure_len:
                    e[3] += len(args[0])
                if stack:
                    stack[-1][0] += dur
                else:
                    st.covered_ns += dur
                if is_root:
                    st.root_ns.append(dur)
                if node is not None:
                    node["self_us"] = (dur - frame[0]) / 1e3
                    node["total_us"] = dur / 1e3
                    if "datum" in node:
                        st.tree = False
                        self.trees.append(node)

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, fn, name: str):
        """Each step of the generator is one span; its calls count once."""
        state = self.state

        def steps(gen):
            st = state()
            e = st.agg.setdefault(name, [0, 0, 0, 0])
            e[0] += 1
            stack = st.stack
            while True:
                frame = [0, None]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter_ns() - start
                    stack.pop()
                    e[1] += dur
                    e[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    else:
                        st.covered_ns += dur
                yield item

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    def count_top_level(self, fn):
        """Count the items a recursive generator yields at its outermost call."""
        state = self.state

        def outer(gen):
            st = state()
            while True:
                st.top_level = True
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    st.top_level = False
                self.candidates += 1
                yield item

        def counted(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return gen if state().top_level else outer(gen)

        return counted

    # ---------------------------------------------------------------- pool

    def pool_class(self):
        tracer = self

        class TracedPool:
            """multiprocessing.Pool whose imap is accounted from outside."""

            def __init__(self, processes=None):
                self._pool = _Pool(processes, initializer=tracer.start_worker)

            def imap(self, func, iterable, chunksize=1):
                results = self._pool.imap(func, self._sent(func, iterable, chunksize), chunksize)
                return self._received(results, chunksize)

            @staticmethod
            def _sent(func, iterable, chunksize):
                chunk = []
                for item in iterable:
                    chunk.append(item)
                    if len(chunk) == chunksize:
                        tracer.pool["bytes_sent"] += len(pickle.dumps((func, tuple(chunk))))
                        chunk.clear()
                    yield item
                if chunk:
                    tracer.pool["bytes_sent"] += len(pickle.dumps((func, tuple(chunk))))

            @staticmethod
            def _received(results, chunksize):
                chunk = []
                count = 0
                while True:
                    start = perf_counter_ns()
                    try:
                        item = next(results)
                    except StopIteration:
                        break
                    finally:
                        tracer.pool["wait_ns"] += perf_counter_ns() - start
                    count += 1
                    chunk.append(item)
                    if len(chunk) == chunksize:
                        tracer.pool["bytes_returned"] += len(pickle.dumps(chunk))
                        chunk.clear()
                    yield item
                if chunk:
                    tracer.pool["bytes_returned"] += len(pickle.dumps(chunk))
                tracer.pool["chunks"] += -(-count // chunksize)

            def __getattr__(self, attr):
                return getattr(self._pool, attr)

        return TracedPool

    def start_worker(self) -> None:
        """Pool initializer: drop the record inherited from the parent."""
        self._reset(worker=True)
        Finalize(None, self.finish, exitpriority=0)

    # ------------------------------------------------------------- output

    def finish(self) -> None:
        """Write this process's record to the trace directory."""
        agg = {}
        roots = []
        covered = 0
        for ident, st in self._states:
            add_spans(agg, st.agg)
            roots.extend(st.root_ns)
            if ident == self.main_thread:
                covered += st.covered_ns
        record = {
            "worker": self.worker,
            "alive_ns": perf_counter_ns() - self.born_ns,
            "covered_ns": covered,
            "agg": agg,
            "root_ns": roots,
            "trees": self.trees,
            "candidates": self.candidates,
            "pool": self.pool,
        }
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def add_spans(total: dict, agg: dict) -> None:
    """Add per-name span sums [calls, total_ns, self_ns, input length] into total."""
    for name, e in agg.items():
        t = total.setdefault(name, [0, 0, 0, 0])
        for i in range(4):
            t[i] += e[i]


def install(out_dir: str, seed: int) -> Tracer:
    """Wrap the traced modules' public functions and the cli pool."""
    tracer = Tracer(out_dir, seed)
    modules = [importlib.import_module(f"embtypes.{m}") for m in MODULES]
    namespaces = modules + [importlib.import_module("embtypes")]
    swaps = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(fn):
                swaps[fn] = tracer.wrap_generator(fn, name)
            else:
                swaps[fn] = tracer.wrap(fn, name, measure_len=name == "cyclic.canonical")
    enumeration = modules[MODULES.index("enumeration")]
    weak = getattr(enumeration, "_weak_compositions", None)
    if weak is not None:
        swaps[weak] = tracer.count_top_level(weak)
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in swaps:
                setattr(ns, attr, swaps[value])
    modules[0].Pool = tracer.pool_class()
    return tracer
