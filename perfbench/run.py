"""Certification-sweep benchmark of embtypes.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  With --trace 0 it repeats whole
`embtypes verify` sweeps of the workload's range, each in a fresh
interpreter, for --seconds (at least one sweep), each followed by a
one-datum sweep that times set-up alone and by a run of the host-speed
reference of `reference.py`, and reports the end-to-end metrics as means
over them, at the reference host speed.  With --trace 1 it runs one traced
sweep, alternating untraced and traced sweeps for the tracing overhead, and
a separate Fraction-counting pass, and reports the per-layer metrics.
Every sweep's stdout must pass the exact-output check of `check.py`.  The
last stdout line is the JSON result; the full record, with the machine stamp
and the sampled span trees, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import check_sweep, self_test
from fraction_count import STRIDE
from reference import REF_NOMINAL_S, expected_line as expected_reference
from sweep import BENCH_DIR, REFERENCE, ROOT, TRACED, run_sweep, sweep_env
from tracer import add_spans
from workloads import LAYER_MAP, TRACE_HEALTH, WORKLOADS, SweepRange

RUN_LIMIT_S = 170.0
OVERHEAD_PAIRS = 3
OUT_DIR = ROOT / ".bench_out"


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, if it has one; read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "embtypes").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
    }


class Run:
    """Sweeps of one benchmark run, each checked as it completes."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.log = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def sweep(self, rng: SweepRange, label: str, data: int, sha256: str | None, **kw):
        s = run_sweep(rng.argv(), self.remaining(), **kw)
        problems = check_sweep(rng, s.returncode, s.stdout, sha256)
        if s.timed_out:
            problems.insert(0, "killed at the run time limit")
        self.attempted += data
        if problems:
            self.failed += data
            self.problems.extend(f"{label}: {p}" for p in problems)
        self.log.append(
            {
                "label": label,
                "wall_s": s.wall_s,
                "setup_s": s.setup_s,
                "cpu_s": s.cpu_s,
                "maxrss_kb": s.maxrss_kb,
                "stdout_sha256": hashlib.sha256(s.stdout).hexdigest(),
                "problems": problems,
            }
        )
        return s

    def probe(self, label: str):
        """A one-datum sweep at the workload's --jobs; it prints the same first line."""
        return self.sweep(SweepRange(1, 1, 1, 1, self.w.sweep.jobs), label, 1, None)

    def full(self, label: str, **kw):
        return self.sweep(self.w.sweep, label, self.w.data, self.w.stdout_sha256, **kw)

    def reference(self, label: str) -> float:
        """Wall time of one run of the host-speed reference; its output is checked too."""
        rng = self.w.sweep
        s = run_sweep(
            [str(v) for v in (rng.f_max, rng.r_max, rng.m_max, rng.fr_max, rng.jobs)],
            self.remaining(),
            code=REFERENCE,
            env=sweep_env({"PYTHONPATH": str(BENCH_DIR.relative_to(ROOT))}),
        )
        want = (expected_reference(rng) + "\n").encode()
        if s.timed_out or s.returncode != 0 or s.stdout != want:
            self.problems.append(f"{label}: exit {s.returncode}, stdout {s.stdout[-200:]!r}, expected {want!r}")
        self.log.append({"label": label, "wall_s": s.wall_s, "cpu_s": s.cpu_s})
        return s.wall_s


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Whole sweeps, each with a set-up probe and a reference run, for `seconds`.

    Times are means over the run, divided by the run's host factor (see
    `reference.py`) to give them at the reference host speed.  A loaded host
    switches between a fast and a slow state within seconds: a median of
    either the sweeps or the reference runs jumps between the two states,
    while a mean follows the share of time spent in each, for both alike.
    """
    run.probe("warm-up")  # compiles the bytecode cache once, as an install would
    ref_s = [run.reference("reference-0")]
    sweeps, probes, round_s = [], [], []
    begin = perf_counter()
    while not sweeps or perf_counter() - begin + statistics.median(round_s) <= seconds:
        start = perf_counter()
        sweeps.append(run.full(f"sweep-{len(sweeps)}"))
        probes.append(run.probe(f"setup-{len(probes)}"))
        ref_s.append(run.reference(f"reference-{len(ref_s)}"))
        round_s.append(perf_counter() - start)
    raw = {
        "sweep_s": statistics.fmean(s.wall_s for s in sweeps),
        "sweep_cpu_s": statistics.fmean(s.cpu_s for s in sweeps),
        "setup_s": statistics.fmean(s.setup_s for s in probes + sweeps),
    }
    host = statistics.fmean([t for t in ref_s if t > 0] or [REF_NOMINAL_S]) / REF_NOMINAL_S  # 0: it failed
    kdata = run.w.data / 1000
    metrics = {
        "data_per_ref_s": (run.w.data / (raw["sweep_s"] / host), "1/s"),
        "cpu_ref_s_per_kdatum": (raw["sweep_cpu_s"] / host / kdata, "s"),
        "setup_s": (raw["setup_s"] / host, "s"),
        "peak_rss_mb": (statistics.median(s.maxrss_kb / 1024 for s in sweeps), "MB"),
    }
    detail = {"raw_means": raw, "reference": {"nominal_s": REF_NOMINAL_S, "wall_s": ref_s, "host_factor": host}}
    return metrics, detail


def collect_records(trace_dir: Path) -> list[dict]:
    """Read and remove the span records the traced processes wrote."""
    records = []
    for path in sorted(trace_dir.glob("trace-*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    return records


def per_layer(run: Run, seed: int) -> tuple[dict, dict]:
    trace_dir = OUT_DIR / f"spans-{run.w.name}-{seed}-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = sweep_env(
        {
            "PYTHONPATH": os.pathsep.join(["src", str(BENCH_DIR.relative_to(ROOT))]),
            "BENCH_TRACE_DIR": str(trace_dir),
            "BENCH_TRACE_SEED": str(seed),
        }
    )
    try:
        traced = run.full("traced", code=TRACED, env=env)
        records = collect_records(trace_dir)
        plain_s, traced_s = [], []
        for k in range(OVERHEAD_PAIRS):
            plain_s.append(run.full(f"untraced-{k}").wall_s)
            traced_s.append(run.full(f"traced-{k}", code=TRACED, env=env).wall_s)
            collect_records(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    fractions = {"data": 0, "fraction_new": 0}
    try:
        counted = subprocess.run(
            [sys.executable, str(BENCH_DIR / "fraction_count.py"), run.w.name],
            cwd=ROOT,
            env=sweep_env(),
            capture_output=True,
            text=True,
            timeout=max(run.remaining(), 1.0),
        )
    except subprocess.TimeoutExpired:
        run.problems.append("fraction count: killed at the run time limit")
    else:
        if counted.returncode != 0:
            run.problems.append(f"fraction count: exit {counted.returncode}: {counted.stderr.strip()[-500:]}")
        else:
            fractions = json.loads(counted.stdout.splitlines()[-1])

    agg = {}
    roots = []
    pool = {"wait_ns": 0, "chunks": 0, "bytes_sent": 0, "bytes_returned": 0}
    candidates = 0
    alive = traced.wall_s
    covered = 0.0
    trees = []
    for rec in records:
        add_spans(agg, rec["agg"])
        roots.extend(rec["root_ns"])
        for key in pool:
            pool[key] += rec["pool"][key]
        candidates += rec["candidates"]
        covered += rec["covered_ns"] / 1e9
        if rec["worker"]:
            alive += rec["alive_ns"] / 1e9
        trees.extend(rec["trees"])
    if not any(not rec["worker"] for rec in records):
        run.problems.append("traced sweep wrote no main-process span record")

    def entry(name):
        return agg.get(name, [0, 0, 0, 0])

    values = {}
    for metric in LAYER_MAP:
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            values[metric] = entry(layer)[2] / 1e9
        elif stat == "calls":
            values[metric] = entry(layer)[0]
    config_lines = traced.line_s[:-1]  # the last line is the total
    values["cli.config_s.max"] = max((b - a for a, b in zip(config_lines, config_lines[1:])), default=0.0)
    values["cli.pool.wait_s"] = pool["wait_ns"] / 1e9
    values["cli.pool.chunks"] = pool["chunks"]
    values["cli.pool.bytes_sent"] = pool["bytes_sent"]
    values["cli.pool.bytes_returned"] = pool["bytes_returned"]
    values["enumeration.candidates"] = candidates
    values["enumeration.yield_ratio"] = run.w.data / candidates if candidates else 0.0
    canon = entry("cyclic.canonical")
    values["cyclic.canonical.mean_len"] = canon[3] / canon[0] if canon[0] else 0.0
    if len(roots) >= 2:
        cuts = statistics.quantiles(roots, n=100, method="inclusive")
        values["correspondence.verify_correspondence.p50_us"] = cuts[49] / 1e3
        values["correspondence.verify_correspondence.p99_us"] = cuts[98] / 1e3
    else:
        values["correspondence.verify_correspondence.p50_us"] = 0.0
        values["correspondence.verify_correspondence.p99_us"] = 0.0
    values["correspondence.verify_correspondence.samples"] = len(roots)
    values["fractions.new_per_datum"] = (
        fractions["fraction_new"] / fractions["data"] if fractions["data"] else 0.0
    )
    values["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    values["trace.uncovered_share"] = max(alive - covered, 0.0) / alive

    units = {name: spec[0] for name, spec in LAYER_MAP.items()} | TRACE_HEALTH
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    detail = {
        "spans": {name: {"calls": e[0], "total_s": e[1] / 1e9, "self_s": e[2] / 1e9} for name, e in sorted(agg.items())},
        "fraction_pass": {**fractions, "stride": STRIDE},
        "sampled_trees": trees,
        "processes": len(records),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "embtypes" / "cli.py").is_file():
        print(f"error: no embtypes sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    broken = self_test()
    if broken:
        print("error: the exact-output check is unfit: " + "; ".join(broken), file=sys.stderr)
        return 2

    stamp = machine_stamp()
    w = WORKLOADS[args.workload]
    run = Run(w)
    if args.trace:
        metrics, detail = per_layer(run, args.seed)
    else:
        metrics, detail = end_to_end(run, args.seconds)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": stamp,
        "failed_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "sweeps": run.log,
        "layer_map": {name: {"unit": u, "moves": e2e, "on": wl} for name, (u, e2e, wl) in LAYER_MAP.items()},
        **detail,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for p in run.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"machine": stamp, "record": str(out.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
