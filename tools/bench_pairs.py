"""Alternating parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_25.json \\
        --note "what the change does" --claim gate:data_per_ref_s

Run from the root of a checkout.  It exports the parent revision with
`git archive` and copies the working tree (uncommitted edits included),
both into a temporary directory, then runs
`perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0` in
each for 10 pairs, seeds 101 to 110, with `run_seconds` of
BENCHMARK.json and every workload of `perfbench/workloads.py`: parent
and change alternate which runs first, and each pair runs every workload
in turn under the same seed.  Before the pairs it hashes the stdout of
`embtypes verify` on the whole gate at --jobs 1 and 2 on both sides;
each benchmark run checks its own slice's stdout.  The file holds, per
workload and side, the medians and quartiles of every end-to-end metric
of BENCHMARK.json, the pairs the change wins, the host factors, the raw
sweep and reference wall times before the host factor, and least-squares
fits of sweep wall time against reference wall time.  Uses the stdlib only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
PAIRS = 10
FIRST_SEED = 101
COPY_IGNORE = shutil.ignore_patterns(".git", ".bench_out", "__pycache__", ".hypothesis", ".pytest_cache")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def verify_stdout(side: Path) -> dict:
    """SHA-256 of `embtypes verify` stdout on the whole gate per --jobs; an exit other than 0 is recorded."""
    out = {}
    env = {**os.environ, "PYTHONPATH": "src"}
    for jobs in (1, 2):
        # the whole tier-1 gate range: the workloads' slice up to f*r <= 12
        gate = dataclasses.replace(WORKLOADS["gate"].sweep, fr_max=12, jobs=jobs)
        p = subprocess.run([sys.executable, "-m", "embtypes", *gate.argv()], cwd=side, env=env, capture_output=True)
        digest = hashlib.sha256(p.stdout).hexdigest()
        out[f"whole gate range, jobs {jobs}"] = digest if p.returncode == 0 else f"exit {p.returncode}: {digest}"
    return out


def bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, and from its record the host factor and raw walls."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True,
    )
    if p.returncode != 0:
        raise SystemExit(f"{side.name} {workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    head, result = (json.loads(line) for line in p.stdout.splitlines()[-2:])
    record = json.loads((side / head["record"]).read_text())
    walls = {entry["label"]: entry["wall_s"] for entry in record["sweeps"]}
    # sweep k runs in the same round as reference k + 1
    pairs = [(walls[f"reference-{k + 1}"], walls[f"sweep-{k}"]) for k in range(len(walls)) if f"sweep-{k}" in walls]
    return {
        "machine": head["machine"],
        "result": result,
        "host_factor": record["reference"]["host_factor"],
        "sweep_wall_s": record["raw_means"]["sweep_s"],
        "reference_wall_s": statistics.fmean(record["reference"]["wall_s"]),
        "ref_sweep_walls": pairs,
    }


def quartiles(xs: list[float]) -> list[float]:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def iqr(xs: list[float]) -> float:
    low, high = quartiles(xs)
    return high - low


def fits(runs: dict[str, list[dict]]) -> dict:
    """Sweep wall time against reference wall time over every sweep of both sides.

    `common` is one line through all of them.  `with_side` adds an offset
    for the change side to a common slope (pooled within each side), so a
    side that drew faster host phases does not move the offset.
    """
    points = {side: [p for run in rs for p in run["ref_sweep_walls"]] for side, rs in runs.items()}
    xs = [x for ps in points.values() for x, _ in ps]
    ys = [y for ps in points.values() for _, y in ps]
    common = statistics.linear_regression(xs, ys)
    means = {side: (statistics.fmean(x for x, _ in ps), statistics.fmean(y for _, y in ps)) for side, ps in points.items()}
    sxy = sum((x - means[s][0]) * (y - means[s][1]) for s, ps in points.items() for x, y in ps)
    sxx = sum((x - means[s][0]) ** 2 for s, ps in points.items() for x, _ in ps)
    slope = sxy / sxx
    base = {s: means[s][1] - slope * means[s][0] for s in points}
    offset = base["change"] - base["parent"]
    return {
        "sweeps": {s: len(ps) for s, ps in points.items()},
        "common": {"intercept_s": round(common.intercept, 4), "slope": round(common.slope, 4)},
        "with_side": {
            "slope": round(slope, 4),
            "parent_intercept_s": round(base["parent"], 4),
            "change_offset_s": round(offset, 4),
            "change_offset_vs_parent_sweep": f"{100 * offset / means['parent'][1]:+.2f}%",
        },
    }


def summarize(runs: dict[str, list[dict]], order: list[str], seeds: list[int], better: dict[str, str]) -> dict:
    values = {s: {m: [run["result"]["metrics"][m]["value"] for run in rs] for m in better} for s, rs in runs.items()}
    medians = {s: {m: statistics.median(v) for m, v in vs.items()} for s, vs in values.items()}

    def wins(m):
        sign = 1 if better[m] == "higher" else -1
        return sum(sign * (c - p) > 0 for p, c in zip(values["parent"][m], values["change"][m]))

    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "first_in_pair": order,
        "all_correct": all(run["result"]["correct"] for rs in runs.values() for run in rs),
        "data_attempted": {s: sum(run["result"]["attempted"] for run in rs) for s, rs in runs.items()},
        "data_failed": {s: sum(run["result"]["failed"] for run in rs) for s, rs in runs.items()},
        "host_factor": {s: [round(run["host_factor"], 4) for run in rs] for s, rs in runs.items()},
        "change_wins": {m: f"{wins(m)}/{len(seeds)}" for m in better},
    }
    for s in runs:
        out[s] = {
            "medians": {m: round(v, 4) for m, v in medians[s].items()},
            "quartiles": {m: [round(q, 4) for q in quartiles(v)] for m, v in values[s].items()},
        }
    out["change_vs_parent"] = {m: f"{100 * (medians['change'][m] / medians['parent'][m] - 1):+.2f}%" for m in better}
    out["parent_iqr"] = {m: round(iqr(v), 4) for m, v in values["parent"].items()}
    out["raw_walls_before_host_factor"] = {
        "sweep_wall_s_median": {s: round(statistics.median(run["sweep_wall_s"] for run in rs), 4) for s, rs in runs.items()},
        "reference_wall_s_median": {
            s: round(statistics.median(run["reference_wall_s"] for run in rs), 4) for s, rs in runs.items()
        },
    }
    out["fit_sweep_wall_vs_reference_wall"] = fits(runs)
    out["runs"] = {s: {m: [round(x, 4) for x in v] for m, v in vs.items()} for s, vs in values.items()}
    return out


def claim(spec: str, workloads: dict, better: dict[str, str]) -> dict:
    workload, metric = spec.split(":")
    w = workloads[workload]
    p, c = w["parent"]["medians"][metric], w["change"]["medians"][metric]
    iqr = w["parent_iqr"][metric]
    won, pairs = map(int, w["change_wins"][metric].split("/"))
    gain = c - p if better[metric] == "higher" else p - c
    met = 10 * won >= 9 * pairs and gain > iqr
    return {
        "workload": workload,
        "metric": metric,
        "rule": "change wins at least 9 of 10 pairs and the medians differ by more than the parent's quartile spread",
        "result": f"{'met' if met else 'not met'}: {p} -> {c} ({w['change_vs_parent'][metric]}), "
        f"{won}/{pairs} pairs, parent IQR {iqr}",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", default="", help="what the change does, one line")
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    names = sorted(WORKLOADS)
    parent_rev = git("rev-parse", args.parent)
    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent_rev, sides["parent"])
        shutil.copytree(ROOT, sides["change"], ignore=COPY_IGNORE)
        stdout = {s: verify_stdout(path) for s, path in sides.items()}
        runs = {w: {"parent": [], "change": []} for w in names}
        seeds = [FIRST_SEED + k for k in range(PAIRS)]
        order = ["parent" if k % 2 == 0 else "change" for k in range(PAIRS)]
        for seed, first in zip(seeds, order):
            for w in names:
                for s in (first, "change" if first == "parent" else "parent"):
                    runs[w][s].append(bench(sides[s], w, seed, seconds))
                    print(f"seed {seed} {w} {s}: {runs[w][s][-1]['result']['metrics']}", file=sys.stderr, flush=True)

    machine = runs[names[0]]["parent"][0]["machine"]
    workloads = {w: summarize(rs, order, seeds, better) for w, rs in runs.items()}
    doc = {
        "change": args.note,
        "harness": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, "
        "run by tools/bench_pairs.py from a git archive of the parent and a copy of the working tree, both in a "
        "temporary directory; parent and change alternate which runs first in each pair, and each pair runs "
        + " then ".join(names)
        + "; medians and quartiles (inclusive method) over the pairs",
        "machine": {
            "cpu_model": machine["cpu_model"],
            "nproc": machine["nproc"],
            "python": machine["python"],
            "note": "end-to-end times are divided by the run's host factor (mean reference time / 1.0 s)",
        },
        "environment": {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED") if k in os.environ},
        "parent": {
            "git_revision": parent_rev,
            "source_sha256": runs[names[0]]["parent"][0]["machine"]["source_sha256"],
        },
        "change_side": {
            "git_revision": head_rev + (" with uncommitted changes" if dirty else ""),
            "source_sha256": runs[names[0]]["change"][0]["machine"]["source_sha256"],
        },
        "stdout": {**stdout, "identical": stdout["parent"] == stdout["change"]},
        "claim": claim(args.claim, workloads, better) if args.claim else None,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
