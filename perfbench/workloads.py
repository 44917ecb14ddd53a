"""Workloads of the certification-sweep benchmark and what each metric is for.

Every workload is an exhaustive `embtypes verify` sweep, so its inputs are
the whole range; the seed only chooses which data keep their full span tree
in the traced run.  The range is the fr<=8 slice of the tier-1 gate range
(f<=6, r<=4, m<=7): every gate configuration with f*r <= 8.  A whole gate
sweep takes 40-80 s on a two-core machine, so a run could hold one and its
time would carry every burst of host contention, and its traced sweep would
come near the time limit of a run; the slice takes about 4 s, so a run
repeats it about ten times and reports medians.  The per-layer metrics
below are the ones a change to a layer should move, and the end-to-end
metric and workload where the move should show (`LAYER_MAP`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SweepRange:
    """Bounds of `embtypes verify`, in the order the CLI takes them."""

    f_max: int
    r_max: int
    m_max: int
    fr_max: int
    jobs: int

    def argv(self) -> list[str]:
        return [
            "verify",
            "--f-max", str(self.f_max),
            "--r-max", str(self.r_max),
            "--m-max", str(self.m_max),
            "--fr-max", str(self.fr_max),
            "--jobs", str(self.jobs),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: SweepRange
    data: int
    stdout_sha256: str
    why: str


# Recorded from the parent commit of the benchmark.  gate and gate-pool share
# one digest, which is the rule that the sweep prints the same bytes for any
# --jobs.
SLICE_SHA256 = "9c4e9cb5684ae086310d54737d3f830d89ecbe7b0f3182fd6796d44c2273ac0e"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gate",
            SweepRange(6, 4, 7, 8, jobs=1),
            12840,
            SLICE_SHA256,
            why="the fr<=8 slice of the tier-1 gate range users certify, one process: "
            "the plain baseline, heavy in Fraction arithmetic of the apartment",
        ),
        Workload(
            "gate-pool",
            SweepRange(6, 4, 7, 8, jobs=2),
            12840,
            SLICE_SHA256,
            why="the same slice at --jobs 2, the only workload where the cli "
            "pool layer works, so transport and sharding changes show here",
        ),
    )
}

# Per-layer metric -> (unit, end-to-end metric it should move, on which workload).
# Byte counts are computed from pickled sizes, not measured on the pipe.
LAYER_MAP = {
    "cli.config_s.max": ("s", "data_per_ref_s", "gate-pool"),
    "cli.pool.wait_s": ("s", "data_per_ref_s", "gate-pool"),
    "cli.pool.chunks": ("count", "cpu_ref_s_per_kdatum", "gate-pool"),
    "cli.pool.bytes_sent": ("bytes-computed", "cpu_ref_s_per_kdatum", "gate-pool"),
    "cli.pool.bytes_returned": ("bytes-computed", "cpu_ref_s_per_kdatum", "gate-pool"),
    "enumeration.enumerate_data.self_s": ("s", "data_per_ref_s", "gate"),
    "enumeration.candidates": ("count", "data_per_ref_s", "gate"),
    "enumeration.yield_ratio": ("ratio", "data_per_ref_s", "gate"),
    "embedding.make_datum.calls": ("count", "data_per_ref_s", "gate"),
    "embedding.make_datum.self_s": ("s", "data_per_ref_s", "gate"),
    "embedding.skeleton.self_s": ("s", "data_per_ref_s", "gate"),
    "embedding.rank_reduce.self_s": ("s", "data_per_ref_s", "gate"),
    "correspondence.local_type_direct.self_s": ("s", "data_per_ref_s", "gate"),
    "correspondence.local_type_geometric.self_s": ("s", "data_per_ref_s", "gate"),
    "correspondence.to_centralizer.self_s": ("s", "data_per_ref_s", "gate"),
    "correspondence.verify_correspondence.self_s": ("s", "data_per_ref_s", "gate"),
    "correspondence.verify_correspondence.p50_us": ("us", "data_per_ref_s", "gate"),
    "correspondence.verify_correspondence.p99_us": ("us", "data_per_ref_s", "gate"),
    "apartment.standard_chain.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.chain_face.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.barycenter.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.translate.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.local_type.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.gap_class.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.coordinate_class.self_s": ("s", "data_per_ref_s", "gate"),
    "apartment.make_point.calls": ("count", "cpu_ref_s_per_kdatum", "gate"),
    "apartment.make_point.self_s": ("s", "cpu_ref_s_per_kdatum", "gate"),
    "cyclic.canonical.calls": ("count", "data_per_ref_s", "gate"),
    "cyclic.canonical.self_s": ("s", "data_per_ref_s", "gate"),
    "cyclic.canonical.mean_len": ("entries", "data_per_ref_s", "gate"),
    "cyclic.complement.self_s": ("s", "data_per_ref_s", "gate"),
    "cyclic.pairs_of.self_s": ("s", "data_per_ref_s", "gate"),
    "cyclic.from_pairs.self_s": ("s", "data_per_ref_s", "gate"),
    "cyclic.flatten.calls": ("count", "data_per_ref_s", "gate"),
    "cyclic.flatten.self_s": ("s", "data_per_ref_s", "gate"),
    "fractions.new_per_datum": ("1/datum", "cpu_ref_s_per_kdatum", "gate"),
}

# Per-layer metrics that describe the traced run itself rather than a layer.
TRACE_HEALTH = {
    "correspondence.verify_correspondence.samples": "count",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}
