"""Command line behavior: wire formats, exit codes, determinism."""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import venv
from pathlib import Path

import pytest

from embtypes import cli, correspondence, cyclic, embedding, enumeration
from embtypes.cli import VerifyRange, main, run_verify
from embtypes.correspondence import embedding_type_from_local, report_to_json
from embtypes.cyclic import CyclicClass, complement, flatten, reshape
from embtypes.embedding import data_equivalent, datum_from_json, make_datum
from embtypes.enumeration import count_data, enumerate_data

REPO = Path(__file__).resolve().parents[1]
WORKED_JSON = '{"f": 6, "r": 2, "m": 7, "rows": [[1,0],[1,3],[0,0],[0,1],[0,1],[0,0]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon(capsys):
    code, out, err = run_cli(capsys, "canon", "[2,0,1,3,0,1]")
    assert code == 0 and err == ""
    assert json.loads(out) == [0, 1, 2, 0, 1, 3]


def test_pairs(capsys):
    code, out, _ = run_cli(capsys, "pairs", "[3,2,1,0,0,4,2]")
    assert code == 0
    assert json.loads(out) == [[1, 3], [4, 1], [2, 1], [3, 1], [2, 1]]


def test_complement(capsys):
    code, out, _ = run_cli(capsys, "complement", "[3,2,1,0,0,4,2]")
    assert code == 0
    assert json.loads(out) == [0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 3]


def test_flatten(capsys):
    code, out, _ = run_cli(capsys, "flatten", "[[1,0],[1,3],[0,0],[0,1],[0,1],[0,0]]")
    assert code == 0
    assert json.loads(out) == [1, 0, 1, 3, 0, 0, 0, 1, 0, 1, 0, 0]


def test_local_type(capsys):
    code, out, _ = run_cli(capsys, "local-type", "--datum", WORKED_JSON)
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] == [[1, 4], [1, 6], [1, 12], [0, 1], [0, 1], [1, 3], [1, 6]]
    assert obj["direct"] == {"class": [0, 0, 4, 2, 3, 2, 1], "denominator": 12}
    assert obj["geometric"] == obj["direct"]
    assert obj["agree"] is True


def test_embedding_type(capsys):
    mu = "[[3,12],[2,12],[1,12],0,0,[4,12],[2,12]]"
    code, out, _ = run_cli(capsys, "embedding-type", "--mu", mu, "--f", "6", "--r", "2")
    assert code == 0
    got = datum_from_json(json.loads(out))
    worked = datum_from_json(json.loads(WORKED_JSON))
    assert data_equivalent(got, worked)


def test_embedding_type_rejects_incompatible_mu(capsys):
    code, out, err = run_cli(capsys, "embedding-type", "--mu", "[[1,3],[2,3]]", "--f", "2", "--r", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not a local type" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("canon", "not json"),
        ("canon", '[1, "a"]'),
        ("canon", "[-1, 2]"),
        ("pairs", "[0,0]"),
        ("flatten", "[]"),
        ("local-type", "--datum", '{"f": 1, "r": 1, "rows": [[1]]}'),
        ("local-type", "--datum", '{"f": 1, "r": 2, "m": 1, "rows": [[1, 0]]}'),
        ("verify", "--f-max", "0", "--r-max", "1", "--m-max", "1", "--fr-max", "1"),
        ("flatten", "[[1.9,0],[0,2]]"),
        ("flatten", "[[true,0],[0,2]]"),
        ("canon", "[true,0]"),
        ("local-type", "--datum", '{"f": 1, "r": 1, "m": 2.7, "rows": [[2]]}'),
        ("embedding-type", "--mu", "[[1,0]]", "--f", "1", "--r", "1"),
        ("complement", "[]"),
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "datum, message",
    [
        ("[1]", "a datum must be a JSON object with the keys f, r, m and rows"),
        ("{}", "datum: missing key 'f', missing key 'r', missing key 'm', missing key 'rows'"),
        ('{"f": 1, "r": 1, "rows": [[1]]}', "datum: missing key 'm'"),
        ('{"f": 1, "r": 1, "m": 1, "rows": [[1]], "n": 1}', "datum: unknown key 'n'"),
    ],
    ids=["array", "empty", "missing", "unknown"],
)
def test_a_datum_has_exactly_four_keys(capsys, datum, message):
    code, out, err = run_cli(capsys, "local-type", "--datum", datum)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_smallest_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "3", "--fr-max", "1")
    assert code == 0
    assert out.splitlines() == [
        "f=1 r=1 m=1 data=1 fail=0",
        "f=1 r=1 m=2 data=1 fail=0",
        "f=1 r=1 m=3 data=1 fail=0",
        "total data=3 fail=0",
    ]


def test_verify_totals_match_the_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--f-max", "2", "--r-max", "2", "--m-max", "4", "--fr-max", "4")
    assert code == 0
    expected = sum(count_data(f, r, m) for f, r, m in VerifyRange(2, 2, 4, 4).configurations())
    assert out.splitlines()[-1] == f"total data={expected} fail=0"


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys, "verify", "--f-max", "2", "--r-max", "1", "--m-max", "2", "--fr-max", "2",
        "--report", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["verdict"] == "pass" and payload["failures"] == []
    assert payload["range"] == {"f_max": 2, "r_max": 1, "m_max": 2, "fr_max": 2}
    assert payload["total"] == sum(c["data"] for c in payload["configurations"])


@pytest.mark.parametrize(
    "where",
    [lambda tmp: tmp / "missing" / "x.json", lambda tmp: tmp],
    ids=["missing-parent", "directory"],
)
def test_verify_report_to_unwritable_path_exits_2_before_the_sweep(tmp_path, capsys, where):
    code, out, err = run_cli(
        capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1",
        "--report", str(where(tmp_path)),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_report_to_an_empty_path_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1", "--report", "",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_verify_report_survives_a_failed_write(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sweep.json"
    path.write_text("previous report\n")

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    code, _, err = run_cli(
        capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1",
        "--report", str(path),
    )
    assert code == 2 and "disk full" in err
    assert path.read_text() == "previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_verify_report_leaves_a_file_named_like_a_temporary_alone(tmp_path, capsys, monkeypatch):
    # the report used to go through <report>.tmp, deleting a user's file of that name
    notes = tmp_path / "sweep.json.tmp"
    notes.write_bytes(b"my notes\n")
    monkeypatch.chdir(tmp_path)  # a bare file name: the temporary file goes in the current directory
    code, _, _ = run_cli(
        capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1", "--report", "sweep.json",
    )
    assert code == 0
    assert notes.read_bytes() == b"my notes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json", "sweep.json.tmp"]
    assert json.loads((tmp_path / "sweep.json").read_text())["verdict"] == "pass"
    # the report gets the mode of any new file, not the 0600 of a temporary one
    (tmp_path / "plain").touch()
    assert os.stat("sweep.json").st_mode == os.stat("plain").st_mode


def test_verify_report_probe_leaves_no_file_when_the_sweep_crashes(tmp_path, monkeypatch):
    def crash(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_shard", crash)
    with pytest.raises(KeyboardInterrupt):
        run_verify(VerifyRange(1, 1, 1, 1), str(tmp_path / "sweep.json"))
    assert list(tmp_path.iterdir()) == []


def test_a_crash_at_jobs_2_stops_the_queued_shards(tmp_path, monkeypatch):
    # forked pool workers inherit the stub; every shard but the first logs
    # itself and takes a while, so a pool drained to the end runs them all
    log = tmp_path / "shards.log"

    def shard(f, r, m, head):
        if (f, r, m, head) == (1, 1, 1, 0):
            raise ValueError("broken shard")
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{f} {r} {m} {head}\n")
        time.sleep(0.1)
        return iter(())

    monkeypatch.setattr(cli, "_shard", shard)
    rng = VerifyRange(1, 1, 8, 1, jobs=2)
    shards = sum(m + 1 for _, _, m in rng.configurations())
    with pytest.raises(ValueError, match="broken shard"):
        run_verify(rng)
    ran = log.read_text().splitlines() if log.exists() else []
    assert len(ran) < shards - 1


def _planted_sweep(before_shard: str) -> subprocess.Popen:
    """`verify` over f, r <= 2, f*r <= 4, m <= 4 at --jobs 2 in a new process group.

    Each worker runs the statement before_shard, with the shard in task,
    before it verifies that shard.  Output is unbuffered, so each line
    can be read as it is printed.
    """
    script = (
        "import os, signal, sys, time\n"
        "from embtypes import cli\n"
        "verify_shard = cli._verify_shard\n"
        "def planted(task):\n"
        f"    {before_shard}\n"
        "    return verify_shard(task)\n"
        "cli._verify_shard = planted\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["verify", "--f-max", "2", "--r-max", "2", "--m-max", "4", "--fr-max", "4", "--jobs", "2"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.Popen(
        [sys.executable, "-u", "-c", script, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )


def _end_group(proc):
    """Kill what is left of proc's process group, such as workers a hung sweep keeps."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def test_a_dead_worker_at_jobs_2_exits_3_and_names_its_batch():
    # the other worker returns every other batch while the planted one
    # sleeps, so the batch of (2, 2, 3, 1) is the first that does not return
    proc = _planted_sweep("if task == (2, 2, 3, 1): time.sleep(0.5); os.kill(os.getpid(), signal.SIGKILL)")
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        _end_group(proc)
    assert proc.returncode == 3 and "total" not in out and "f=2 r=2 m=3" not in out
    lost = "(2, 2, 3, 1), (2, 2, 3, 2), (2, 2, 3, 3), (2, 2, 4, 0)"
    message = f"error: internal: RuntimeError: the pool broke before shards (f, r, m, head) {lost} returned: "
    assert err.splitlines()[-1].startswith(message)


def test_an_interrupt_at_jobs_2_ends_the_sweep_at_once():
    # at 0.5 s a shard a batch takes 2 s and the whole sweep 15 s; a worker
    # that caught the interrupt would go on to the batch queued for it
    proc = _planted_sweep("time.sleep(0.5)")
    try:
        assert proc.stdout.readline().startswith("f=1 r=1 m=1 ")
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C in a terminal, to the sweep and its workers
        start = time.perf_counter()
        out, err = proc.communicate(timeout=60)
        elapsed = time.perf_counter() - start
    finally:
        _end_group(proc)
    assert proc.returncode != 0 and "total" not in out
    assert "KeyboardInterrupt" in err
    assert elapsed < 1.5


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_a_crash_in_verify_exits_3(capsys, monkeypatch, error):
    # the bounds are valid, so a raise inside the sweep is not bad input (2)
    # and not a failing datum (1)
    def crash(*args):
        raise error("enumeration broke")

    monkeypatch.setattr(cli, "_shard", crash)
    code, out, err = run_cli(capsys, "verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1")
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == f"error: internal: {error.__name__}: enumeration broke"


@pytest.mark.parametrize(
    "stub, argv",
    [
        ("canonical", ["canon", "[1,0]"]),
        ("pairs_of", ["pairs", "[1,0]"]),
        ("complement", ["complement", "[1,0]"]),
        ("flatten", ["flatten", "[[1,0]]"]),
        ("verify_correspondence", ["local-type", "--datum", WORKED_JSON]),
        ("embedding_type_from_local", ["embedding-type", "--mu", "[1]", "--f", "1", "--r", "1"]),
        ("enumerate_data", ["enumerate", "--f", "1", "--r", "1", "--m", "1"]),
    ],
)
def test_a_crash_in_any_command_exits_3(capsys, monkeypatch, stub, argv):
    # exit 1 means a failing datum, so a crash must not escape main with it
    def crash(*args):
        raise RuntimeError("broke")

    monkeypatch.setattr(cli, stub, crash)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal: RuntimeError: broke"


def test_verify_starts_no_more_workers_than_shards(monkeypatch):
    # the pool gets batches of SHARDS_PER_BATCH shards and one worker per batch at most,
    # and a range of one batch runs in this process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def map(self, func, tasks, chunksize=1):
            assert chunksize == cli.SHARDS_PER_BATCH
            return map(func, tasks)

        def shutdown(self, wait=True, *, cancel_futures=False):
            assert cancel_futures

    monkeypatch.setattr(cli, "SHARDS_PER_BATCH", 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)  # run_verify imports it per call
    buf = io.StringIO()
    assert run_verify(VerifyRange(1, 1, 1, 1, jobs=64), stream=buf) == 0  # 2 shards
    assert buf.getvalue().endswith("total data=1 fail=0\n")
    assert run_verify(VerifyRange(1, 1, 3, 1, jobs=64), stream=buf) == 0  # 9 shards
    assert sizes == [3]  # one batch needs no pool


def test_the_fr8_slice_prints_its_pinned_summary():
    buf = io.StringIO()
    assert run_verify(VerifyRange(6, 4, 7, 8), stream=buf) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "9c4e9cb5684ae086310d54737d3f830d89ecbe7b0f3182fd6796d44c2273ac0e"


@pytest.mark.slow
def test_the_extended_range_prints_its_pinned_summary():
    # about two minutes on two workers; run_verify checks each
    # configuration's count against count_data on the way
    buf = io.StringIO()
    assert run_verify(VerifyRange(8, 8, 9, 16, jobs=2), stream=buf) == 0
    assert buf.getvalue().endswith("\ntotal data=5993644 fail=0\n")
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "c5f6d202d67c38a2ae01df61b28cd24f0545f68fc1588d185f1df07b2633c52d"


def _sweep_lines(rng):
    buf = io.StringIO()
    return run_verify(rng, stream=buf), buf.getvalue()


def test_a_canonicalizer_that_merges_classes_leaves_the_sweep_alone(monkeypatch):
    # sorting maps distinct classes with equal entries to one form; the sweep
    # builds no canonical form for a passing datum, so it prints the same bytes
    rng = VerifyRange(2, 2, 4, 4)
    code, out = _sweep_lines(rng)
    monkeypatch.setattr(cyclic, "_least_rotation", lambda t: tuple(sorted(t)))
    assert code == 0 and _sweep_lines(rng) == (code, out)


def test_a_passing_datum_builds_no_class_and_no_report(monkeypatch):
    def refuse(*args):
        raise AssertionError("built for a passing datum")

    monkeypatch.setattr(cyclic, "_least_rotation", refuse)  # every nonempty CyclicClass calls it
    monkeypatch.setattr(correspondence, "CorrespondenceReport", refuse)
    assert _sweep_lines(VerifyRange(2, 2, 4, 4))[0] == 0


def test_a_passing_datum_builds_no_datum_and_no_fraction(monkeypatch):
    # the sweep checks flat vectors, so only a failing datum is cut into rows
    # and given Fraction coordinates; the output is that of the row-based sweep
    def refuse(*args):
        raise AssertionError("built for a passing datum")

    monkeypatch.setattr(correspondence, "Fraction", refuse)
    monkeypatch.setattr(embedding, "EmbeddingDatum", refuse)
    monkeypatch.setattr(enumeration, "EmbeddingDatum", refuse)
    code, out = _sweep_lines(VerifyRange(2, 2, 4, 4))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert code == 0 and digest == "b6bdcdca27fc0cfe65ec3c62440f19aea8eada4f8f44ee613bdcadc871d0c1e7"


def test_a_reversed_geometric_route_fails_the_sweep_under_a_merging_canonicalizer(monkeypatch):
    # a reversed vector sorts like the original, so a verifier that compared
    # canonical forms would pass every datum; comparing by rotation it must not
    monkeypatch.setattr(cyclic, "_least_rotation", lambda t: tuple(sorted(t)))
    original = correspondence._local_type_geometric
    monkeypatch.setattr(correspondence, "_local_type_geometric", lambda f, r, v: original(f, r, v)[::-1])
    code, out = _sweep_lines(VerifyRange(2, 2, 4, 4))
    assert code == 1
    total, fail = (int(x.split("=")[1]) for x in out.splitlines()[-2].split()[1:])
    assert total == 65 and 0 < fail <= total


def _off_direct(original):
    # a direct route whose first coordinate f * r cannot clear: it adds 1 / (2 * f * r)
    def direct(f, r, v):
        nums, den = original(f, r, v)
        return (2 * nums[0] + 1, *(2 * n for n in nums[1:])), 2 * den

    return direct


def _off_complement(original):
    return lambda v: original([v[0] + 1, *v[1:]])


def _off_geometric(original):
    return lambda f, r, v: original(f, r, v) + (0,)


def _raising(original):
    def geometric(f, r, v):
        raise RuntimeError(f"no route for m={sum(v)}")

    return geometric


def _divisor_direct(original):
    # a direct route over a proper divisor of f * r, its least prime factor
    # taken out: integrality holds, but f * r times the coordinates sums past
    # f * r, so no complement of it is a rotation of the datum
    def direct(f, r, v):
        nums, den = original(f, r, v)
        return nums, den // next(p for p in range(2, den + 1) if den % p == 0)

    return direct


# Each mutant replaces a function the verifier's checks call in correspondence.
MISMATCH_SITES = [
    ("_local_type_direct", _off_direct, "integrality"),
    ("_complement", _off_complement, "complement-identity"),
    ("_local_type_geometric", _off_geometric, "pipeline-agreement"),
    ("_local_type_geometric", _raising, "exception"),
]


def _site_id(name, mutate, site):
    # a private core `_x` returns the raw vector of the public `x`, so an id
    # names the route by its public name
    return f"{name.lstrip('_')}-{mutate.__name__}-{site}"


# At jobs 2 the failures come back from forked pool workers, which inherit
# the monkeypatched route; only those cases carry the job count in their id.
@pytest.mark.parametrize(
    "name, mutate, site, jobs",
    [
        pytest.param(name, mutate, site, jobs, id=_site_id(name, mutate, site) + suffix)
        for jobs, suffix in (("1", ""), ("2", "-jobs2"))
        for name, mutate, site in MISMATCH_SITES
    ],
)
def test_verifier_reports_each_mismatch_site(tmp_path, capsys, monkeypatch, name, mutate, site, jobs):
    monkeypatch.setattr(correspondence, name, mutate(getattr(correspondence, name)))
    path = tmp_path / "sweep.json"
    code, out, _ = run_cli(
        capsys, "verify", "--f-max", "2", "--r-max", "1", "--m-max", "2", "--fr-max", "2",
        "--jobs", jobs, "--report", str(path),
    )
    assert code == 1
    # every datum fails, at the mutated site
    total = sum(count_data(f, r, m) for f, r, m in VerifyRange(2, 1, 2, 2).configurations())
    lines = out.splitlines()
    assert lines[-2] == f"total data={total} fail={total}"
    first = json.loads(lines[-1])
    assert first["verdict"] == "fail" and first["mismatch"] == site
    assert first["datum"] == {"f": 1, "r": 1, "m": 1, "rows": [[1]]}
    if site == "exception":
        assert first["error"] == "RuntimeError: no route for m=1"
    payload = json.loads(path.read_text())
    assert payload["verdict"] == "fail" and payload["total"] == total
    assert [failure["mismatch"] for failure in payload["failures"]] == [site] * total
    assert all(set(failure) == {"f", "r", "m", "rows", "mismatch"} for failure in payload["failures"])


@pytest.mark.parametrize(
    "name, mutate, site",
    [pytest.param(*case, id=_site_id(*case)) for case in MISMATCH_SITES],
)
def test_a_failure_is_reported_as_verify_correspondence_reports_it(monkeypatch, name, mutate, site):
    monkeypatch.setattr(correspondence, name, mutate(getattr(correspondence, name)))
    tasks = [(f, r, m, head) for f, r, m in VerifyRange(2, 2, 3, 4).configurations() for head in range(m + 1)]
    for task in tasks:
        f, r, m, _ = task
        count, failures = cli._verify_shard(task)
        data = [embedding._datum(f, r, m, v) for v in enumeration._shard(*task)]
        assert count == len(failures) == len(data)
        for failure, datum in zip(failures, data):
            assert failure["mismatch"] == site
            if site == "exception":
                with pytest.raises(RuntimeError) as raised:
                    correspondence.verify_correspondence(datum)
                assert failure["error"] == f"RuntimeError: {raised.value}"
            else:
                assert failure == report_to_json(correspondence.verify_correspondence(datum))


def test_a_denominator_below_f_r_is_reported_as_verify_correspondence_reports_it(monkeypatch):
    # the class kernel scales the coordinates by f * r // den, which is 1 on
    # every datum the direct route gets right; here it is at least 2
    monkeypatch.setattr(correspondence, "_local_type_direct", _divisor_direct(correspondence._local_type_direct))
    tasks = [
        (f, r, m, head) for f, r, m in VerifyRange(2, 2, 3, 4).configurations() if f * r > 1 for head in range(m + 1)
    ]
    for task in tasks:
        f, r, m, _ = task
        count, failures = cli._verify_shard(task)
        data = [embedding._datum(f, r, m, v) for v in enumeration._shard(*task)]
        assert count == len(failures) == len(data)
        for failure, datum in zip(failures, data):
            assert failure == report_to_json(correspondence.verify_correspondence(datum))
            nums, den = correspondence._local_type_direct(f, r, flatten(datum.rows))
            assert failure["mismatch"] == "complement-identity" and f * r // den >= 2
            assert failure["complement"] == list(complement([n * (f * r // den) for n in nums]))


# Each fault rewrites the vectors of one shard of f=2 r=2 m=3, whose shards
# 1 and 2 are (1, 0, 0, 2), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
# (1, 2, 0, 0) and (2, 0, 0, 1), (2, 1, 0, 0); every datum still passes its
# checks, so only the coverage checks can stop the sweep.
COVERAGE_FAULTS = [
    ("dropped", 1, lambda vs: vs[:-1], "the shards yield 11 data, count_data gives 12"),
    (
        "duplicated", 1, lambda vs: vs[:1] * 2 + vs[2:],
        "shard 1 yields (1, 0, 0, 2) after (1, 0, 0, 2), not a new datum with first entry 1",
    ),
    (
        "from-the-shard-before", 2, lambda vs: [(1, 2, 0, 0)] + vs[1:],
        "shard 2 yields (1, 2, 0, 0) after (), not a new datum with first entry 2",
    ),
    ("heavier", 1, lambda vs: vs[:-1] + [(1, 2, 0, 1)], "shard 1 yields (1, 2, 0, 1), with 4 units, not 3"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "head, fault, message", [pytest.param(*case[1:], id=case[0]) for case in COVERAGE_FAULTS]
)
def test_a_sweep_that_misses_or_repeats_a_datum_exits_3(capsys, monkeypatch, head, fault, message, jobs):
    # a pass must cover M(f, r; m) exactly; forked pool workers inherit the stub
    shard = enumeration._shard

    def faulty(*task):
        vectors = list(shard(*task))
        return iter(fault(vectors) if task == (2, 2, 3, head) else vectors)

    monkeypatch.setattr(cli, "_shard", faulty)
    code, out, err = run_cli(
        capsys, "verify", "--f-max", "2", "--r-max", "2", "--m-max", "4", "--fr-max", "4", "--jobs", jobs
    )
    assert code == 3 and "f=2 r=2 m=3" not in out
    assert err.splitlines()[-1] == f"error: internal: RuntimeError: f=2 r=2 m=3: {message}"


def test_failures_keep_their_order_across_batches(tmp_path, capsys, monkeypatch):
    # failing shards spread over several pool batches, with two mismatch sites
    failing = {(1, 1, 3, 3): "exception", (1, 2, 4, 2): "pipeline-agreement", (2, 1, 3, 1): "exception",
               (2, 2, 3, 0): "pipeline-agreement", (2, 2, 4, 1): "exception"}
    monkeypatch.setattr(cli, "SHARDS_PER_BATCH", 4)
    rng = VerifyRange(2, 2, 4, 4)
    tasks = [(f, r, m, head) for f, r, m in rng.configurations() for head in range(m + 1)]
    assert len({tasks.index(t) // cli.SHARDS_PER_BATCH for t in failing}) == len(failing)
    original = correspondence._local_type_geometric

    def geometric(f, r, v):
        site = failing.get((f, r, sum(v), v[0]))
        if site == "exception":
            raise RuntimeError("planted")
        lt = original(f, r, v)
        return lt + (0,) if site else lt

    monkeypatch.setattr(correspondence, "_local_type_geometric", geometric)
    runs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"sweep-{jobs}.json"
        code, out, _ = run_cli(
            capsys, "verify", "--f-max", "2", "--r-max", "2", "--m-max", "4", "--fr-max", "4",
            "--jobs", jobs, "--report", str(path),
        )
        assert code == 1
        runs.append((out, path.read_bytes()))
    assert runs[0] == runs[1]
    expected = [
        (d.f, d.r, d.m, [list(row) for row in d.rows], failing[(d.f, d.r, d.m, d.rows[0][0])])
        for f, r, m in rng.configurations()
        for d in enumerate_data(f, r, m)
        if (f, r, m, d.rows[0][0]) in failing
    ]
    got = [(x["f"], x["r"], x["m"], x["rows"], x["mismatch"]) for x in json.loads(runs[0][1])["failures"]]
    assert got == expected and len({x[:3] for x in got}) == len(failing)


def test_parallel_output_matches_serial(capsys):
    # m up to 5 gives configurations that span several non-empty shards
    args = ("verify", "--f-max", "3", "--r-max", "2", "--m-max", "5", "--fr-max", "6")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args, "--jobs", "2")
    assert (code_a, out_a) == (code_b, out_b)


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--f", "2", "--r", "1", "--m", "2")
    assert code == 0
    rows = [datum_from_json(json.loads(line)) for line in out.splitlines()]
    assert rows == [
        make_datum([(0,), (2,)], 2, 1, 2),
        make_datum([(1,), (1,)], 2, 1, 2),
        make_datum([(2,), (0,)], 2, 1, 2),
    ]


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--f", "3", "--r", "2", "--m", "4", "--count-only")
    assert code == 0
    assert out.strip() == str(count_data(3, 2, 4))


def test_run_verify_accepts_a_stream():
    import io

    buf = io.StringIO()
    assert run_verify(VerifyRange(1, 1, 2, 1), stream=buf) == 0
    assert buf.getvalue().endswith("total data=2 fail=0\n")


def test_verify_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        VerifyRange(1, 1, 1, 0)
    with pytest.raises(ValueError):
        VerifyRange(1, 1, 1, 1, jobs=0)


# each call used to pass a bool or a float size through, or crash with TypeError
NON_INT_SIZES = {
    "enumerate_data-m": lambda: list(enumerate_data(1, 1, 2.0)),
    "enumerate_data-f": lambda: list(enumerate_data(True, 1, 1)),
    "count_data": lambda: count_data(1, True, 1),
    "make_datum": lambda: make_datum([[1]], True, True, True),
    "reshape": lambda: reshape([1, 1], 2.0, 1),
    "embedding_type_from_local": lambda: embedding_type_from_local(CyclicClass((1,)), True, 1),
    "VerifyRange": lambda: VerifyRange(1.5, 1, 1, 1),
    "VerifyRange-jobs": lambda: VerifyRange(1, 1, 1, 1, jobs=True),
}


@pytest.mark.parametrize("call", NON_INT_SIZES.values(), ids=NON_INT_SIZES.keys())
def test_public_entry_points_reject_non_int_sizes(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_python_m_embtypes():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "embtypes", "canon", "[1,0,1,0]"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [0, 1, 0, 1]


def _modules_after(code):
    """sys.modules of a fresh interpreter with PYTHONPATH=src once code has run.

    With -S, so that no .pth file of the site packages imports a module the
    program would then seem not to load.
    """
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    probe = f"import sys\n{code}\nprint(*sys.modules, file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True)
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [["verify", "--f-max", "1", "--r-max", "1", "--m-max", "1", "--fr-max", "1", "--jobs", "1"], ["canon", "[1,0]"]],
    ids=["verify-one-datum", "canon"],
)
def test_a_command_loads_no_module_it_does_not_use(argv):
    # every command runs in a fresh process that pays for its imports: the
    # records are named tuples, only a pool imports concurrent.futures and
    # multiprocessing, and only a report tempfile
    bare = _modules_after("")
    loaded = _modules_after(f"from embtypes.cli import main\nassert main({argv!r}) == 0")
    assert "embtypes.cli" in loaded
    unused = {"concurrent.futures", "dataclasses", "inspect", "multiprocessing", "tempfile"}
    assert sorted((loaded - bare) & unused) == []


def test_installed_entry_point(tmp_path):
    """The `[project.scripts]` entry becomes a working `embtypes` command.

    The package is installed in development mode into a throwaway venv that
    sees the system site packages, from a copy of `pyproject.toml` and
    `src/`, so neither the checkout nor the running interpreter is written.
    A venv with system site packages sees the base interpreter's packages,
    not those of a venv pytest may run in, so the build step is pointed at
    the setuptools this interpreter imports.
    """
    setuptools = pytest.importorskip("setuptools")
    project = tmp_path / "project"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(REPO / "src", project / "src", ignore=ignore)
    shutil.copy(REPO / "pyproject.toml", project)
    venv.create(tmp_path / "venv", system_site_packages=True, with_pip=False)
    bin_dir = tmp_path / "venv" / ("Scripts" if sys.platform == "win32" else "bin")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    python = shutil.which("python", path=bin_dir)
    develop = [python, "-c", "import setuptools; setuptools.setup()", "develop"]
    build_env = {**env, "PYTHONPATH": str(Path(setuptools.__file__).parents[1])}
    subprocess.run(develop, cwd=project, env=build_env, check=True)

    exe = shutil.which("embtypes", path=bin_dir)
    assert exe, "console script should be on PATH"
    proc = subprocess.run([exe, "canon", "[1,0,1,0]"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [0, 1, 0, 1]
