"""Exact-output check of one `embtypes verify` sweep.

A passing sweep prints one line `f=.. r=.. m=.. data=N fail=0` per
configuration in enumeration order, then `total data=N fail=0`.  Every count
is fixed by the closed form for |M(f, r; m)|, so the whole expected stdout is
derived here, independently of the program, and the digest of the bytes
actually printed is compared with the one pinned per workload.

Run this file to self-test the check: it must accept the expected output and
reject a perturbed line, a wrong total and a non-zero exit.
"""

from __future__ import annotations

import hashlib
import sys
from math import comb

from workloads import WORKLOADS, SweepRange


def count_data(f: int, r: int, m: int) -> int:
    """Size of M(f, r; m), by inclusion and exclusion over empty columns."""
    total = 0
    for j in range(r + 1):
        parts = f * (r - j)
        ways = comb(m + parts - 1, m) if parts else 0
        total += (-1) ** j * comb(r, j) * ways
    return total


def configurations(rng: SweepRange):
    for f in range(1, rng.f_max + 1):
        for r in range(1, rng.r_max + 1):
            if f * r > rng.fr_max:
                continue
            for m in range(1, rng.m_max + 1):
                yield f, r, m


def expected_stdout(rng: SweepRange) -> bytes:
    lines = []
    total = 0
    for f, r, m in configurations(rng):
        n = count_data(f, r, m)
        total += n
        lines.append(f"f={f} r={r} m={m} data={n} fail=0")
    lines.append(f"total data={total} fail=0")
    return ("\n".join(lines) + "\n").encode()


def check_sweep(rng: SweepRange, returncode: int, stdout: bytes, sha256: str | None = None) -> list[str]:
    """Problems with one sweep's result; empty when it is exact."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    expected = expected_stdout(rng)
    want_total = expected.splitlines()[-1]
    got = stdout.splitlines()
    if not got or got[-1] != want_total:
        problems.append(f"last line {got[-1] if got else b''!r}, expected {want_total!r}")
    if stdout != expected:
        want = expected.splitlines()
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        problems.append(
            f"stdout differs at line {k + 1}: "
            f"{got[k] if k < len(got) else b'<end>'!r} != {want[k] if k < len(want) else b'<end>'!r}"
        )
    if sha256 is not None and hashlib.sha256(stdout).hexdigest() != sha256:
        problems.append("stdout digest differs from the pinned one")
    return problems


def self_test() -> list[str]:
    """Reasons the check is unfit; empty when it accepts and rejects as it must."""
    errors = []
    for w in WORKLOADS.values():
        exact = expected_stdout(w.sweep)
        if hashlib.sha256(exact).hexdigest() != w.stdout_sha256:
            errors.append(f"{w.name}: pinned digest disagrees with the closed-form output")
        if int(exact.splitlines()[-1].split()[1].split(b"=")[1]) != w.data:
            errors.append(f"{w.name}: stated data count disagrees with the closed form")
        if check_sweep(w.sweep, 0, exact, w.stdout_sha256):
            errors.append(f"{w.name}: exact output rejected")
    rng = WORKLOADS["gate"].sweep
    digest = WORKLOADS["gate"].stdout_sha256
    exact = expected_stdout(rng)
    lines = exact.splitlines(keepends=True)
    perturbed = b"".join(lines[:3] + [lines[3].replace(b"fail=0", b"fail=1")] + lines[4:])
    wrong_total = b"".join(lines[:-1] + [b"total data=12839 fail=0\n"])
    for label, code, out in (
        ("a perturbed line", 0, perturbed),
        ("a wrong total", 0, wrong_total),
        ("a non-zero exit", 1, exact),
        ("a truncated output", 0, b"".join(lines[:-1])),
    ):
        if not check_sweep(rng, code, out, digest):
            errors.append(f"check accepted {label}")
    return errors


if __name__ == "__main__":
    failures = self_test()
    for msg in failures:
        print(msg, file=sys.stderr)
    print("self-test failed" if failures else "self-test passed")
    sys.exit(1 if failures else 0)
