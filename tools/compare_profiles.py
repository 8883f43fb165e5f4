"""Compare the factor_range profiles of a git revision with those of the checkout.

    python3 tools/compare_profiles.py REV X_MIN:X_MAX [X_MIN:X_MAX ...]

Extracts the committed tree of REV into a temporary directory (git
archive), and runs factor_range(RangeJob(X_MIN, X_MAX, 2, 0)) with a root
table to X_MAX over each window on its sources and on those of this
checkout, each tree in a fresh process. Prints one line per window with the
sha256 of each side's profiles (one line "n value factors" per n) and its
seconds, removes the temporary tree, and exits 1 if any window differs,
else 0 (2 when REV cannot be read or a window is malformed). The CLI has no
factor command, so tools/compare_documents.py cannot see a change in the
split. Needs git, the standard library and the package's own dependencies.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = """
import hashlib, sys, time
from cubebound.empirical import RangeJob, build_root_table, factor_range
for window in sys.argv[1:]:
    x_min, x_max = map(int, window.split(":"))
    start, digest = time.perf_counter(), hashlib.sha256()
    for p in factor_range(RangeJob(x_min, x_max, 2, 0), build_root_table(x_max)):
        digest.update(f"{p.n} {p.value} {p.factors}\\n".encode())
    print(digest.hexdigest(), f"{time.perf_counter() - start:.2f}", flush=True)
"""


def profiles(tree: Path, windows: list[str]) -> list[tuple[str, str]]:
    """(sha256, seconds) of each window's profiles on the sources of tree."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *windows],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True, check=True,
    )
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the checkout with")
    parser.add_argument("windows", nargs="+", metavar="X_MIN:X_MAX")
    args = parser.parse_args()
    for window in args.windows:
        parts = window.split(":")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            sys.stderr.write(f"not a window X_MIN:X_MAX: {window}\n")
            return 2
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-profiles-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        before = profiles(Path(tmp), args.windows)
    after = profiles(ROOT, args.windows)
    differ = 0
    for window, (old, old_s), (new, new_s) in zip(args.windows, before, after):
        print(f"{'same' if old == new else 'DIFF'}  {window}  {args.rev}: {old} ({old_s} s)"
              f"  checkout: {new} ({new_s} s)")
        differ += old != new
    print(f"{differ} of {len(args.windows)} windows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
