"""Compare the CLI output of a git revision with that of the checkout.

    python3 tools/compare_documents.py REV

Extracts the committed tree of REV into a temporary directory (git
archive), runs every command of COMMANDS on its sources and on those of this
checkout with a pinned --timestamp, each run in a fresh empty working
directory (so --cache and --out files land there), and compares the
stdout, stderr and exit code of each.
Prints one line per command and a unified diff of each difference, removes
the temporary tree, and exits 1 if any command differs, else 0 (2 when REV
cannot be read). Needs git and the standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = "2014-12-01T00:00:00+00:00"
COMMANDS = (
    "reproduce",
    "reproduce --h-max 189",
    "reproduce --s-lower 0",
    "reproduce --H 120",
    "reproduce --H 1",
    "reproduce --jobs 2 --split 180 --K-offset 19 --delta 1/300",
    "bound first --h 300 --delta 1/321",
    "bound first --h 2 --delta 1/321",
    "bound first --h 3 --delta 1/321 --out doc.json",
    "bound second --h 133 --delta 1/321",
    "bound second --h 150 --delta 1/321 --alpha 3.5 --K-offset 7",
    "bound second --h 2 --delta 3/2",
    "bound second --h 133 --delta 1/321 --K-offset 0 --alpha nan",
    "bound second --h 133 --delta 1/321 --K-offset 0 --alpha -3",
    "empirical count --x-min 1000 --x-max 3000 --threshold 17 --h 2",
    "empirical count --x-min 1000 --x-max 3000 --threshold 17 --h 2 --cache roots.bin",
    "empirical mertens --limit 100000",
    "empirical nu --d 31",
    "empirical nu --d 999999937",
    "empirical nu --d 1000000000",
)


def run(tree: Path, command: str) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one CLI command on the sources of tree,
    run in a fresh empty working directory."""
    with tempfile.TemporaryDirectory(prefix="compare-documents-run-") as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "cubebound", *command.split(), "--timestamp", TIMESTAMP],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True,
        )
    return proc.stdout, proc.stderr, proc.returncode


def differences(rev: str, before: tuple[str, str, int], after: tuple[str, str, int]) -> list[str]:
    lines = []
    for name, old, new in zip(("stdout", "stderr"), before, after):
        lines += difflib.unified_diff(old.splitlines(), new.splitlines(),
                                      f"{rev}:{name}", f"checkout:{name}", lineterm="")
    if before[2] != after[2]:
        lines.append(f"exit code {before[2]} -> {after[2]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the checkout with")
    args = parser.parse_args()
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return 2
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare-documents-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        for command in COMMANDS:
            lines = differences(args.rev, run(Path(tmp), command), run(ROOT, command))
            print(f"{'DIFF' if lines else 'same'}  {command}", flush=True)
            for line in lines:
                print(f"    {line}")
            differ += bool(lines)
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
