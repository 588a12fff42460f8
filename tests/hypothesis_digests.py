"""Digests of the examples each property test draws, for diffing two trees.

Derandomized hypothesis draws depend on the literals of the local modules it
scans, so an edit to src/ can change the examples a property test tries
without changing the test.  This script runs every @given test under tests/
on its own, with -s --hypothesis-verbosity=verbose, and prints one line per
test: its node id, the number of "Trying example" blocks, and the sha256
prefix of their text (each block with the "Draw" lines that follow it).
Run it on two trees and diff the outputs, as with tests/run_digests.py:

    PYTHONPATH=src python tests/hypothesis_digests.py > after.txt
    (cd ../parent && PYTHONPATH=src python /path/to/hypothesis_digests.py) > before.txt
    diff before.txt after.txt

The tests run in the tree that holds this script.  A test that fails prints
its node id and exit status instead of a digest, and the script exits 1.
This file is not collected by pytest (its name has no test_ prefix).
"""

from __future__ import annotations

import glob
import hashlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# @given(...), then any further decorators, then the test it decorates
_GIVEN = re.compile(r"^@given\(.*\n(?:@.*\n)*def (test_\w+)", re.MULTILINE)
_TRYING = "Trying example:"


def property_tests():
    """Node ids of the @given tests under tests/, in file and source order."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "test_*.py"))):
        with open(path) as fh:
            names = _GIVEN.findall(fh.read())
        rel = os.path.relpath(path, ROOT)
        out += [f"{rel}::{name}" for name in names]
    return out


def example_blocks(output: str):
    """The "Trying example" blocks of verbose output: each call through its
    closing parenthesis, plus the "Draw" lines after it."""
    blocks, block, in_call = [], None, False
    for line in output.splitlines():
        at = line.find(_TRYING)
        if at >= 0:
            block = [line[at:]]
            blocks.append(block)
            in_call = True
        elif block is not None and in_call:
            block.append(line)
            in_call = line != ")"
        elif block is not None and line.startswith("Draw "):
            block.append(line)
    return ["\n".join(b) for b in blocks]


def digest_test(node_id: str):
    """(line, passed) for one property test."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "--hypothesis-verbosity=verbose", node_id]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if run.returncode:
        return f"{node_id} FAILED exit={run.returncode}", False
    blocks = example_blocks(run.stdout)
    digest = hashlib.sha256("\n".join(blocks).encode()).hexdigest()[:16]
    return f"{node_id} examples={len(blocks)} sha256={digest}", True


def main() -> int:
    ok = True
    for node_id in property_tests():
        line, passed = digest_test(node_id)
        print(line, flush=True)
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
