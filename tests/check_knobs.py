#!/usr/bin/env python3
"""Checks that the DLB_* environment knobs and KNOBS.md agree.

Usage: check_knobs.py REPO_ROOT

- Every "DLB_*" name that a source file under src/ reads (as a string
  literal) must have a row in KNOBS.md.
- Every DLB_* name in the first column of a KNOBS.md table row must be
  read somewhere in src/, or be one of the test, script or
  CMake knobs in NOT_READ_BY_SRC.

Exits non-zero listing every violation.
"""

import pathlib
import re
import sys

# Knobs that KNOBS.md documents but src/ does not read: test and script
# variables and CMake options.
NOT_READ_BY_SRC = {
    "DLB_GOLDEN_RECORD",     # tests/golden_test.cpp
    "DLB_PERF_FLOOR_SCALE",  # scripts/perf_smoke.sh
    "DLBENCH_SANITIZE",      # CMake option / scripts/sanitize_check.sh
}

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
READ_NAME = re.compile(r'"(DLB_[A-Z0-9_]+)"')
KNOB_NAME = re.compile(r"`(DLB(?:ENCH)?_[A-Z0-9_]+)`")


def names_read_by_src(src):
    names = set()
    for path in src.rglob("*"):
        if path.suffix in SOURCE_SUFFIXES:
            names.update(READ_NAME.findall(path.read_text()))
    return names


def names_documented(knobs_md):
    names = set()
    for line in knobs_md.read_text().splitlines():
        cells = line.split("|")
        if line.startswith("|") and len(cells) > 2:
            names.update(KNOB_NAME.findall(cells[1]))
    return names


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    read = names_read_by_src(root / "src")
    documented = names_documented(root / "KNOBS.md")
    errors = []
    for name in sorted(read - documented):
        errors.append(f"{name} is read in src/ but has no KNOBS.md row")
    for name in sorted(documented - read - NOT_READ_BY_SRC):
        errors.append(f"{name} has a KNOBS.md row but src/ never reads it")
    for error in errors:
        print(f"check_knobs: {error}", file=sys.stderr)
    if not errors:
        print(f"check_knobs: {len(read)} knobs read in src/, all documented")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
