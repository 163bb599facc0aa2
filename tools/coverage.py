#!/usr/bin/env python3
"""Line and function coverage of src/ from a --coverage build.

Usage:
  cmake -B build-cov -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j
  (cd build-cov && ctest -j4)          # and any harness: every run adds up
  python3 tools/coverage.py build-cov

Runs plain `gcov --json-format --stdout` over every object's .gcno file
under the build directory (no other tool is needed) and merges the records
of files under src/. An object without a .gcda file was never part of a
program that ran, so all its functions count as never run. A function is
identified by (file, start line), so the copies of an inline or template
function that several object files emit fold into one location; it ran if
any copy ran. Lines merge the same way.

Prints the line total, the uncovered lines of each file as ranges, and
every src/ function that never ran. Exits 1 if any function never ran (the
line percentage is printed, not gated), 2 if there is no coverage data.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

BATCH = 64  # objects per gcov call


def gcov_documents(gcno_files):
    """Yields gcov's JSON document for each object."""
    decoder = json.JSONDecoder()
    for i in range(0, len(gcno_files), BATCH):
        # stderr only says "cannot open data file, assuming not executed"
        # for objects without a .gcda, which is what the zero counts mean.
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + gcno_files[i:i + BATCH],
            check=True, capture_output=True, text=True).stdout
        pos = 0
        while True:
            while pos < len(out) and out[pos].isspace():
                pos += 1
            if pos >= len(out):
                break
            doc, pos = decoder.raw_decode(out, pos)
            yield doc


def ranges(lines):
    """[3, 4, 5, 9] -> '3-5, 9'."""
    spans = []
    for n in sorted(lines):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="a build configured with --coverage")
    args = parser.parse_args()

    # Resolved once, so that the src/ prefix test and the displayed paths
    # agree when the checkout path goes through a symlink.
    root = os.path.realpath(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    src = os.path.join(root, "src") + os.sep
    gcno = sorted(
        os.path.join(d, f)
        for d, _, files in os.walk(args.build_dir)
        for f in files if f.endswith(".gcno"))
    ran = sum(os.path.exists(f[:-len(".gcno")] + ".gcda") for f in gcno)
    if ran == 0:
        print(f"coverage: no .gcda files under {args.build_dir}; build with "
              "--coverage and run something first", file=sys.stderr)
        return 2

    functions = {}  # (file, start line) -> [name, execution count]
    line_counts = defaultdict(lambda: defaultdict(int))  # file -> line -> n
    for doc in gcov_documents(gcno):
        cwd = doc.get("current_working_directory", "")
        for record in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, record["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for fn in record["functions"]:
                entry = functions.setdefault((rel, fn["start_line"]),
                                             [fn["demangled_name"], 0])
                entry[1] += fn["execution_count"]
            for line in record["lines"]:
                line_counts[rel][line["line_number"]] += line["count"]

    if not functions:
        print(f"coverage: no src/ records under {args.build_dir}",
              file=sys.stderr)
        return 2

    total = sum(len(lines) for lines in line_counts.values())
    covered = sum(1 for lines in line_counts.values()
                  for n in lines.values() if n > 0)
    never = sorted(key for key, (_, n) in functions.items() if n == 0)
    print(f"src/ coverage from {len(gcno)} objects, {ran} of which ran")
    print(f"functions: {len(functions)} locations, {len(never)} never ran")
    print(f"lines: {covered} / {total} ({100.0 * covered / total:.1f}%)")

    print("\nuncovered lines per file:")
    for rel in sorted(line_counts):
        lines = line_counts[rel]
        missed = [n for n, count in lines.items() if count == 0]
        if missed:
            hit = len(lines) - len(missed)
            print(f"  {rel}: {hit}/{len(lines)} "
                  f"({100.0 * hit / len(lines):.1f}%) missed {ranges(missed)}")

    if never:
        print("\nfunctions that never ran:")
        for rel, start in never:
            print(f"  {rel}:{start}  {functions[(rel, start)][0]}")
        return 1
    print("\nevery src/ function ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
