#!/usr/bin/env python3
"""Line-coverage aggregator for tools/coverage.sh.

Reads the documents that `gcov --json-format --stdout` prints (one JSON
object per .gcda file, one per line) on stdin and writes one summary
line per source file under the given prefixes, then a TOTAL line:

    src/core/thresholds.h    97.50% of    40 lines
    TOTAL 93.02 2207

A source file is counted once, however many translation units include
it: its executable lines are the union over every document, and a line
is covered when any document counts at least one execution of it. A
file with no executable lines adds nothing.

    gcov --json-format --stdout *.gcda | \\
        coverage_aggregate.py --root REPO --prefix src/core/ --prefix src/incr/
"""

import argparse
import json
import os
import sys


def aggregate(lines, root, prefixes):
    """Returns {path: (executable line set, covered line set)}."""
    executable = {}
    covered = {}
    for text in lines:
        text = text.strip()
        if not text:
            continue
        doc = json.loads(text)
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            path = os.path.relpath(path, root)
            if not any(path.startswith(p) for p in prefixes):
                continue
            lines_seen = executable.setdefault(path, set())
            lines_hit = covered.setdefault(path, set())
            for line in entry.get("lines", []):
                lines_seen.add(line["line_number"])
                if line["count"] > 0:
                    lines_hit.add(line["line_number"])
    return {path: (executable[path], covered[path]) for path in executable}


def summarize(per_file):
    """Summary lines, one per file with executable lines, then TOTAL."""
    out = []
    grand_total = 0
    grand_covered = 0
    for path in sorted(per_file):
        executable, covered = per_file[path]
        if not executable:
            continue
        out.append("%-52s %7.2f%% of %5d lines" %
                   (path, 100.0 * len(covered) / len(executable),
                    len(executable)))
        grand_total += len(executable)
        grand_covered += len(covered)
    out.append("TOTAL %.2f %d" %
               (100.0 * grand_covered / grand_total if grand_total else 0.0,
                grand_total))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="paths are reported relative to this directory")
    parser.add_argument("--prefix", action="append", required=True,
                        help="keep files under this relative path prefix")
    args = parser.parse_args()
    per_file = aggregate(sys.stdin, os.path.abspath(args.root), args.prefix)
    for line in summarize(per_file):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
