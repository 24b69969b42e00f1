#!/usr/bin/env python3
"""Fail when an APQ_* environment knob and docs/reference.md disagree.

Usage:
    tools/knob_doc_check.py [--src DIR] [--doc FILE]

Scans the C++ sources for environment-knob reads — the util/env.h readers
`EnvInt("APQ_...")` and `EnvPath("APQ_...")`, and a plain
`getenv("APQ_...")` — and diffs the result against the knob names
documented in docs/reference.md. The check is
bidirectional: an undocumented knob fails (someone added a knob without
telling operators), and a documented-but-gone knob fails too (the reference
would be lying). Registered as a ctest (knob_doc_check_py), so the build
itself enforces that docs/reference.md stays the single complete inventory.

Knob *reads* are matched, not mere mentions: a macro like APQ_CHECK or a
header guard never trips the scan. Exit codes mirror bench_trend.py:
0 = in sync, 1 = drift, 2 = missing inputs.
"""

import argparse
import os
import re
import sys

# A knob read is one of the idioms every APQ_* env access uses. String
# literals only: concatenated or computed names would defeat any grep, and
# the codebase deliberately has none.
READ_RE = re.compile(
    r'(?:getenv|EnvInt|EnvPath)\s*\(\s*"(APQ_[A-Z0-9_]+)"')

# A knob is "documented" when reference.md names it as inline code. This is
# deliberately stricter than a bare-word mention: prose like "unlike
# APQ_FOO..." about a removed knob should not satisfy the check.
DOC_RE = re.compile(r'`(APQ_[A-Z0-9_]+)(?:=[^`]*)?`')


def scan_sources(src_dir):
    """knob name -> first file:line that reads it."""
    reads = {}
    for root, _, files in sorted(os.walk(src_dir)):
        for name in sorted(files):
            if not name.endswith((".cc", ".h", ".cpp", ".hpp")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8", errors="replace") as f:
                for lineno, line in enumerate(f, 1):
                    for m in READ_RE.finditer(line):
                        reads.setdefault(
                            m.group(1),
                            "%s:%d" % (os.path.relpath(path, src_dir),
                                       lineno))
    return reads


def scan_docs(doc_path):
    with open(doc_path, encoding="utf-8") as f:
        return set(DOC_RE.findall(f.read()))


def main():
    ap = argparse.ArgumentParser(
        description="Diff APQ_* env-knob reads against docs/reference.md.")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--src", default=os.path.join(repo, "src"))
    ap.add_argument("--doc",
                    default=os.path.join(repo, "docs", "reference.md"))
    args = ap.parse_args()

    if not os.path.isdir(args.src):
        print("knob_doc_check: no source dir at %s" % args.src,
              file=sys.stderr)
        return 2
    if not os.path.isfile(args.doc):
        print("knob_doc_check: no reference doc at %s" % args.doc,
              file=sys.stderr)
        return 2

    reads = scan_sources(args.src)
    documented = scan_docs(args.doc)

    failures = []
    for knob in sorted(set(reads) - documented):
        failures.append("undocumented knob %s (read at %s) -- add it to %s"
                        % (knob, reads[knob], os.path.basename(args.doc)))
    for knob in sorted(documented - set(reads)):
        failures.append("stale doc entry %s -- no source reads it; drop it "
                        "from %s" % (knob, os.path.basename(args.doc)))

    if failures:
        for f in failures:
            print("knob_doc_check: FAIL: %s" % f, file=sys.stderr)
        return 1

    print("knob_doc_check: OK: %d knobs read in src/, all documented"
          % len(reads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
