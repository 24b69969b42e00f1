#!/usr/bin/env python3
"""Unit tests for tools/knob_doc_check.py (run by ctest as
knob_doc_check_selftest_py).

Covers the exit-code contract on temporary src/ and reference fixtures:
0 = every knob read is documented and every documented knob is read,
1 = an undocumented read through any of the three reader idioms
(`getenv`, `EnvInt`, `EnvPath`) or a stale doc entry, 2 = missing inputs.
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import knob_doc_check  # noqa: E402

SOURCE = """\
static const uint64_t a = EnvInt("APQ_ALPHA", 1, 9).value_or(1);
static const std::string b = EnvPath("APQ_BETA");
const char* c = std::getenv("APQ_GAMMA");
#ifndef APQ_NOT_A_KNOB_H_  // a guard is a mention, not a read
"""

DOC = """\
- `APQ_ALPHA=<n>` -- first.
- `APQ_BETA=<path>` -- second.
- `APQ_GAMMA` -- third.
"""


class KnobDocCheckTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.src = os.path.join(self._dir.name, "src")
        os.makedirs(os.path.join(self.src, "obs"))
        self.doc = os.path.join(self._dir.name, "reference.md")
        self.write(os.path.join(self.src, "obs", "knobs.cc"), SOURCE)
        self.write(self.doc, DOC)

    @staticmethod
    def write(path, text):
        with open(path, "w") as f:
            f.write(text)

    def run_main(self, src=None, doc=None):
        old_argv = sys.argv
        sys.argv = ["knob_doc_check.py", "--src", src or self.src,
                    "--doc", doc or self.doc]
        try:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = knob_doc_check.main()
            return rc, out.getvalue(), err.getvalue()
        finally:
            sys.argv = old_argv

    def test_in_sync_exits_zero(self):
        rc, out, _ = self.run_main()
        self.assertEqual(rc, 0)
        self.assertIn("3 knobs", out)

    def test_undocumented_read_through_each_reader_exits_one(self):
        for read in ('EnvInt("APQ_NEW", 0, 1)', 'EnvPath("APQ_NEW")',
                     'std::getenv("APQ_NEW")'):
            with self.subTest(read=read):
                self.write(os.path.join(self.src, "new.cc"), read + ";\n")
                rc, _, err = self.run_main()
                self.assertEqual(rc, 1)
                self.assertIn("undocumented knob APQ_NEW (read at new.cc:1)",
                              err)

    def test_stale_doc_entry_exits_one(self):
        self.write(self.doc, DOC + "- `APQ_GONE=1` -- removed.\n")
        rc, _, err = self.run_main()
        self.assertEqual(rc, 1)
        self.assertIn("stale doc entry APQ_GONE", err)

    def test_missing_inputs_exit_two(self):
        missing = os.path.join(self._dir.name, "nope")
        self.assertEqual(self.run_main(src=missing)[0], 2)
        self.assertEqual(self.run_main(doc=missing)[0], 2)


if __name__ == "__main__":
    unittest.main()
