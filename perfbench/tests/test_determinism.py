"""Tests of the benchmark's exact-count drift check.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import os
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

RECORD = {
    "gzip": {"exec.instrs.profile": 1200, "check.loops": 3},
    "mcf": {"exec.instrs.profile": 800, "check.loops": 1},
}


def copy(record):
    return json.loads(json.dumps(record))


class CompareExact(unittest.TestCase):
    def test_identical_runs_agree(self):
        self.assertEqual(run.compare_exact(RECORD, copy(RECORD)), [])

    def test_changed_count_is_drift(self):
        new = copy(RECORD)
        new["mcf"]["check.loops"] = 2
        self.assertEqual(run.compare_exact(RECORD, new), ["mcf: check.loops 1 -> 2"])

    def test_missing_count_is_drift(self):
        new = copy(RECORD)
        del new["gzip"]["check.loops"]
        self.assertEqual(run.compare_exact(RECORD, new), ["gzip: check.loops 3 -> None"])

    def test_input_visited_once_is_drift(self):
        new = copy(RECORD)
        new["vpr"] = {"check.loops": 4}
        self.assertEqual(run.compare_exact(RECORD, new), ["vpr: visited in only one run"])


class Record(unittest.TestCase):
    def test_first_run_stores_then_later_runs_compare(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exact", "fuzz-seed1.json")
            self.assertEqual(run.check_against_record(path, RECORD), [])
            self.assertTrue(os.path.exists(path))
            self.assertEqual(run.check_against_record(path, copy(RECORD)), [])
            drifted = copy(RECORD)
            drifted["gzip"]["exec.instrs.profile"] = 1201
            self.assertEqual(run.check_against_record(path, drifted),
                             ["gzip: exec.instrs.profile 1200 -> 1201"])


if __name__ == "__main__":
    unittest.main()
