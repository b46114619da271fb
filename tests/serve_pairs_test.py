#!/usr/bin/env python3
"""Self-tests for tools/serve_pairs.py on canned run records.

The pair runner drives two fake checkouts whose servebench/run.py prints a
canned JSON line, so the alternation, the record lines and the exit status
are checked without building or serving anything; the labels are checked
on hand-made value lists. Runs under ctest as `serve_pairs_test` (plain
unittest, well under a second).
"""

import io
import json
import os
import shutil
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
import serve_pairs  # noqa: E402

# Prints a run.py-shaped JSON line: window_p50_us is ~100 on the parent and
# 60 on the change, throughput_ops equal; a checkout holding a WRONG file
# reports an incorrect run. Logs "<side> <seed>" to ../order.log.
FAKE_RUN = r'''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
with open(here.parent / "order.log", "a") as f:
    f.write(f"{here.name} {seed}\n")
window = 100.0 + seed % 3 if here.name == "parent" else 60.0
correct = not (here / "WRONG").exists()
metrics = {"window_p50_us": {"value": window, "unit": "us"},
           "throughput_ops": {"value": 1000.0, "unit": "1/s"}}
print("summary line")
print(json.dumps({"correct": correct, "attempted": 500, "failed": 0,
                  "metrics": metrics}))
sys.exit(0 if correct else 1)
'''


class PairRunnerTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="serve_pairs_test_")
        for side in ("parent", "change"):
            os.makedirs(os.path.join(self.dir, side, "servebench"))
            with open(os.path.join(self.dir, side, "servebench", "run.py"),
                      "w") as f:
                f.write(FAKE_RUN)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def run_tool(self, *args):
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = serve_pairs.main(list(args))
        finally:
            sys.stdout = old
        return code, out.getvalue()

    def run_pairs(self, pairs, *extra):
        return self.run_tool(os.path.join(self.dir, "parent"),
                             os.path.join(self.dir, "change"), "read-1m",
                             str(pairs), "31", *extra)

    def test_alternates_order_and_labels_a_gain(self):
        records = os.path.join(self.dir, "records.jsonl")
        code, out = self.run_pairs(2, "--records", records)
        self.assertEqual(code, 0, out)
        with open(os.path.join(self.dir, "order.log")) as f:
            order = f.read().split()
        self.assertEqual(order, ["parent", "31", "change", "31",
                                 "change", "32", "parent", "32"])
        with open(records) as f:
            lines = [json.loads(l) for l in f]
        self.assertEqual([(r["seed"], r["side"], r["first"]) for r in lines],
                         [(31, "parent", True), (31, "change", False),
                          (32, "change", True), (32, "parent", False)])
        window = [l for l in out.splitlines() if l.startswith("window_p50")]
        self.assertTrue(window[0].endswith("gain"), window)
        self.assertIn("2/2", window[0])
        throughput = [l for l in out.splitlines()
                      if l.startswith("throughput_ops")]
        self.assertIn(" 0/2", throughput[0])  # ties count for neither side
        self.assertTrue(throughput[0].endswith("within bound"), throughput)
        # The kept records summarize the same way again.
        code, replay = self.run_tool("--replay", records)
        self.assertEqual(code, 0)
        self.assertIn(window[0], replay)

    def test_replay_labels_a_regression(self):
        records = os.path.join(self.dir, "records.jsonl")
        with open(records, "w") as f:
            for pair, (p, c) in enumerate([(100.0, 140.0), (105.0, 150.0),
                                           (98.0, 138.0)]):
                for side, value in (("parent", p), ("change", c)):
                    f.write(json.dumps({
                        "pair": pair, "seed": 7 + pair, "side": side,
                        "first": side == "parent", "exit": 0,
                        "result": {"correct": True, "attempted": 10,
                                   "failed": 0, "metrics": {
                                       "disk_p99_us": {"value": value,
                                                       "unit": "us"}}}})
                            + "\n")
        code, out = self.run_tool("--replay", records)
        self.assertEqual(code, 0, out)
        disk = [l for l in out.splitlines() if l.startswith("disk_p99")]
        self.assertTrue(disk[0].endswith("regression"), disk)

    def test_a_wrong_reply_fails_the_tool(self):
        open(os.path.join(self.dir, "change", "WRONG"), "w").close()
        code, out = self.run_pairs(1)
        self.assertEqual(code, 1)
        self.assertIn("NOT CORRECT: pair 0 seed 31 change", out)

    def test_usage_error(self):
        self.assertEqual(self.run_tool("--records", "x")[0], 2)


class LabelTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_the_pairs(self):
        parent = [100.0] * 10
        change = [90.0] * 10
        self.assertEqual(
            serve_pairs.label("lower", 0.25, parent, change, 9, 10), "gain")
        self.assertEqual(
            serve_pairs.label("lower", 0.25, parent, change, 8, 10),
            "within bound")

    def test_gain_must_exceed_the_parents_interquartile_distance(self):
        parent = [80.0, 90.0, 100.0, 110.0, 120.0]  # q1 90, q3 110
        self.assertEqual(serve_pairs.label(
            "lower", 0.25, parent, [75.0] * 5, 5, 5), "gain")
        self.assertNotEqual(serve_pairs.label(
            "lower", 0.25, parent, [81.0, 82.0, 95.0, 96.0, 97.0], 5, 5),
            "gain")

    def test_higher_is_better(self):
        self.assertEqual(serve_pairs.label(
            "higher", 0.25, [100.0] * 4, [140.0] * 4, 4, 4), "gain")
        self.assertEqual(serve_pairs.label(
            "higher", 0.25, [100.0] * 4, [70.0] * 4, 0, 4), "regression")

    def test_wide_spread_is_unresolved(self):
        parent = [50.0, 100.0, 100.0, 150.0, 200.0]  # spread 0.5 > 0.25
        change = [55.0, 105.0, 100.0, 160.0, 190.0]
        self.assertEqual(serve_pairs.label(
            "lower", 0.25, parent, change, 1, 5), "unresolved")

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        parent = [150.0, 200.0, 300.0, 400.0]
        change = [100.0, 110.0, 120.0, 140.0]
        self.assertEqual(serve_pairs.label(
            "lower", 0.25, parent, change, 3, 4), "within bound")


if __name__ == "__main__":
    unittest.main()
