#!/usr/bin/env python3
"""Tests for fleetbench_ab.py: the gain rule and the exit codes, on synthetic samples.

    python3 tools/fleetbench_ab_test.py

No build and no benchmark run: the exit-code tests replace the export, build and run steps
with fakes that return fixed metric values and report digests.
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fleetbench_ab  # noqa: E402

BASE = [100.0 + i for i in range(10)]  # quartile spread 5.5 around a median of 104.5


def head_runs(base, wins, margin, better):
    """Head runs that beat base by `margin` in the first `wins` pairs and lose by 1 after."""
    sign = 1.0 if better == "higher" else -1.0
    return [b + sign * (margin if i < wins else -1.0) for i, b in enumerate(base)]


class GainRuleTest(unittest.TestCase):
    def test_nine_of_ten_wins_with_a_wide_gap_holds(self):
        for better in ("higher", "lower"):
            wins, losses, gap, spread, gain = fleetbench_ab.judge(
                BASE, head_runs(BASE, 9, 20.0, better), better)
            self.assertEqual((wins, losses), (9, 1), better)
            self.assertGreater(gap, spread, better)
            self.assertTrue(gain, better)

    def test_eight_of_ten_wins_does_not_hold(self):
        for better in ("higher", "lower"):
            wins, losses, gap, spread, gain = fleetbench_ab.judge(
                BASE, head_runs(BASE, 8, 20.0, better), better)
            self.assertEqual((wins, losses), (8, 2), better)
            self.assertGreater(gap, spread, better)
            self.assertFalse(gain, better)

    def test_every_win_inside_the_spread_does_not_hold(self):
        for better in ("higher", "lower"):
            wins, _, gap, spread, gain = fleetbench_ab.judge(
                BASE, head_runs(BASE, 10, 0.5, better), better)
            self.assertEqual(wins, 10, better)
            self.assertLess(gap, spread, better)
            self.assertFalse(gain, better)

    def test_a_better_lower_metric_has_a_positive_gap(self):
        _, _, gap, _, _ = fleetbench_ab.judge(BASE, [b - 10.0 for b in BASE], "lower")
        self.assertEqual(gap, 10.0)

    def test_ties_count_for_neither_side(self):
        wins, losses, _, _, gain = fleetbench_ab.judge(BASE, list(BASE), "higher")
        self.assertEqual((wins, losses, gain), (0, 0, False))


class ExitCodeTest(unittest.TestCase):
    def setUp(self):
        saved = {name: getattr(fleetbench_ab, name)
                 for name in ("git", "export_revision", "build", "run_once")}
        self.addCleanup(lambda: [setattr(fleetbench_ab, k, v) for k, v in saved.items()])
        fleetbench_ab.git = lambda *args: "ab" * 20
        fleetbench_ab.export_revision = lambda sha, dest: None
        fleetbench_ab.build = lambda source_root, build_dir: (
            "base" if "base-build" in build_dir else "head")
        self.work = tempfile.mkdtemp(prefix="fleetbench-ab-test-")
        self.addCleanup(lambda: os.rmdir(self.work))

    def run_main(self, head_digest="d1", head_ok=True):
        names = [name for name, _, _ in fleetbench_ab.end_to_end_metrics()]

        def fake_run_once(binary, workload, seed, seconds):
            values = {name: 2.0 if binary == "head" else 1.0 for name in names}
            digests = {0: {"d0"}, 1: {head_digest if binary == "head" else "d1"}}
            ok = head_ok or binary == "base"
            return values, digests, 2, 0 if ok else 1, ok

        fleetbench_ab.run_once = fake_run_once
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = fleetbench_ab.main(["--base", "HEAD", "--workload", "lifecycle-crash",
                                       "--seed", "1", "--pairs", "3", "--work-dir", self.work])
        return code, out.getvalue()

    def test_equal_digests_exit_0(self):
        code, out = self.run_main()
        self.assertEqual(code, 0)
        self.assertIn("digest study seed 1: equal", out)
        self.assertNotIn("DIFFERENT", out)

    def test_one_differing_digest_exits_2(self):
        code, out = self.run_main(head_digest="dX")
        self.assertEqual(code, 2)
        self.assertIn("digest study seed 0: equal", out)
        self.assertIn("digest study seed 1: DIFFERENT", out)

    def test_a_failed_run_exits_1(self):
        code, _ = self.run_main(head_ok=False)
        self.assertEqual(code, 1)

    def test_prints_the_gain_rule_for_every_metric(self):
        _, out = self.run_main()
        self.assertEqual(out.count("gain rule"), len(fleetbench_ab.end_to_end_metrics()))


if __name__ == "__main__":
    unittest.main()
