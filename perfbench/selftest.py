"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a wrong expectation shows up as a failed job rather than
passing or aborting the run, and the self-time arithmetic of the
tracer on a hand-built span tree.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from child import run_jobs  # noqa: E402
from tracing import Span, count, self_times, total_time  # noqa: E402


def tree() -> list[Span]:
    """job [0, 10] holding a [1, 4] and b [3, 6], which overlap; a holds
    a nested a [2, 3]; c [9, 12] sticks out past the job's end."""
    spec = [
        ("job", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
        ("c", 9.0, 12.0, 0),
    ]
    return [Span(n, s, e, p, "r0") for n, s, e, p in spec]


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time_once(self):
        # job: children cover [1, 6] and [9, 10] -> 10 - 6 = 4
        self.assertEqual(self_times(tree()), [4.0, 2.0, 1.0, 3.0, 3.0])

    def test_nested_spans_of_one_name_count_once(self):
        spans = tree()
        self.assertEqual(total_time(spans, "a"), 3.0)
        self.assertEqual(total_time(spans, ("a", "b")), 6.0)
        self.assertEqual(count(spans, "a"), 2)


class FailedJobsAreCounted(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import workloads

        cls.workloads = workloads
        cls.expected = workloads.load_expected()

    def general4(self, expected):
        jobs = self.workloads.enumerate_jobs(0, expected)
        return [j for j in jobs if j.name == "general4"]

    def test_pinned_expectation_passes(self):
        result = run_jobs(self.general4(self.expected))
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))

    def test_corrupted_expectation_raises_fail_ratio(self):
        corrupted = copy.deepcopy(self.expected)
        corrupted["enumerate"]["general4"]["count"] += 1
        result = run_jobs(self.general4(corrupted))
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_a_raising_job_fails_without_stopping_the_run(self):
        def boom():
            raise RuntimeError("boom")

        jobs = [self.workloads.Job("boom", boom, lambda out, c: True)]
        jobs += self.general4(self.expected)
        result = run_jobs(jobs)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(set(result["job_times"]), {"boom", "general4"})


if __name__ == "__main__":
    unittest.main()
