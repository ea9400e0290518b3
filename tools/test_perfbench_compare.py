#!/usr/bin/env python3
"""Unit tests for tools/perfbench_compare.py.

    python3 -B tools/test_perfbench_compare.py
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True

import perfbench_compare  # noqa: E402

GATES = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
]
PER_LAYER = [{"name": "whomp.archive_ms", "better": "lower"}]


def run_result(rss, setup=1.0):
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def ledger_run(side, workload, rss, trace=0, seconds=15):
    return {"side": side, "workload": workload, "seed": 1, "trace": trace,
            "seconds": seconds, "result": run_result(rss)}


LEDGER = {"entries": [
    {"change": "older", "runs": [ledger_run("change", "w", 100.0)]},
    {"change": "newer", "runs": [
        ledger_run("parent", "w", 500.0),
        ledger_run("change", "w", 40.0),
        ledger_run("change", "w", 44.0),
        ledger_run("change", "w", 42.0),
        ledger_run("change", "w", 900.0, trace=1),
        ledger_run("change", "other", 7.0),
        ledger_run("change", "other", 9.0, seconds=1)]},
]}


class CompareTest(unittest.TestCase):
    def invoke(self, stdin, workload="w", trace=0, ledger_text=None):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "BENCHMARK.json"
            bench.write_text(json.dumps({"end_to_end": GATES,
                                         "per_layer": PER_LAYER}))
            ledger = Path(tmp) / "BENCH_perfbench.json"
            ledger.write_text(ledger_text or json.dumps(LEDGER))
            out = io.StringIO()
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                with redirect_stdout(out):
                    status = perfbench_compare.main(
                        ["--workload", workload, "--trace", str(trace),
                         "--benchmark", str(bench), "--ledger", str(ledger)])
            finally:
                sys.stdin = old_stdin
        return status, out.getvalue()

    def test_reference_is_the_change_median_of_the_last_entry(self):
        change, runs, seconds, ref = perfbench_compare.reference_medians(
            LEDGER, "w", 0)
        self.assertEqual(change, "newer")
        self.assertEqual((runs, seconds), (3, [15]))
        self.assertEqual(ref["peak_rss_mb"], 42.0)
        _, runs, _, ref = perfbench_compare.reference_medians(LEDGER, "w", 1)
        self.assertEqual((runs, ref["peak_rss_mb"]), (1, 900.0))

    def test_recorded_run_lengths_are_printed(self):
        _, runs, seconds, ref = perfbench_compare.reference_medians(
            LEDGER, "other", 0)
        self.assertEqual((runs, seconds, ref["peak_rss_mb"]),
                         (2, [1, 15], 8.0))
        status, out = self.invoke(json.dumps(run_result(45.0)) + "\n")
        self.assertEqual(status, 0)
        self.assertIn("median of 3 recorded change runs of \"newer\" "
                      "(--seconds 15)", out)

    def test_within_bound_echoes_input_and_warns_nothing(self):
        status, out = self.invoke("table line\n" +
                                  json.dumps(run_result(45.0)) + "\n")
        self.assertEqual(status, 0)
        self.assertTrue(out.startswith("table line\n"))
        self.assertIn("peak_rss_mb", out)
        self.assertNotIn("::warning::", out)

    def test_past_bound_warns_but_succeeds(self):
        status, out = self.invoke(json.dumps(run_result(60.0)) + "\n")
        self.assertEqual(status, 0)
        self.assertIn("::warning::perfbench w: peak_rss_mb", out)
        self.assertNotIn("setup_s 1", out.split("::warning::", 1)[1])

    def test_per_layer_metrics_are_printed_never_warned(self):
        result = run_result(45.0)
        result["metrics"]["whomp.archive_ms"] = {"value": 1e6, "unit": "ms"}
        status, out = self.invoke(json.dumps(result) + "\n")
        self.assertEqual(status, 0)
        self.assertIn("whomp.archive_ms", out)
        self.assertNotIn("::warning::", out)

    def test_missing_result_or_reference_still_succeeds(self):
        status, out = self.invoke("no json here\n")
        self.assertEqual(status, 0)
        self.assertIn("no result line", out)
        status, out = self.invoke(json.dumps(run_result(1.0)) + "\n",
                                  workload="unrecorded")
        self.assertEqual(status, 0)
        self.assertIn("(no reference)", out)
        self.assertNotIn("::warning::", out)

    def test_malformed_input_warns_but_succeeds(self):
        bad_value = run_result(45.0)
        bad_value["metrics"]["peak_rss_mb"] = {"value": "high"}
        no_value = run_result(45.0)
        no_value["metrics"]["setup_s"] = {"unit": "s"}
        for stdin in (json.dumps(bad_value), json.dumps(no_value)):
            status, out = self.invoke(stdin + "\n")
            self.assertEqual(status, 0)
            self.assertIn("::warning::perfbench w: cannot compare", out)
        broken = json.loads(json.dumps(LEDGER))
        del broken["entries"][1]["runs"][1]["result"]["metrics"][
            "setup_s"]["value"]
        for ledger_text in (json.dumps(broken), "{not json", "[]"):
            status, out = self.invoke(json.dumps(run_result(45.0)) + "\n",
                                      ledger_text=ledger_text)
            self.assertEqual(status, 0)
            self.assertIn("::warning::perfbench w: cannot compare", out)


if __name__ == "__main__":
    unittest.main()
