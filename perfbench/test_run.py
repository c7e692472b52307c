"""Tests of the benchmark runner itself (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def fake_cell(name="c", **counts):
    base = {"generated": 10, "delivered": 8, "chan_rx_starts": 5,
            "chan_rx_ends": 4, "chan_rx_live_at_end": 1,
            "events_processed": 30, "shard_events": []}
    base.update(counts)
    return {"name": name, "counts": base}


class MetricTables(unittest.TestCase):
    def test_names_are_well_formed_and_carry_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
                self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$", name)
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_end_to_end_metrics_are_the_four_named(self):
        self.assertEqual(set(run.END_TO_END),
                         {"wall_s", "setup_s", "run_events_per_s",
                          "peak_rss_mib"})

    def test_all_three_workloads_present(self):
        self.assertEqual(set(run.WORKLOADS),
                         {"paper_36", "grid_100k_sharded", "churn_lossy_2500"})
        self.assertEqual(set(run.WORKLOADS), set(run.PINNED_DIGESTS))

    def test_benchmark_json_matches_runner(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_result_line_has_exactly_the_contract_keys(self):
        line = run.result_line(3, 1, {"wall_s": 1.5}, run.END_TO_END)
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"]["wall_s"],
                         {"value": 1.5, "unit": "s"})


class Arguments(unittest.TestCase):
    def run_runner(self, *args):
        return subprocess.run([sys.executable, str(Path(run.__file__)),
                               *args], capture_output=True, text=True)

    def test_malformed_seed_fails_with_a_clear_message(self):
        for bad in ("abc", "-3", "1.5", ""):
            proc = self.run_runner("--workload", "paper_36", "--seed", bad,
                                   "--seconds", "1", "--trace", "0")
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "", bad)
            self.assertIn("--seed must be a non-negative integer",
                          proc.stderr, bad)

    def test_unknown_workload_is_rejected(self):
        proc = self.run_runner("--workload", "nope", "--seed", "1")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("invalid choice", proc.stderr)

    def test_without_simulator_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCHMARK_JSON, tmp)
            shutil.copytree(Path(run.__file__).parent,
                            Path(tmp) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_36", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("simulator sources not found", proc.stderr)

    def test_seed_parses(self):
        self.assertEqual(run.parse_args(["--workload", "paper_36",
                                         "--seed", "7"]).seed, 7)


class OutputChecks(unittest.TestCase):
    def test_clean_cell_passes(self):
        self.assertEqual(run.check_cells([fake_cell()]), [])

    def test_nothing_delivered_fails(self):
        self.assertTrue(run.check_cells([fake_cell(delivered=0)]))

    def test_more_delivered_than_generated_fails(self):
        self.assertTrue(run.check_cells([fake_cell(delivered=11)]))

    def test_channel_conservation_is_checked(self):
        self.assertTrue(run.check_cells([fake_cell(chan_rx_ends=3)]))

    def test_shard_events_must_sum_to_total(self):
        self.assertTrue(run.check_cells([fake_cell(shard_events=[10, 10])]))
        self.assertEqual(run.check_cells([fake_cell(shard_events=[10, 20])]),
                         [])

    def test_digest_tracks_every_count(self):
        a = run.counts_digest([fake_cell()])
        self.assertEqual(a, run.counts_digest([fake_cell()]))
        self.assertNotEqual(a, run.counts_digest([fake_cell(generated=11)]))
        self.assertNotEqual(
            run.counts_digest([fake_cell(shard_events=[10, 20])]),
            run.counts_digest([fake_cell(shard_events=[20, 10])]))

    def test_pinned_digest_applies_to_the_default_seed_only(self):
        cells = [fake_cell()]
        _, bad = run.check_run("paper_36", run.DEFAULT_SEED, cells, None)
        self.assertTrue(any("pinned" in f for f in bad))
        _, bad = run.check_run("paper_36", run.DEFAULT_SEED + 1, cells, None)
        self.assertEqual(bad, [])

    def test_a_run_differing_from_the_first_fails(self):
        digest, _ = run.check_run("paper_36", 2, [fake_cell()], None)
        _, bad = run.check_run("paper_36", 2, [fake_cell(generated=12)],
                               digest)
        self.assertTrue(any("differs" in f for f in bad))


if __name__ == "__main__":
    unittest.main()
