"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

(The file name keeps it out of the package's pytest collection.)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(common.src_dir()))

# Every per-layer metric the benchmark's definition names.
NAMED_PER_LAYER = (
    ["startup.python_ms", "startup.numpy_import_ms", "startup.k3z3_import_ms"]
    + [f"cli.run_ms.{s}" for s in ("classify", "verify", "smooth", "dirac", "gsig", "rejected")]
    + ["classify.enumerate_cold_ms", "classify.quotient_invariants_us"]
    + ["fixed_data.g_signature_of_data_us", "fixed_data.dirac_coefficients_us", "fixed_data.parse_fixed_data_us"]
    + ["cyclotomic.mul_us", "cyclotomic.div_us", "obstruction.verdict_us"]
    + ["lattice.gamma16_cold_ms", "lattice.assemble_ms"]
    + [
        f"lattice.{c}_ms"
        for c in (
            "verify_lattice",
            "signature",
            "fixed_sublattice",
            "module_decomposition",
            "check_rep",
            "check_gsf",
            "check_lefschetz",
        )
    ]
    + [f"linalg.{k}_ms" for k in ("bareiss_determinant", "inertia", "smith_normal_form", "integer_kernel", "matmul3")]
    + ["linalg.max_entry_bits"]
)
NAMED_END_TO_END = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb", "ops_failed_share")


def models():
    _, _, _, found = worker.setup()
    return {name: worker.as_rows(L) for name, L in found.items()}


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        rows = models()
        a = common.inputs_digest(islice(common.lattice_inputs(7, rows), 64))
        b = common.inputs_digest(islice(common.lattice_inputs(7, rows), 64))
        c = common.inputs_digest(islice(common.lattice_inputs(8, rows), 64))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(list(islice(common.cli_sequence(7), 100)), list(islice(common.cli_sequence(7), 100)))
        self.assertNotEqual(list(islice(common.cli_sequence(7), 100)), list(islice(common.cli_sequence(8), 100)))

    def test_workload_composition(self):
        keys = list(islice(common.cli_sequence(3), common.CYCLE_LEN))
        self.assertEqual(sum(k.startswith("bad_") for k in keys) * 10, len(keys))
        shallow = list(islice(common.lattice_inputs(3, models()), 40))
        self.assertEqual(sum(item[4] for item in shallow), 4)
        self.assertEqual(Counter(item[1] for item in shallow), Counter({t: 10 for t in common.TYPE_NAMES}))


class Checks(unittest.TestCase):
    def test_expected_texts_hold_the_published_values(self):
        table = common.expected_cli("classify_text")[1]
        for row in ("A0       6   6   0    10     3     7         -4", "B        3   0   3     8     1     7         -6"):
            self.assertIn(row, table)
        self.assertEqual(common.expected_cli("dirac_3_6")[1], "k = (0, 1, 1)\n")
        self.assertIn("UNSMOOTHABLE", common.expected_cli("smooth_A1")[1])
        verify_all = common.expected_cli("verify_all")[1]
        self.assertNotIn("FAIL", verify_all)
        self.assertEqual(verify_all.count("Lefschetz        pass"), 4)
        for name in common.TYPE_NAMES:
            rec = json.loads(common.expected_cli(f"verify_{name}_json")[1])
            want = common.expected_record(name)
            # the CLI's JSON is the record without its private fields
            self.assertEqual(rec, {k: v for k, v in want.items() if not k.startswith("_")})

    def test_wrong_expected_record_counts_as_failed_op(self):
        _, _, types, _ = worker.setup()
        stream = common.lattice_inputs(1, models())
        saved = worker.expected_record
        worker.expected_record = lambda name: {**saved(name), "decomposition": {"a": 0, "b": 0, "c": 0}}
        try:
            (loop,), props = worker.op_loop(types, stream, 0, [common.NullTracer()], min_ops=10)
        finally:
            worker.expected_record = saved
        # the perturbed input is checked for failing, not against the expected record
        self.assertEqual(props["perturbed"], 1)
        self.assertEqual(len(loop["failures"]), 9)
        self.assertIn("decomposition", loop["failures"][0]["reason"])

    def test_right_records_pass(self):
        _, _, types, _ = worker.setup()
        (loop,), props = worker.op_loop(types, common.lattice_inputs(1, models()), 0, [common.NullTracer()], min_ops=10)
        self.assertEqual(loop["failures"], [])

    def test_wrong_cli_output_counts_as_failed_op(self):
        saved = run.CALLS
        # run `dirac 6 0` but check it against the expected text of `dirac 3 6`
        run.CALLS = {**saved, "dirac_3_6": saved["dirac_6_0"]}
        try:
            (loop,) = run.cli_loop(iter(["dirac_3_6"]), 0, [common.NullTracer()], 1, Counter())
        finally:
            run.CALLS = saved
        self.assertEqual(loop["failures"][0]["reason"], "stdout differs from the expected text")
        self.assertIsNone(common.check_cli("bad_dirac_lift", 2, "", common.expected_cli("bad_dirac_lift")[2]))
        self.assertIsNotNone(common.check_cli("bad_dirac_lift", 1, "", "Traceback (most recent call last):\n"))

    def test_times_are_scaled_to_the_reference_speed(self):
        ref = reference.REF_MS
        entries = [(0.010, 0, 0, "A0", None), (0.030, 1, 1, "A1", None)]
        summary = common.loop_summary(entries, [2 * ref, 2 * ref, ref])
        self.assertEqual(summary["raw_times"], [0.010, 0.030])
        # the host ran the reference at half speed around op 0, at 2/3 around op 1
        self.assertAlmostEqual(summary["times"][0], 0.005)
        self.assertAlmostEqual(summary["times"][1], 0.020)

    def test_perturbed_input_must_fail(self):
        self.assertIsNotNone(worker.check_record({"_passed": True}, "A1", True))
        self.assertIsNone(worker.check_record({"_passed": False}, "A1", True))


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(m["unit"], {**run.END_TO_END, **run.PER_LAYER}[m["name"]])

    def test_every_named_metric_is_emitted_or_dropped_with_a_reason(self):
        for name in NAMED_END_TO_END:
            self.assertTrue(name in run.END_TO_END or run.DROPPED.get(name), name)
        for wl in ("cli_mix", "verify_shallow"):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", "5", "--seconds", "2", "--trace", "1"],
                cwd=common.ROOT,
                capture_output=True,
                text=True,
                timeout=170,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            line = result_line(proc.stdout)
            self.assertTrue(line["correct"], proc.stdout)
            for name in NAMED_PER_LAYER:
                self.assertTrue(name in line["metrics"] or run.DROPPED.get(name), f"{wl}: {name}")
            self.assertEqual(set(line["metrics"]), set(run.PER_LAYER))
            report = json.loads((common.ROOT / ".bench_out" / f"{wl}-seed5-trace1.json").read_text())
            self.assertTrue(all(m["traced_on"] for m in report["per_layer"].values()))

    def test_refuses_to_run_without_the_package(self):
        bare = common.ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify_shallow", "--seed", "1", "--seconds", "1"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=170,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
