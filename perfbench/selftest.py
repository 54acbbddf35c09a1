#!/usr/bin/env python3
"""Self-test of the benchmark's metric extraction and correctness gate.

Runs against fixtures/runreport_qc_mlxc_lanes4_quick.json, a RunReport the
library wrote for the --quick preset of qc_mlxc_lanes4 (4 brick lanes, so
the span tree has lane roots, nested step spans and a comm ledger). Needs no
build:

    python3 perfbench/selftest.py      (or: python3 perfbench/run.py --selftest)
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

FIXTURE = os.path.join(HERE, "fixtures", "runreport_qc_mlxc_lanes4_quick.json")


def load_fixture():
    with open(FIXTURE) as f:
        return json.load(f)


def node(report, *path):
    """The span node at a name path from a root."""
    level = report["spans"]
    found = None
    for name in path:
        found = next(n for n in level if n["name"] == name)
        level = found.get("children", [])
    return found


ITER = ("Simulation-run", "SCF", "SCF-iter")
CYCLE = ITER + ("ChFES-cycle",)


class StepTimes(unittest.TestCase):
    def setUp(self):
        self.r = load_fixture()
        self.t = run.step_times(self.r)

    def test_step_self_time_subtracts_nested_steps_only(self):
        dh = node(self.r, *ITER, "DH")
        ep_in_dh = node(self.r, *ITER, "DH", "EP")
        self.assertGreater(ep_in_dh["total_s"], 0.0)
        self.assertAlmostEqual(self.t["DH"], dh["total_s"] - ep_in_dh["total_s"], places=12)
        # CholGS-S has a non-step child (Gram-tree): it stays in the step's time,
        # unlike the library's self_s, which removes every child.
        s = node(self.r, *CYCLE, "CholGS-S")
        self.assertTrue(any(c["name"] == "Gram-tree" for c in s["children"]))
        self.assertAlmostEqual(self.t["CholGS-S"], s["total_s"], places=12)

    def test_step_summed_over_every_path(self):
        ep = node(self.r, *ITER, "DH", "EP")["total_s"] + node(self.r, *ITER, "EP")["total_s"]
        self.assertAlmostEqual(self.t["EP"], ep, places=12)

    def test_steps_partition_the_iterations(self):
        # Named steps plus the un-named glue between them make up the SCF wall.
        glue = sum(node(self.r, *p)["self_s"] for p in [
            ("Simulation-run",), ("Simulation-run", "SCF"), ITER, CYCLE])
        total = sum(self.t.values()) + glue
        self.assertAlmostEqual(total, node(self.r, "Simulation-run")["total_s"], places=9)

    def test_cholgs_and_rr_grouping(self):
        raw, ceil = fake_raw(), fake_ceilings()
        m = run.layer_metrics(raw, [self.r], ceil, 1.0, "qc_mlxc_lanes4")
        cholgs = sum(node(self.r, *CYCLE, n)["total_s"]
                     for n in ("CholGS-S", "CholGS-CI", "CholGS-O"))
        rr = sum(node(self.r, *CYCLE, n)["total_s"] for n in ("RR-P", "RR-D", "RR-SR"))
        self.assertAlmostEqual(m["ks.CholGS_s"], cholgs, places=12)
        self.assertAlmostEqual(m["ks.RR_s"], rr, places=12)
        steps = self.r["flops"]["steps"]
        sub_flops = sum(steps[n] for n in run.CHOLGS + run.RR)
        self.assertAlmostEqual(m["ks.subspace_gflops"], sub_flops / (cholgs + rr) * 1e-9, places=9)
        cf = node(self.r, *CYCLE, "CF")["total_s"]
        self.assertAlmostEqual(m["ks.CF_gflops"], steps["CF"] / cf * 1e-9, places=9)
        self.assertAlmostEqual(m["ks.CF_frac_fma_peak"], m["ks.CF_gflops"] / (4 * 80.0), places=12)


class LayerMetrics(unittest.TestCase):
    def test_lane_ledgers(self):
        r = load_fixture()
        m = run.layer_metrics(fake_raw(), [r], fake_ceilings(), 2.5, "qc_mlxc_lanes4")
        w = r["comm"]["wire"]
        self.assertEqual(m["dd.halo_bytes"], sum(w[p]["bytes"] for p in ("fp64", "fp32", "bf16")))
        self.assertEqual(m["dd.engine_apply_calls"], node(r, "Engine-apply")["count"])
        self.assertAlmostEqual(m["dd.halo_exposed_wait_s"], r["comm"]["halo"]["exposed_wait_s"])
        self.assertGreaterEqual(m["dd.lane_imbalance"], 1.0)
        self.assertAlmostEqual(m["obs.tracing_overhead_s"], 3.0 - 2.5)
        self.assertAlmostEqual(m["svc.worker_busy_frac"], r["wall_s"] / 3.0)
        self.assertEqual(m["svc.checkpoint_bytes"], 0.0)  # no service: no writes
        self.assertEqual(set(m), set(run.PER_LAYER))

    def test_checkpoint_bytes_are_writes_times_artifact_size(self):
        a, b = load_fixture(), load_fixture()
        a["label"], b["label"] = "pristine", "dipole"
        a["counters"]["job.checkpoint.writes"], b["counters"]["job.checkpoint.writes"] = 3, 5
        raw = fake_raw()
        raw["replay"]["checkpoints"] = [
            {"name": "dipole", "write_s": 0.1, "read_s": 0.2, "bytes": 100.0},
            {"name": "pristine", "write_s": 0.3, "read_s": 0.4, "bytes": 10.0}]
        m = run.layer_metrics(raw, [a, b], fake_ceilings(), 2.5, "disloc_kpt_sweep")
        self.assertEqual(m["svc.checkpoint_writes"], 8)
        self.assertEqual(m["svc.checkpoint_bytes"], 3 * 10.0 + 5 * 100.0)
        self.assertAlmostEqual(m["svc.checkpoint_write_s"], 0.2)
        self.assertAlmostEqual(m["svc.worker_busy_frac"], 2 * a["wall_s"] / (4 * 3.0))


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            b = json.load(f)
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in b["per_layer"]],
                         [(k, v[0], v[1]) for k, v in run.PER_LAYER.items()])


def job(name, energy, ok=True, converged=True):
    return {"name": name, "ok": ok, "error": "" if ok else "boom", "converged": converged,
            "iterations": 9, "energy": energy}


SWEEP_REF = {"pristine": -9.7, "dipole": -9.6, "solute": -11.0, "dipole_solute": -10.9}
SWEEP_REF["interaction"] = (SWEEP_REF["dipole_solute"] - SWEEP_REF["dipole"]
                            - SWEEP_REF["solute"] + SWEEP_REF["pristine"])


class CorrectnessGate(unittest.TestCase):
    def test_matching_reference_passes(self):
        self.assertEqual(run.check_solve([job("qc", -44.0)], {"total": -44.0}, 1e-6)[0], 0)
        jobs = [job(n, SWEEP_REF[n]) for n in run.SWEEP_CASES]
        self.assertEqual(run.check_solve(jobs, SWEEP_REF, 1e-6), (0, []))

    def test_wrong_reference_counts_a_failure(self):
        failed, notes = run.check_solve([job("qc", -44.0)], {"total": -44.0 + 2e-6}, 1e-6)
        self.assertEqual(failed, 1)
        self.assertIn("misses reference", notes[0])

    def test_wrong_interaction_reference_fails_the_batch(self):
        jobs = [job(n, SWEEP_REF[n]) for n in run.SWEEP_CASES]
        ref = dict(SWEEP_REF, interaction=SWEEP_REF["interaction"] + 1e-5)
        self.assertEqual(run.check_solve(jobs, ref, 1e-6)[0], 4)

    def test_unconverged_or_thrown_jobs_fail_without_reference(self):
        jobs = [job("a", -1.0), job("b", -1.0, converged=False), job("c", 0.0, ok=False)]
        self.assertEqual(run.check_solve(jobs, None, 1e-6)[0], 2)

    def test_committed_references_are_consistent(self):
        refs = run.load_references()
        for seed, ref in refs["energies_ha"]["disloc_kpt_sweep"].items():
            inter = ref["dipole_solute"] - ref["dipole"] - ref["solute"] + ref["pristine"]
            self.assertAlmostEqual(inter, ref["interaction"], delta=1e-9, msg="seed " + seed)


def fake_raw():
    return {
        "model_build_s": [0.01, 0.02, 0.03],
        "mlxc_train_s": [1.0, 1.2, 1.1],
        "model_builds_solve": 1,
        "traced": {
            "solve": {"solve_s": 3.0, "cpu_s": 6.0, "iter_s": [0.5, 0.2, 0.3],
                      "jobs": [job("qc_mlxc_lanes4", -44.0)]},
            "workspace_allocations": 7,
        },
        "replay": {
            "checkpoints": [{"name": "qc_mlxc_lanes4", "write_s": 0.1, "read_s": 0.2,
                             "bytes": 1e6}],
            "gemm_gflops": 1.0, "cell_gemm_gflops": 2.0, "ham_apply_gflops": 3.0,
            "zgemm_gflops": 4.0, "cell_zgemm_gflops": 5.0, "zham_apply_gflops": 6.0,
            "poisson_cold_s": 0.1, "poisson_cold_iters": 60,
        },
    }


def fake_ceilings():
    return {"fma_peak_gflops": 80.0, "triad_gbs": 12.0, "triad_array_mb": 1200.0,
            "llc_mb": 300.0}


def main():
    result = unittest.main(module=__name__, argv=[sys.argv[0]], exit=False, verbosity=1).result
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
