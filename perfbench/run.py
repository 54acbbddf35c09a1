#!/usr/bin/env python3
"""Time-to-solution benchmark of the DFT-FE-MLXC reproduction.

One command builds the workload runner from this checkout, runs a workload,
checks the energies against committed references and prints every metric:

    python3 perfbench/run.py --workload qc_mlxc_serial --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload disloc_kpt_sweep --seed 3 --seconds 10 --trace 1
    python3 perfbench/run.py --quick        # small preset of every workload, seconds
    python3 perfbench/run.py --selftest     # metric extraction against the fixture

--trace 0 prints the end-to-end metrics (tracing off, no reports); --trace 1
prints the per-layer metrics (tracing on, per-job RunReports, kernel and
checkpoint replays, in-run FMA/triad ceilings). The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; lines before
it are an environment header ("# ...") and a readable metric table.

Everything runs single-process with one OpenMP thread; parallelism comes
from brick lanes or service workers, and a workload whose threads would
exceed the host's cores is refused. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; run artifacts go beneath it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload is in the benchmark (BENCHMARK.json carries the short form).
WORKLOADS = {
    # The paper's science case with its functional: CF, EP and the ~60-state
    # subspace steps all do real work; the single-thread scaling baseline.
    "qc_mlxc_serial": {"lanes": 1, "workers": 0},
    # Same arithmetic on 4 brick lanes: halo wait, driver round trips, wire
    # pack, gram tree and the serial Amdahl parts show only here.
    "qc_mlxc_lanes4": {"lanes": 4, "workers": 0},
    # Complex k-point kernels, job-level parallelism and checkpoint I/O, which
    # the QC workloads bypass; its energies give the interaction energy.
    "disloc_kpt_sweep": {"lanes": 1, "workers": 4},
}
SWEEP_CASES = ["pristine", "dipole", "solute", "dipole_solute"]

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cpu_s", "core-s"),
    ("peak_rss_mb", "MB"),
]

# name -> (unit, better, end-to-end metric it should move, workloads where it
# does; the rest read ~0 or are off the blocking path). BENCHMARK.json lists
# the same names, units and directions.
PER_LAYER = {
    "core.model_build_s": ("s", "lower", "setup_s", "all"),
    "svc.model_builds": ("count", "lower", "setup_s", "all (must be 1)"),
    "xc.mlxc_train_s": ("s", "lower", "setup_s", "qc_* (0 on the LDA sweep)"),
    "ks.scf_iterations": ("count", "lower", "solve_s", "all"),
    "ks.iter_s_p50": ("s", "lower", "solve_s", "all"),
    "ks.iter_s_max": ("s", "lower", "solve_s", "all"),
    "ks.CF_s": ("s", "lower", "solve_s", "qc_mlxc_serial, disloc_kpt_sweep"),
    "ks.CF_gflops": ("GFLOP/s", "higher", "solve_s", "qc_mlxc_serial, disloc_kpt_sweep"),
    "ks.CF_frac_fma_peak": ("ratio", "higher", "solve_s", "qc_mlxc_serial, disloc_kpt_sweep"),
    "ks.CholGS_s": ("s", "lower", "solve_s", "qc_* (small on the sweep)"),
    "ks.RR_s": ("s", "lower", "solve_s", "qc_* (small on the sweep)"),
    "ks.subspace_gflops": ("GFLOP/s", "higher", "solve_s", "qc_*"),
    "ks.DC_s": ("s", "lower", "solve_s", "qc_mlxc_lanes4 (serial part)"),
    "ks.DH_s": ("s", "lower", "solve_s", "qc_mlxc_lanes4 (serial part)"),
    "ks.EP_s": ("s", "lower", "solve_s", "qc_* (small on the periodic sweep)"),
    "ks.steps_frac_solve": ("ratio", "higher", "-", "all (named steps / job wall)"),
    "ks.flops_total": ("flop", "lower", "solve_s", "all"),
    "ks.ham_apply_gflops": ("GFLOP/s", "higher", "solve_s", "qc_*"),
    "ks.zham_apply_gflops": ("GFLOP/s", "higher", "solve_s", "disloc_kpt_sweep"),
    "fe.poisson_iters": ("count", "lower", "solve_s", "qc_* (small on the periodic sweep)"),
    "fe.poisson_solve_cold_s": ("s", "lower", "solve_s", "qc_* (small on the periodic sweep)"),
    "la.fma_peak_gflops": ("GFLOP/s", "higher", "-", "all (ceiling)"),
    "la.triad_gbs": ("GB/s", "higher", "-", "all (ceiling)"),
    "la.gemm_gflops": ("GFLOP/s", "higher", "solve_s", "qc_*"),
    "la.cell_gemm_gflops": ("GFLOP/s", "higher", "solve_s", "qc_*"),
    "la.zgemm_gflops": ("GFLOP/s", "higher", "solve_s", "disloc_kpt_sweep"),
    "la.cell_zgemm_gflops": ("GFLOP/s", "higher", "solve_s", "disloc_kpt_sweep"),
    "la.workspace_allocations": ("count", "lower", "cpu_s", "all"),
    "dd.halo_bytes": ("B", "lower", "solve_s, cpu_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.halo_messages": ("count", "lower", "solve_s, cpu_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.engine_apply_calls": ("count", "lower", "solve_s, cpu_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.halo_exposed_wait_s": ("lane-s", "lower", "solve_s, cpu_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.wire_pack_s": ("s", "lower", "solve_s, cpu_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.gram_s": ("lane-s", "lower", "solve_s", "qc_mlxc_lanes4 (0 elsewhere)"),
    "dd.lane_imbalance": ("ratio", "lower", "solve_s", "qc_mlxc_lanes4 (1 elsewhere)"),
    "dd.lane_highwater_mb": ("MB", "lower", "peak_rss_mb", "qc_mlxc_lanes4 (0 elsewhere)"),
    "svc.checkpoint_writes": ("count", "lower", "solve_s", "disloc_kpt_sweep (0 on qc_*)"),
    "svc.checkpoint_bytes": ("B", "lower", "solve_s, peak_rss_mb", "disloc_kpt_sweep (0 on qc_*)"),
    "svc.checkpoint_write_s": ("s", "lower", "solve_s", "disloc_kpt_sweep"),
    "svc.checkpoint_read_s": ("s", "lower", "solve_s", "disloc_kpt_sweep"),
    "svc.job_wall_s_p50": ("s", "lower", "solve_s", "disloc_kpt_sweep"),
    "svc.job_wall_s_max": ("s", "lower", "solve_s", "disloc_kpt_sweep"),
    "svc.worker_busy_frac": ("ratio", "higher", "solve_s", "disloc_kpt_sweep"),
    "obs.tracing_overhead_s": ("s", "lower", "-", "all (traced - untraced solve_s)"),
    "obs.trace_dropped": ("count", "lower", "-", "all"),
}

# The paper's per-step vocabulary (Sec. 6.3 / Table 3) as the library names
# its spans. A step's time is its span's wall minus the nested step spans.
STEPS = ["CF", "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P", "RR-D", "RR-SR", "DC", "DH", "EP"]
CHOLGS = ["CholGS-S", "CholGS-CI", "CholGS-O"]
RR = ["RR-P", "RR-D", "RR-SR"]
# Gram reductions of the brick engine: lane partials and the tree allreduce.
GRAM_SPANS = ["Gram-lane", "Gram-tree"]


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ extraction

def walk(spans):
    """Yield every node of a RunReport span forest."""
    for s in spans:
        yield s
        yield from walk(s.get("children", []))


def step_times(report):
    """Per-step seconds: each step span's wall minus its nested step spans."""
    out = {name: 0.0 for name in STEPS}

    def nested_steps_total(node):
        total = 0.0
        for c in node.get("children", []):
            total += c["total_s"] if c["name"] in out else nested_steps_total(c)
        return total

    for node in walk(report.get("spans", [])):
        if node["name"] in out:
            out[node["name"]] += node["total_s"] - nested_steps_total(node)
    return out


def span_total(report, names):
    return sum(n["total_s"] for n in walk(report.get("spans", [])) if n["name"] in names)


def span_count(report, name):
    return sum(n["count"] for n in walk(report.get("spans", [])) if n["name"] == name)


def step_flops(report, names):
    steps = report.get("flops", {}).get("steps", {})
    return sum(steps.get(n, 0.0) for n in names)


def lane_imbalance(report):
    """max / mean of per-lane busy time (lane-attributed wall minus exposed
    halo wait); 1 for a run without lanes."""
    busy = {}
    for node in report.get("spans", []):  # lane work is recorded under lane roots
        for lane, sec in node.get("lanes", {}).items():
            busy[int(lane)] = busy.get(int(lane), 0.0) + sec
    for line in report.get("comm", {}).get("lanes", []):
        if line["lane"] in busy:
            busy[line["lane"]] -= line.get("exposed_wait_s", 0.0)
    if len(busy) < 2:
        return 1.0
    vals = list(busy.values())
    mean = sum(vals) / len(vals)
    return max(vals) / mean if mean > 0 else 1.0


def rate(flops, seconds):
    return flops / seconds * 1e-9 if seconds > 0 else 0.0


def layer_metrics(raw, reports, ceilings, untraced_solve_s, workload):
    """Per-layer metrics from the runner's raw traced output, the per-job
    RunReports it produced and the in-run ceilings."""
    spec = WORKLOADS[workload]
    traced = raw["traced"]
    solve_s = traced["solve"]["solve_s"]
    replay = raw["replay"]
    peak = ceilings["fma_peak_gflops"]
    cores = max(spec["lanes"], 1)  # cores one job's steps run on

    steps = {n: 0.0 for n in STEPS}
    for r in reports:
        for n, t in step_times(r).items():
            steps[n] += t
    flops = lambda names: sum(step_flops(r, names) for r in reports)
    cf_s = steps["CF"]
    sub_s = sum(steps[n] for n in CHOLGS + RR)
    job_walls = [r["wall_s"] for r in reports]
    comm = [r.get("comm", {}) for r in reports]
    wire = lambda key: sum(sum(c.get("wire", {}).get(p, {}).get(key, 0.0)
                               for p in ("fp64", "fp32", "bf16")) for c in comm)
    lane_hw = [l["highwater_bytes"] for r in reports for l in r.get("memory", {}).get("lanes", [])]
    writes = {r["label"]: r.get("counters", {}).get("job.checkpoint.writes", 0.0)
              for r in reports}
    ckpts = replay["checkpoints"]
    workers = spec["workers"] or 1
    it = traced["solve"]["iter_s"]

    return {
        "core.model_build_s": statistics.median(raw["model_build_s"]),
        "svc.model_builds": raw["model_builds_solve"],
        "xc.mlxc_train_s": statistics.median(raw["mlxc_train_s"]),
        "ks.scf_iterations": sum(j["iterations"] for j in traced["solve"]["jobs"]),
        "ks.iter_s_p50": statistics.median(it) if it else 0.0,
        "ks.iter_s_max": max(it) if it else 0.0,
        "ks.CF_s": cf_s,
        "ks.CF_gflops": rate(flops(["CF"]), cf_s),
        "ks.CF_frac_fma_peak": rate(flops(["CF"]), cf_s) / (peak * cores),
        "ks.CholGS_s": sum(steps[n] for n in CHOLGS),
        "ks.RR_s": sum(steps[n] for n in RR),
        "ks.subspace_gflops": rate(flops(CHOLGS + RR), sub_s),
        "ks.DC_s": steps["DC"],
        "ks.DH_s": steps["DH"],
        "ks.EP_s": steps["EP"],
        "ks.steps_frac_solve": sum(steps.values()) / sum(job_walls),
        "ks.flops_total": sum(r.get("flops", {}).get("total", 0.0) for r in reports),
        "ks.ham_apply_gflops": replay["ham_apply_gflops"],
        "ks.zham_apply_gflops": replay["zham_apply_gflops"],
        "fe.poisson_iters": replay["poisson_cold_iters"],
        "fe.poisson_solve_cold_s": replay["poisson_cold_s"],
        "la.fma_peak_gflops": peak,
        "la.triad_gbs": ceilings["triad_gbs"],
        "la.gemm_gflops": replay["gemm_gflops"],
        "la.cell_gemm_gflops": replay["cell_gemm_gflops"],
        "la.zgemm_gflops": replay["zgemm_gflops"],
        "la.cell_zgemm_gflops": replay["cell_zgemm_gflops"],
        "la.workspace_allocations": traced["workspace_allocations"],
        "dd.halo_bytes": wire("bytes"),
        "dd.halo_messages": wire("messages"),
        "dd.engine_apply_calls": sum(span_count(r, "Engine-apply") for r in reports),
        "dd.halo_exposed_wait_s": sum(c.get("halo", {}).get("exposed_wait_s", 0.0) for c in comm),
        "dd.wire_pack_s": sum(c.get("halo", {}).get("pack_s", 0.0) for c in comm),
        "dd.gram_s": sum(span_total(r, GRAM_SPANS) for r in reports),
        "dd.lane_imbalance": max(lane_imbalance(r) for r in reports),
        "dd.lane_highwater_mb": max(lane_hw or [0.0]) / (1024.0 * 1024.0),
        "svc.checkpoint_writes": sum(writes.values()),
        # Computed: each job's writes times the size of its final artifact.
        "svc.checkpoint_bytes": sum(writes.get(c["name"], 0.0) * c["bytes"] for c in ckpts),
        "svc.checkpoint_write_s": statistics.median(c["write_s"] for c in ckpts),
        "svc.checkpoint_read_s": statistics.median(c["read_s"] for c in ckpts),
        "svc.job_wall_s_p50": statistics.median(job_walls),
        "svc.job_wall_s_max": max(job_walls),
        "svc.worker_busy_frac": sum(job_walls) / (workers * solve_s),
        "obs.tracing_overhead_s": solve_s - untraced_solve_s,
        "obs.trace_dropped": sum(r.get("convergence", {}).get("trace_dropped", 0) for r in reports),
    }


# ------------------------------------------------------------------ correctness

def load_references():
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)


def reference_for(refs, workload, seed, quick):
    family = "disloc_kpt_sweep" if workload == "disloc_kpt_sweep" else "qc_mlxc"
    if quick:
        family += "_quick"
    return refs["energies_ha"].get(family, {}).get(str(seed))


def check_solve(jobs, ref, tol):
    """Failed jobs of one solve (one QC job, or the sweep's batch). A job
    fails if it threw, did not converge, or misses its reference energy when
    the seed has one; on the full sweep a missed interaction energy
    (E_ds - E_d - E_s + E_0) fails all four jobs. Returns (failed, notes)."""
    failed, notes, energies = 0, [], {}
    for j in jobs:
        bad = None
        if not j["ok"]:
            bad = "threw: " + j["error"]
        elif not j["converged"]:
            bad = "did not converge in %d iterations" % j["iterations"]
        elif not math.isfinite(j["energy"]):
            bad = "non-finite energy"
        elif ref is not None:
            want = ref.get("total", ref.get(j["name"]))
            if want is None:
                bad = "no reference energy"
            elif abs(j["energy"] - want) > tol:
                bad = "energy %.12f misses reference %.12f by %.2e Ha" % (
                    j["energy"], want, abs(j["energy"] - want))
        if bad:
            failed += 1
            notes.append("%s: %s" % (j["name"], bad))
        else:
            energies[j["name"]] = j["energy"]
    full_sweep = set(SWEEP_CASES) <= set(energies)
    if ref is not None and "interaction" in ref and failed == 0 and full_sweep:
        e = energies
        inter = e["dipole_solute"] - e["dipole"] - e["solute"] + e["pristine"]
        if abs(inter - ref["interaction"]) > tol:
            failed = len(jobs)
            notes.append("interaction energy %.12f misses reference %.12f by %.2e Ha" % (
                inter, ref["interaction"], abs(inter - ref["interaction"])))
    return failed, notes


# ------------------------------------------------------------------ build/run

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d) if not os.path.isabs(d) else d)


def build():
    bdir = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources next to perfbench/ (expected ../src)")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_runner", "-j", jobs],
                   check=True, **quiet)
    exe = os.path.join(bdir, "perfbench_runner")
    if not os.access(exe, os.X_OK):
        raise BenchError("build produced no runner at " + exe)
    return exe


def child_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env.setdefault("DFTFE_LOG_LEVEL", "warn")
    return env


def run_runner(exe, args):
    p = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                       env=child_env(), cwd=ROOT, text=True, timeout=170)
    if p.returncode != 0:
        raise BenchError("runner exited with code %d" % p.returncode)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("runner printed no result")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        lines = out.stdout.splitlines()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def env_header(raw, workload, nproc, args):
    e = raw["env"]
    lines = [
        "workload %s seed %d trace %d%s" % (workload, args.seed, args.trace,
                                          " quick" if args.quick else ""),
        "nproc %d, omp_get_max_threads %d, OMP_WAIT_POLICY %s, OMP_PROC_BIND %s" % (
            nproc, e["omp_max_threads"], os.environ.get("OMP_WAIT_POLICY", "unset"),
            os.environ.get("OMP_PROC_BIND", "unset")),
        "lanes %d grid %s wire %s, service workers %d" % (
            e["lanes"], e["grid"], e["wire"], e["workers"]),
        "isa avx2 %s avx512f %s; build %s, -march=native %s; DFTFE_ENABLE_TRACING %s" % (
            e.get("cpu_avx2"), e.get("cpu_avx512f"), e["build_type"], e["march_native"],
            e["tracing_compiled"]),
        "commit %s" % git_commit(),
        "system %d atoms, %g e-, %d DoFs, %d cells" % (
            raw["natoms"], raw["n_electrons"], raw["ndofs"], raw["ncells"]),
    ]
    for l in lines:
        print("# " + l)


def load_reports(report_dir):
    reports = []
    for name in sorted(os.listdir(report_dir)):
        if name.endswith(".report.json"):
            with open(os.path.join(report_dir, name)) as f:
                reports.append(json.load(f))
    if not reports:
        raise BenchError("traced run wrote no RunReport in " + report_dir)
    return reports


def run_workload(args):
    spec = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = max(spec["lanes"], spec["workers"], 1)  # x 1 OpenMP thread each
    if threads > nproc:
        raise BenchError("%s starts %d threads but only %d cores are available; "
                         "refusing to report metrics" % (args.workload, threads, nproc))
    exe = build()
    out_dir = os.path.join(build_dir(), "perfbench_out", args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", out_dir,
              "--seconds", str(args.seconds)]
    if args.quick:
        common.append("--quick")
    raw = run_runner(exe, common + ["--trace", str(args.trace)])
    env_header(raw, args.workload, nproc, args)
    if raw["env"]["omp_max_threads"] * threads > nproc:
        raise BenchError("OpenMP threads in effect oversubscribe the host")

    solves = raw["solves"] + ([raw["traced"]["solve"]] if args.trace else [])
    refs = load_references()
    ref = reference_for(refs, args.workload, args.seed, args.quick)
    failed, notes, attempted = 0, [], 0
    for s in solves:
        f, n = check_solve(s["jobs"], ref, refs["tolerance_ha"])
        failed, notes, attempted = failed + f, notes + n, attempted + len(s["jobs"])
    if ref is None:
        print("# seed %d has no committed reference: convergence-only checks" % args.seed)
    else:
        print("# energies checked against references (tolerance %g Ha)" % refs["tolerance_ha"])
    for n in notes:
        print("# FAILED " + n)
    print("# failed_share %d/%d" % (failed, attempted))

    if args.trace:
        ceilings = run_runner(exe, ["--ceilings", "--out", out_dir])
        reports = load_reports(raw["traced"]["report_dir"])
        untraced = statistics.median(s["solve_s"] for s in raw["solves"])
        values = layer_metrics(raw, reports, ceilings, untraced, args.workload)
        print("# ceilings: FMA %s; triad arrays %.0f MB each vs last-level cache %.0f MB" % (
            ceilings["isa"], ceilings["triad_array_mb"], ceilings["llc_mb"]))
        print("# ks.iter_s_* over %d SCF iterations seen by the on_iteration hook" %
              len(raw["traced"]["solve"]["iter_s"]))
        busy = values["svc.worker_busy_frac"]
        print("# worker(s) x traced solve_s = %.1f%% job walls + %.1f%% idle" % (
            100 * busy, 100 * (1 - busy)))
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "solve_s": statistics.median(s["solve_s"] for s in raw["solves"]),
            "cpu_s": statistics.median(s["cpu_s"] for s in raw["solves"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        print("# %d solve(s), %d set-up(s) measured" % (len(raw["solves"]), len(raw["setup_s"])))
    for k in units:
        moves = "  moves %s on %s" % PER_LAYER[k][2:] if args.trace else ""
        print(("%-26s %14.6g %-8s%s" % (k, values[k], units[k], moves)).rstrip())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement budget per run (default 10, or 1 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="R=4.2 nanoparticle and one sweep job; with no --workload, all workloads")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 10.0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.selftest:
        import selftest
        return selftest.main()
    try:
        if args.workload is None:
            if not args.quick:
                ap.error("--workload is required (or --quick / --selftest)")
            ok = True
            for w in WORKLOADS:
                args.workload = w
                for t in (0, 1):
                    args.trace = t
                    res = run_workload(args)
                    ok = ok and res["correct"]
                    print(json.dumps(res))
            return 0 if ok else 1
        print(json.dumps(run_workload(args)))
        return 0
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
