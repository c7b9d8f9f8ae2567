"""The k3z3 benchmark.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it measures the package in that checkout's
``src/``.  Workloads (each a closed loop, one client, one operation in flight):

- ``cli_mix``: fresh ``python -m k3z3`` processes over a fixed mix of every
  subcommand in seeded order, one call in ten malformed (must exit 2).
- ``verify_shallow``: in fresh worker processes, the verification records of
  seeded basis changes of the four rank-22 models, 8 elementary operations
  deep; one input in ten has a perturbed action and must fail.

End-to-end metrics (``--trace 0``), all over the untraced ops of the run:

- ``ops_per_s``: ops completed per second of op wall time;
- ``op_p50_ms``: median op latency within each window (one cycle of the mix,
  or 40 lattices), averaged over the windows (see windowed_percentile);
- ``op_p90_ms``: 90th percentile of op latency within each window, averaged
  over the windows;
- ``setup_s``: median set-up: a warm-up pass of the mix (one call per
  subcommand, three passes), or import, classification and assembly of the
  models in each of the fresh workers that run the loop;
- ``peak_rss_mb``: peak resident memory of the largest CLI process, or of
  the measuring workers (median) after a fixed 500 ops each (caches grow per op).

Every time above is scaled to a reference host speed: a fixed kernel that
does not touch k3z3 is timed between ops (between calls on ``cli_mix``,
every 20 lattices on ``verify_shallow``) and around each set-up, and each
op's time is multiplied by ``REF_MS`` over the kernel's time around it
(see reference.py).  The benchmark and the processes it starts share one
CPU, so that the kernel and the ops run on the same one.  The report keeps
the raw op statistics and the kernel's times under ``host_speed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced ops alternate in the loop, fresh-process
probes time each layer, and the last line carries the per-layer metrics.
The full report (sample counts, provenance with the reference kernel's time
before and after the run, workload properties, slowest inputs, failures)
goes to ``.bench_out/`` and its path is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

from common import (
    BENCH_DIR,
    CALLS,
    CLI_PROBES,
    CYCLE_LEN,
    LATTICE_CALLS,
    LINALG_PASS,
    ROOT,
    WARMUP,
    NullTracer,
    Tracer,
    check_cli,
    child_env,
    cli_sequence,
    inputs_digest,
    loop_summary,
    median,
    src_dir,
    subcommand,
    windowed_percentile,
)
from reference import REF_MS, host_factor, reference_ms

WORKLOADS = ("cli_mix", "verify_shallow")
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100  # so that ten samples lie beyond the reported p90
WARMUP_PASSES = 3
# verify_shallow's untraced loop runs in this many fresh workers in turn;
# each one's set-up is a setup_s sample and its RSS a peak_rss_mb sample.
MEASURE_WORKERS = 4
# ops per window of op_p50_ms and op_p90_ms: one cycle of the CLI mix; ten blocks of the four types
WINDOW = {"cli_mix": CYCLE_LEN, "verify_shallow": 40}
PROBE_REPS = 3
CALL_TIMEOUT = 60
WORKER_TIMEOUT = 170  # for all of a run's workers together

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MICRO = (
    "classify.quotient_invariants_us",
    "fixed_data.g_signature_of_data_us",
    "fixed_data.dirac_coefficients_us",
    "fixed_data.parse_fixed_data_us",
    "cyclotomic.mul_us",
    "cyclotomic.div_us",
    "obstruction.verdict_us",
)
PER_LAYER = {
    "startup.python_ms": "ms",
    "startup.numpy_import_ms": "ms",
    "startup.k3z3_import_ms": "ms",
    **{f"cli.run_ms.{sub}": "ms" for sub in CLI_PROBES},
    "classify.enumerate_cold_ms": "ms",
    **{name: "us" for name in MICRO},
    "lattice.gamma16_cold_ms": "ms",
    "lattice.assemble_ms": "ms",
    **{f"lattice.{name}_ms": "ms" for name in LATTICE_CALLS},
    "lattice.self_ms_per_op": "ms",
    "linalg.kernel_calls_per_op": "count",
    **{f"linalg.{name}_ms": "ms" for name in LINALG_PASS},
    "linalg.max_entry_bits": "bits",
    "trace.ops_traced": "count",
    "trace.overhead_pct": "%",
}
DROPPED = {
    "ops_failed_share": "reads 0 on a correct program, and an end-to-end metric must never be 0; "
    "failed and attempted op counts are reported instead, in the result line and the report",
}


class BenchError(RuntimeError):
    pass


def run_child(args, timeout=CALL_TIMEOUT):
    """Run `python3 <args>` in the checkout with only its src/ on the path; waits for the child."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def json_child(args, timeout=CALL_TIMEOUT) -> dict:
    proc = run_child(args, timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(src_dir().rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "loadavg_before": read_loadavg(),
        "reference_ms_before": reference_ms(5),
    }


def throughput(times: list) -> float:
    """Ops completed per second of op wall time."""
    return len(times) / sum(times)


def op_stats(times: list, window: int) -> dict:
    return {
        "ops_per_s": throughput(times),
        "op_p50_ms": windowed_percentile(times, 0.5, window) * 1e3,
        "op_p90_ms": windowed_percentile(times, 0.9, window) * 1e3,
    }


# ---------------------------------------------------------------------------
# cli_mix


def cli_call(key: str) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        proc = run_child(["-m", "k3z3", *CALLS[key][0]])
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "timed out"
    return time.perf_counter() - t0, check_cli(key, proc.returncode, proc.stdout, proc.stderr)


def cli_loop(keys, seconds, tracers, min_ops, counts) -> list:
    """Closed loop of CLI calls; calls take turns among `tracers`, one summary each.
    The host-speed reference is read between calls, outside their times."""
    entries = [[] for _ in tracers]
    refs = [reference_ms()]
    index = 0
    wall0 = time.perf_counter()
    while True:
        key = next(keys)
        counts[subcommand(key)] += 1
        slot = index % len(tracers)
        tracers[slot].op = index
        with tracers[slot].span(f"cli.{subcommand(key)}"):
            dt, reason = cli_call(key)
        refs.append(reference_ms())
        entries[slot].append((dt, index, index, key, reason))
        index += 1
        if time.perf_counter() - wall0 >= seconds and index >= min_ops:
            break
    return [loop_summary(e, refs) for e in entries]


def run_cli_mix(seed, seconds, trace, spans_path) -> dict:
    proc = run_child(["-c", "import k3z3; print(k3z3.__file__)"])
    k3z3_file = proc.stdout.strip()
    if proc.returncode != 0 or src_dir().resolve() not in Path(k3z3_file).resolve().parents:
        raise BenchError(f"children do not import k3z3 from {src_dir()}: {k3z3_file or proc.stderr.strip()}")
    setup_failures, passes = [], []
    for _ in range(WARMUP_PASSES):
        total, before = 0.0, reference_ms()
        for key in WARMUP:
            dt, reason = cli_call(key)
            after = reference_ms()
            total += dt * host_factor(before, after)
            before = after
            if reason:
                setup_failures.append(f"warm-up {key}: {reason}")
        passes.append(total)
    keys, counts = cli_sequence(seed), Counter()
    res = {"k3z3_file": k3z3_file, "setup_samples": passes, "setup_failures": setup_failures}
    if not trace:
        (res["loop"],) = cli_loop(keys, seconds, [NullTracer()], MIN_OPS, counts)
    else:
        tracer = Tracer()
        res["loop"], res["traced_loop"] = cli_loop(keys, seconds, [NullTracer(), tracer], 0, counts)
        tracer.dump(spans_path)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    res["properties"] = {
        "inputs_sha256": inputs_digest(islice(cli_sequence(seed), 5 * CYCLE_LEN)),
        "cycle_length": CYCLE_LEN,
        "calls_per_subcommand": dict(sorted(counts.items())),
    }
    return res


# ---------------------------------------------------------------------------
# verify_shallow


def merge_loops(loops: list) -> dict:
    return {
        "times": [t for loop in loops for t in loop["times"]],
        "raw_times": [t for loop in loops for t in loop["raw_times"]],
        "reference_ms": [loop["reference_ms"] for loop in loops],
        "failures": [f for loop in loops for f in loop["failures"]],
        "slowest": sorted((s for loop in loops for s in loop["slowest"]), key=lambda s: -s["ms"])[:5],
    }


def run_verify(seed, seconds, trace, spans_path) -> dict:
    """The op loop in MEASURE_WORKERS fresh workers in turn (one when traced), each going on
    with the input stream where the last stopped."""
    count = 1 if trace else MEASURE_WORKERS
    parts, deadline = [], time.perf_counter() + WORKER_TIMEOUT
    for _ in range(count):
        skip = sum(len(part["loop"]["times"]) for part in parts)
        args = [str(BENCH_DIR / "worker.py"), "--seed", str(seed), "--seconds", str(seconds / count)]
        args += ["--trace", str(trace), "--skip", str(skip), "--min-ops", str(MIN_OPS), "--spans", str(spans_path)]
        parts.append(json_child(args, timeout=max(1.0, deadline - time.perf_counter())))
    res = parts[0] if trace else {"k3z3_file": parts[0]["k3z3_file"], "loop": merge_loops([p["loop"] for p in parts])}
    res["setup_samples"] = [p["setup_s"] for p in parts]
    res["setup_failures"] = sorted({f for p in parts for f in p["model_failures"]})
    rss = [p["peak_rss_mb"] for p in parts if p["peak_rss_mb"] is not None]
    res["peak_rss_mb"], res["rss_samples"], res["rss_at_ops"] = median(rss), len(rss), parts[0]["rss_at_ops"]
    loops = [res["loop"]] + ([res["traced_loop"]] if trace else [])
    res["properties"] = {
        "inputs_sha256": parts[0]["inputs_sha256"],
        "gram_max_entry_bits": max(p["inputs"]["gram_bits"] for p in parts),
        "action_max_entry_bits": max(p["inputs"]["action_bits"] for p in parts),
        "perturbed_share": sum(p["inputs"]["perturbed"] for p in parts) / sum(p["inputs"]["ops"] for p in parts),
        "workers": count,
        "slowest_inputs": merge_loops(loops)["slowest"],
    }
    return res


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_probes(workload, seed) -> tuple[dict, list, list]:
    """Fresh-process layer timings as {metric: (value, samples)}, failures, lattice summaries."""
    samples: dict[str, list] = {}
    micro: dict[str, tuple] = {}
    failures, lattice_reps = [], []

    def add(name, *values):
        samples.setdefault(name, []).extend(values)

    probe = str(BENCH_DIR / "probe.py")
    for rep in range(PROBE_REPS):
        t0 = time.perf_counter()
        run_child(["-c", "pass"]).check_returncode()
        add("startup.python_ms", (time.perf_counter() - t0) * 1e3)
        for sub in CLI_PROBES:
            res = json_child([probe, "cli", sub])
            add("startup.numpy_import_ms", res["numpy_import_ms"])
            add(f"cli.run_ms.{sub}", res["run_ms"])
            if res["failure"]:
                failures.append(f"cli.run {sub}: {res['failure']}")
        args = [probe, "cold", "--seed", str(seed)]
        args += ["--lattice"] if workload == "cli_mix" else []
        args += ["--micro"] if rep == 0 else []
        res = json_child(args)
        add("startup.k3z3_import_ms", res["k3z3_import_ms"])
        add("classify.enumerate_cold_ms", res["enumerate_cold_ms"])
        add("lattice.gamma16_cold_ms", res["gamma16_cold_ms"])
        add("lattice.assemble_ms", *res["assemble_ms"])
        failures += res["failures"]
        if "lattice" in res:
            lattice_reps.append(res["lattice"])
        micro.update(res.get("micro", {}))
    values = {name: (median(got), len(got)) for name, got in samples.items()}
    values.update((name, tuple(got)) for name, got in micro.items())
    return values, failures, lattice_reps


def lattice_layers(summaries: list, linalg: dict, bits: int) -> dict:
    """Per-op lattice and linalg metrics, as (value, sample count)."""
    ops = sum(s["ops"] for s in summaries)
    out = {}
    for name in LATTICE_CALLS:
        found = [s["calls_ms"][f"lattice.{name}"] for s in summaries if f"lattice.{name}" in s["calls_ms"]]
        if found:
            out[f"lattice.{name}_ms"] = (median([f["median"] for f in found]), sum(f["calls"] for f in found))
    out["lattice.self_ms_per_op"] = (median([s["lattice_self_ms_per_op"] for s in summaries]), ops)
    out["linalg.kernel_calls_per_op"] = (median([s["kernel_calls_per_op"] for s in summaries]), ops)
    for name in LINALG_PASS:
        if linalg.get(name):
            out[f"linalg.{name}_ms"] = (median(linalg[name]), len(linalg[name]))
    out["linalg.max_entry_bits"] = (bits, 1)
    return out


def per_layer(workload, seed, res) -> tuple[dict, list]:
    """Every per-layer metric, tagged with the workload whose inputs it was traced on."""
    values, failures, lattice_reps = run_probes(workload, seed)
    fresh = set(values)
    if workload == "cli_mix":
        linalg = {k: [x for rep in lattice_reps for x in rep["linalg"][k]] for k in LINALG_PASS}
        bits = max(rep["max_entry_bits"] for rep in lattice_reps)
        values.update(lattice_layers(lattice_reps, linalg, bits))
    else:
        values.update(lattice_layers([res["layers"]], res["linalg"], res["linalg_max_entry_bits"]))
    untraced = throughput(res["loop"]["times"])
    traced = throughput(res["traced_loop"]["times"])
    counted = len(res["loop"]["times"]) + len(res["traced_loop"]["times"])
    values["trace.ops_traced"] = (len(res["traced_loop"]["times"]), 1)
    values["trace.overhead_pct"] = (100 * (untraced - traced) / untraced, counted)
    res["trace"] = {"untraced_ops_per_s": untraced, "traced_ops_per_s": traced}

    out = {}
    for name, unit in PER_LAYER.items():
        if name not in values:
            continue
        value, count = values[name]
        origin = "fresh processes, independent of the workload's inputs" if name in fresh else workload
        out[name] = {"value": value, "unit": unit, "samples": count, "traced_on": origin}
    missing = sorted(set(PER_LAYER) - set(out))
    return out, failures + [f"per-layer metric {m} was not measured" for m in missing]


# ---------------------------------------------------------------------------


def summarize(workload, seed, seconds, trace, res, prov) -> dict:
    loops = [res["loop"]] + ([res["traced_loop"]] if trace else [])
    attempted = sum(len(loop["times"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    stats = op_stats(res["loop"]["times"], WINDOW[workload])
    n = len(res["loop"]["times"])
    e2e = {name: {"value": stats[name], "unit": END_TO_END[name], "samples": n} for name in stats}
    e2e["op_p50_ms"]["window"] = WINDOW[workload]
    e2e["setup_s"] = {"value": median(res["setup_samples"]), "unit": "s", "samples": len(res["setup_samples"])}
    e2e["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB", "samples": res.get("rss_samples", 1)}
    if "rss_at_ops" in res:
        e2e["peak_rss_mb"]["at_ops"] = res["rss_at_ops"]
    refs = res["loop"]["reference_ms"]
    host = {
        "ref_ms": REF_MS,
        "reference_ms": refs,
        "raw_op_stats": op_stats(res["loop"]["raw_times"], WINDOW[workload]),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            **prov,
            "k3z3_file": res["k3z3_file"],
            "loadavg_after": read_loadavg(),
            "reference_ms_after": reference_ms(5),
        },
        "end_to_end": e2e,
        "host_speed": host,
        "ops": {
            "attempted": attempted,
            "failed": len(failures),
            "ops_failed_share": len(failures) / attempted,
            "failures": failures[:20],
            "setup_failures": res["setup_failures"],
            "slowest": res["loop"]["slowest"],
        },
        "op_times_ms": [round(t * 1e3, 4) for t in res["loop"]["times"]],
        "workload_properties": res["properties"],
        "dropped_metrics": DROPPED,
    }
    if trace:
        report["per_layer"], report["probe_failures"] = per_layer(workload, seed, res)
        report["trace"] = res["trace"]
        report["span_self_ms"] = res.get("layers", {}).get("self_ms")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (src_dir() / "k3z3" / "__init__.py").is_file():
        print(f"error: no k3z3 package under {src_dir()}; run from the root of a k3z3 checkout", file=sys.stderr)
        return 2

    # one CPU for the benchmark and every process it starts, so that the
    # reference reads and the ops they scale run on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"{stem}.spans.jsonl"
    prov = provenance(args.seed)
    try:
        if args.workload == "cli_mix":
            res = run_cli_mix(args.seed, args.seconds, args.trace, spans_path)
        else:
            res = run_verify(args.seed, args.seconds, args.trace, spans_path)
        report = summarize(args.workload, args.seed, args.seconds, args.trace, res, prov)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report_path = OUT_DIR / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    ops = report["ops"]
    problems = ops["setup_failures"] + report.get("probe_failures", [])
    print(f"{args.workload} seed {args.seed}: report {report_path.relative_to(ROOT)}")
    print(f"  ops attempted {ops['attempted']}, failed {ops['failed']}, ops_failed_share {ops['ops_failed_share']:g}")
    for item in ops["failures"] + problems:
        print(f"  FAILED: {item}")
    shown = report["per_layer"] if args.trace else report["end_to_end"]
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    result = {
        "correct": ops["failed"] == 0 and not problems,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
