"""In-process verification worker for the verify_shallow workload.

Run as a fresh child by run.py:

    python3 perfbench/worker.py --seed 1 --seconds 10 --trace 0 [--skip N]

It imports k3z3 from the checkout's src/, classifies and assembles the four
rank-22 models (timed as set-up), then audits seeded basis changes of them
from input N of the stream on, one at a time, through the CLI's own
verification record builder, and prints one JSON object.
"""

import os
import sys
import time

from reference import host_factor, reference_ms

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def setup():
    """Import k3z3 from src/, classify, assemble the models: the timed set-up,
    scaled by the host factor read around it (see reference.py)."""
    before = reference_ms()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import k3z3
    from k3z3 import classify, cli, lattice  # noqa: F401  (cli builds every op's record)

    types = {t.name: t for t in classify.enumerate_action_types()}
    models = {name: lattice.assemble_type_lattice(t) for name, t in types.items()}
    dt = time.perf_counter() - t0
    return dt * host_factor(before, reference_ms()), k3z3, types, models


if __name__ == "__main__":
    # before the benchmark's own imports, so that k3z3 pays for every module it needs
    SETUP = setup()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from functools import partial  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    FIXED_INPUTS,
    LATTICE_CALLS,
    LINALG_PASS,
    NullTracer,
    Tracer,
    expected_record,
    inputs_digest,
    lattice_inputs,
    loop_summary,
    max_bits,
    median,
    src_dir,
)

# Wrapped with spans in the traced loop: the lattice functions of the CLI's
# verify record, each timed per call, and the linalg kernels, so that
# lattice self time excludes them and kernel calls per op are counted.
WRAPPED = {
    "lattice": LATTICE_CALLS,
    "linalg": (
        "bareiss_determinant",
        "inertia",
        "smith_normal_form",
        "integer_kernel",
        "solve_integer",
        "elementary_divisors",
    ),
}
# peak_rss_mb is read when this many ops have completed, so that it stands
# for a fixed amount of work (the signature cache grows with every op); the
# untimed loop runs at least this long
RSS_AT_OPS = 500
# ops between two reads of the host-speed reference
REF_EVERY = 20


def checked_source(k3z3) -> str:
    path = Path(k3z3.__file__).resolve()
    if src_dir().resolve() not in path.parents:
        raise SystemExit(f"k3z3 imported from {path}, not from the checkout's src/")
    return str(path)


def audit(t, gram, action, tracer) -> dict:
    """One op: the lattice and the verification record `k3z3 verify` builds for it."""
    from k3z3 import cli, lattice

    with tracer.span("lattice.GLattice"):
        L = lattice.GLattice(gram, action)
    return cli._verification_record(t, L)


def check_record(rec: dict, name: str, perturbed: bool) -> str | None:
    """None when the record is right, else why not."""
    if perturbed:
        return "perturbed action reported as passing" if rec["_passed"] else None
    want = expected_record(name)
    wrong = sorted(k for k in want if rec.get(k) != want[k])
    return f"{name}: wrong {', '.join(wrong)}" if wrong else None


def wrap(tracer) -> list:
    """Put a span around each function in WRAPPED, inside traced ops only.

    cli and lattice look these functions up as module attributes or
    globals, so the record's calls and the calls nested in them are seen.
    Returns the (module, name, original) triples that `unwrap` restores.
    """
    import k3z3.lattice
    import k3z3.linalg

    modules = {"lattice": k3z3.lattice, "linalg": k3z3.linalg}
    originals = []
    for prefix, names in WRAPPED.items():
        module = modules[prefix]
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            originals.append((module, name, fn))

            def traced(*args, _fn=fn, _span=f"{prefix}.{name}", **kwargs):
                if not tracer.open:
                    return _fn(*args, **kwargs)
                with tracer.span(_span):
                    return _fn(*args, **kwargs)

            setattr(module, name, traced)
    return originals


def unwrap(originals: list) -> None:
    for module, name, fn in originals:
        setattr(module, name, fn)


def as_rows(L) -> tuple[list, list]:
    return [list(map(int, r)) for r in L.gram.tolist()], [list(map(int, r)) for r in L.action.tolist()]


def op_loop(types, stream, seconds, tracers, min_ops=0) -> tuple[list, dict]:
    """Closed loop, one op in flight, for `seconds` of wall time (input generation untimed).

    Ops take turns among `tracers`, so a traced and an untraced loop share
    the machine's state and the input mix; returns one summary per tracer
    and the properties of all inputs, with the peak RSS after RSS_AT_OPS ops.
    The host-speed reference is read before every REF_EVERY ops and after
    the last, outside the ops' times.
    """
    entries = [[] for _ in tracers]
    props = {"ops": 0, "perturbed": 0, "gram_bits": 0, "action_bits": 0}
    refs = []
    wall0 = time.perf_counter()
    while True:
        if props["ops"] % REF_EVERY == 0:
            refs.append(reference_ms())
        index, name, gram, action, bad = next(stream)
        props["gram_bits"] = max(props["gram_bits"], max_bits(gram))
        props["action_bits"] = max(props["action_bits"], max_bits(action))
        props["perturbed"] += bad
        slot = props["ops"] % len(tracers)
        tracer = tracers[slot]
        tracer.op = index
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                rec = audit(types[name], gram, action, tracer)
            reason = None
        except Exception as exc:  # any raise is a failed op, recorded with its reason
            rec, reason = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if reason is None:
            reason = check_record(rec, name, bad)
        entries[slot].append((dt, props["ops"] // REF_EVERY, index, name, reason))
        props["ops"] += 1
        if props["ops"] == RSS_AT_OPS:
            props["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - wall0 >= seconds and props["ops"] >= min_ops:
            break
    refs.append(reference_ms())
    return [loop_summary(e, refs) for e in entries], props


def linalg_pass(lattice, linalg, inputs) -> dict:
    """Time each kernel directly on the matrices of the given ops."""
    samples = {name: [] for name in LINALG_PASS}
    for _, _, gram, action, _ in inputs:
        L = lattice.GLattice(gram, action)
        g, a = L.gram, L.action
        ident = linalg.identity(L.rank)
        jobs = {
            "bareiss_determinant": partial(linalg.bareiss_determinant, g),
            "inertia": partial(linalg.inertia, g),
            "smith_normal_form": partial(linalg.smith_normal_form, a - ident),
            "integer_kernel": partial(linalg.integer_kernel, ident + a + a @ a),
            "matmul3": lambda: a.T @ g @ a,
        }
        for name in LINALG_PASS:
            t0 = time.perf_counter()
            jobs[name]()
            samples[name].append((time.perf_counter() - t0) * 1e3)
    return samples


def layer_summary(tracer) -> dict:
    """Per-call medians of the lattice spans, kernel calls and lattice self time per op."""
    per_name: dict[str, list] = {}
    self_by_name: dict[str, list] = {}
    kernel_calls: dict = {}
    lattice_self: dict = {}
    for (name, t0, t1, _, op), (_, _, self_ns) in zip(tracer.spans, tracer.self_times()):
        per_name.setdefault(name, []).append((t1 - t0) / 1e6)
        self_by_name.setdefault(name, []).append(self_ns / 1e6)
        if name.startswith("linalg."):
            kernel_calls[op] = kernel_calls.get(op, 0) + 1
        elif name.startswith("lattice."):
            lattice_self[op] = lattice_self.get(op, 0.0) + self_ns / 1e6
    ops = {op for *_, op in tracer.spans}
    return {
        "calls_ms": {k: {"median": median(v), "calls": len(v)} for k, v in per_name.items()},
        "self_ms": {k: {"median": median(v), "total": sum(v)} for k, v in self_by_name.items()},
        "kernel_calls_per_op": median([kernel_calls.get(op, 0) for op in ops]),
        "lattice_self_ms_per_op": median([lattice_self.get(op, 0.0) for op in ops]),
        "ops": len(ops),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--skip", type=int, default=0, help="inputs of the stream to skip")
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    setup_s, k3z3, types, models = SETUP
    out = {"setup_s": setup_s, "k3z3_file": checked_source(k3z3)}

    from k3z3 import lattice, linalg

    model_rows = {name: as_rows(L) for name, L in models.items()}
    model_failures = []
    for name, (gram, action) in model_rows.items():
        reason = check_record(audit(types[name], gram, action, NullTracer()), name, False)
        if reason:
            model_failures.append(f"model {reason}")
    out["model_failures"] = model_failures

    fixed = list(islice(lattice_inputs(args.seed, model_rows), FIXED_INPUTS))
    out["inputs_sha256"] = inputs_digest(fixed)
    stream = islice(lattice_inputs(args.seed, model_rows), args.skip, None)
    if not args.trace:
        min_ops = max(args.min_ops, RSS_AT_OPS)
        (out["loop"],), out["inputs"] = op_loop(types, stream, args.seconds, [NullTracer()], min_ops)
    else:
        tracer = Tracer()
        originals = wrap(tracer)
        try:
            loops, out["inputs"] = op_loop(types, stream, args.seconds, [NullTracer(), tracer])
        finally:
            unwrap(originals)
        out["loop"], out["traced_loop"] = loops
        out["layers"] = layer_summary(tracer)
        out["linalg"] = linalg_pass(lattice, linalg, fixed)
        out["linalg_max_entry_bits"] = max(max(max_bits(g), max_bits(a)) for _, _, g, a, _ in fixed)
        if args.spans:
            tracer.dump(Path(args.spans))
    # None when a traced loop stops short of RSS_AT_OPS ops
    out["peak_rss_mb"] = out["inputs"].pop("rss_mb", None)
    out["rss_at_ops"] = RSS_AT_OPS
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
