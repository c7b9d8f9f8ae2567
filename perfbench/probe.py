"""Fresh-process layer probes for the traced run; each prints one JSON object.

    python3 perfbench/probe.py cli verify       # time cli.run(argv) after import
    python3 perfbench/probe.py cold             # cold import, sweep, gamma16 and assembly
    python3 perfbench/probe.py cold --lattice   # then the CLI's verify calls on the four models
    python3 perfbench/probe.py cold --micro --seed 1   # then warm timings of the small layers

Each probe must be the first use of k3z3 in its process, so run.py starts a
new interpreter per probe.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODE = sys.argv[1] if __name__ == "__main__" and len(sys.argv) > 1 else None

# The first import is timed before the benchmark's own imports, so that it
# pays for every module it needs: numpy in a `cli` probe (the floor under
# every k3z3 process), the whole of k3z3 in a `cold` probe.
if MODE == "cli":
    _t0 = time.perf_counter()
    import numpy  # noqa: F401

    FIRST_IMPORT_MS = (time.perf_counter() - _t0) * 1e3
elif MODE == "cold":
    sys.path.insert(0, SRC)
    _t0 = time.perf_counter()
    import k3z3  # noqa: F401

    FIRST_IMPORT_MS = (time.perf_counter() - _t0) * 1e3

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

import worker  # noqa: E402
from common import CALLS, CLI_PROBES, TABLE, Tracer, check_cli, max_bits, median  # noqa: E402

# each micro timing repeats whole passes over its operands until both hold
MIN_PASSES, MIN_SECONDS = 3, 0.1


def probe_cli(sub: str) -> dict:
    key = CLI_PROBES[sub]
    sys.path.insert(0, SRC)
    from k3z3 import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code, out = cli.run(CALLS[key][0])
        run_ms = (time.perf_counter() - t0) * 1e3
    return {"numpy_import_ms": FIRST_IMPORT_MS, "run_ms": run_ms, "failure": check_cli(key, code, out, err.getvalue())}


def per_call_us(fn, items) -> tuple[float, int]:
    """Median over timed passes of fn over items, per call in microseconds, and the call count."""
    passes, spent = [], 0.0
    while len(passes) < MIN_PASSES or spent < MIN_SECONDS:
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        dt = time.perf_counter() - t0
        spent += dt
        passes.append(dt / len(items) * 1e6)
    return median(passes), len(passes) * len(items)


def micro(seed: int) -> tuple[dict, list]:
    """Warm per-call timings of the small exact layers, on seeded operands."""
    from k3z3 import classify, cyclotomic, fixed_data, obstruction

    rng = random.Random(f"micro:{seed}")
    grid = [fixed_data.FixedPointData(p, m) for p in range(25) for m in range(25 - p)]
    spin = [d for d in grid if d.difference % 9 == 6]
    weights = (1, 2, 4, 5, -1, -2)
    texts = []
    for _ in range(200):
        entries, left = [], 24
        for _ in range(rng.randint(1, 4)):
            mult = rng.randint(1, max(1, left // 4))
            left -= mult
            entries.append(f"({rng.choice(weights)},{rng.choice(weights)})x{mult}")
        texts.append(",".join(entries))

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    pairs = [(cyclotomic.Cyclotomic(fraction(), fraction()), cyclotomic.Cyclotomic(fraction(), fraction())) for _ in range(200)]
    pairs = [(a, b) for a, b in pairs if b]
    surfaces = [obstruction.SurfaceModel.standard()]
    surfaces += [obstruction.SurfaceModel.elliptic(p, q) for p, q in ((3, 5), (3, 7), (5, 7), (1, 9), (7, 9))]
    types = classify.enumerate_action_types()
    verdict_args = [(t, s) for t in types for s in surfaces]

    out = {
        "classify.quotient_invariants_us": per_call_us(classify.quotient_invariants, grid),
        "fixed_data.g_signature_of_data_us": per_call_us(fixed_data.g_signature_of_data, grid),
        "fixed_data.dirac_coefficients_us": per_call_us(fixed_data.dirac_coefficients, spin),
        "fixed_data.parse_fixed_data_us": per_call_us(fixed_data.parse_fixed_data, texts),
        "cyclotomic.mul_us": per_call_us(lambda ab: ab[0] * ab[1], pairs),
        "cyclotomic.div_us": per_call_us(lambda ab: ab[0] / ab[1], pairs),
        "obstruction.verdict_us": per_call_us(lambda ts: obstruction.verdict(*ts), verdict_args),
    }

    failures = []
    triples = {"A0": (2, 0, 0), "A1": (0, 1, 1), "A2": (-2, 2, 2), "B": (0, 1, 1)}
    for t in types:
        if fixed_data.dirac_coefficients(t.data).as_tuple() != triples[t.name]:
            failures.append(f"dirac_coefficients wrong for {t.name}")
    if obstruction.verdict(types[1], surfaces[0]).status.value != "UNSMOOTHABLE":
        failures.append("A1 on the standard K3 is not UNSMOOTHABLE")
    if any((a * b) / b != a for a, b in pairs):
        failures.append("cyclotomic (a*b)/b != a")
    for text in texts:
        d = fixed_data.parse_fixed_data(text)
        if fixed_data.g_signature_of_data(d) != Fraction(d.difference, 3):
            failures.append(f"g-signature of {text!r} is not (m+ - m-)/3")
            break
    return out, failures


def probe_cold(seed: int, with_lattice: bool, with_micro: bool) -> dict:
    res = {"k3z3_import_ms": FIRST_IMPORT_MS, "k3z3_file": worker.checked_source(k3z3)}
    from k3z3 import classify, lattice

    t0 = time.perf_counter()
    types = classify.enumerate_action_types()
    res["enumerate_cold_ms"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    lattice.gamma16(4)
    lattice.gamma16(5)
    res["gamma16_cold_ms"] = (time.perf_counter() - t0) * 1e3
    models, assemble = {}, []
    for t in types:
        t0 = time.perf_counter()
        models[t.name] = lattice.assemble_type_lattice(t)
        assemble.append((time.perf_counter() - t0) * 1e3)
    res["assemble_ms"] = assemble

    failures = []
    got = {t.name: (t.fixed_count, t.bplus_G, t.bminus_G) for t in types}
    if got != TABLE:
        failures.append(f"classification table {got} != {TABLE}")
    if with_lattice:
        res["lattice"], lattice_failures = lattice_calls(types, models)
        failures += lattice_failures
    if with_micro:
        res["micro"], micro_failures = micro(seed)
        failures += micro_failures
    res["failures"] = failures
    return res


def lattice_calls(types, models) -> tuple[dict, list]:
    """The CLI verify record's calls on the four models, first use in the process."""
    from k3z3 import lattice, linalg

    tracer = Tracer()
    worker.wrap(tracer)
    failures = []
    for index, t in enumerate(types):
        tracer.op = index
        gram, action = worker.as_rows(models[t.name])
        with tracer.span("op"):
            rec = worker.audit(t, gram, action, tracer)
        reason = worker.check_record(rec, t.name, False)
        if reason:
            failures.append(reason)
    summary = worker.layer_summary(tracer)
    inputs = [(i, t.name, *worker.as_rows(models[t.name]), False) for i, t in enumerate(types)]
    summary["linalg"] = worker.linalg_pass(lattice, linalg, inputs)
    summary["max_entry_bits"] = max(max(max_bits(g), max_bits(a)) for _, _, g, a, _ in inputs)
    return summary, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=("cli", "cold"))
    ap.add_argument("sub", nargs="?", choices=tuple(CLI_PROBES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lattice", action="store_true")
    ap.add_argument("--micro", action="store_true")
    args = ap.parse_args(argv)
    if args.kind == "cli":
        res = probe_cli(args.sub)
    else:
        res = probe_cold(args.seed, args.lattice, args.micro)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
