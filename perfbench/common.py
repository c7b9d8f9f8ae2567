"""Shared pieces of the k3z3 benchmark: the CLI mix, seeded lattice inputs,
expected values, the span recorder and small statistics helpers.

Nothing here imports k3z3; the processes that measure the package import it
from the checkout's own ``src/`` (see ``src_dir``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from pathlib import Path

from reference import host_factor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

TYPE_NAMES = ("A0", "A1", "A2", "B")

# The classification table of the README: (#X^G, b+^G, b-^G) per type.
# A realizing module must be a*Z + c*Z[G] with a = #X^G - 2 (REP), b = 0
# and a + 3c = 22, and the whole form has signature (3, 19).
TABLE = {"A0": (6, 3, 7), "A1": (9, 3, 9), "A2": (12, 3, 11), "B": (3, 1, 7)}


def expected_record(name: str) -> dict:
    """The fields of the CLI's verification record every basis change of type `name` must give."""
    fixed_count, bplus, bminus = TABLE[name]
    a = fixed_count - 2
    return {
        "type": name,
        "rank": 22,
        "det": -1,
        "even": True,
        "isometry": True,
        "order3": True,
        "signature": [3, 19],
        "fixed_signature": [bplus, bminus],
        "decomposition": {"a": a, "b": 0, "c": (22 - a) // 3},
        "rep": True,
        "gsf": True,
        "lefschetz": True,
        "_symmetric": True,
        "_unimodular": True,
        "_passed": True,
    }


def src_dir() -> Path:
    return ROOT / "src"


def child_env() -> dict:
    """Environment for child interpreters: only the checkout's src/ on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src_dir())
    return env


# ---------------------------------------------------------------------------
# the CLI mix

# (key, argv, exit code).  Keys name files under expected/: <key>.out holds
# the exact stdout; for exit code 2, <key>.err holds the last stderr line.
PASSING = (
    ("classify_text", ["classify"], 0),
    ("classify_json", ["classify", "--format", "json"], 0),
    ("classify_tsv", ["classify", "--format", "tsv"], 0),
    ("verify_all", ["verify", "--all"], 0),
    ("verify_A0_json", ["verify", "--type", "A0", "--format", "json"], 0),
    ("verify_A1_json", ["verify", "--type", "A1", "--format", "json"], 0),
    ("verify_A2_json", ["verify", "--type", "A2", "--format", "json"], 0),
    ("verify_B_json", ["verify", "--type", "B", "--format", "json"], 0),
    ("smooth_A1", ["smooth", "--type", "A1"], 0),
    ("smooth_A1_e2pq", ["smooth", "--type", "A1", "--surface", "e2pq", "--p", "3", "--q", "7"], 0),
    ("smooth_A1_json", ["smooth", "--type", "A1", "--format", "json"], 0),
    ("dirac_6_0", ["dirac", "--mplus", "6", "--mminus", "0"], 0),
    ("dirac_3_6", ["dirac", "--mplus", "3", "--mminus", "6"], 0),
    ("dirac_0_12_json", ["dirac", "--mplus", "0", "--mminus", "12", "--format", "json"], 0),
    ("gsig_data", ["gsig", "--data", "(1,2)x3,(1,1)x6"], 0),
    ("gsig_counts", ["gsig", "--mplus", "3", "--mminus", "6"], 0),
    ("gsig_counts_json", ["gsig", "--mplus", "6", "--mminus", "0", "--format", "json"], 0),
)
MALFORMED = (
    ("bad_verify_type", ["verify", "--type", "Q"], 2),
    ("bad_dirac_lift", ["dirac", "--mplus", "1", "--mminus", "1"], 2),
    ("bad_gsig_weight", ["gsig", "--data", "(1,3)x2"], 2),
    ("bad_smooth_pq", ["smooth", "--type", "A1", "--p", "3"], 2),
    ("bad_classify_format", ["classify", "--format", "xml"], 2),
    ("bad_gsig_parse", ["gsig", "--data", "(1,2)x3,(1"], 2),
)
# One cycle of the mix: the 17 passing calls, a second plain `classify`
# (the README's first example), and two malformed calls, so one call in ten
# is rejected.  Cycle c takes malformed entries 2c and 2c + 1 (mod 6).
CYCLE_LEN = len(PASSING) + 3
# One call of each subcommand family: the warm-up pass.
WARMUP = ("classify_text", "verify_all", "smooth_A1", "dirac_3_6", "gsig_data", "bad_dirac_lift")

# The call a `cli` probe times for each subcommand.
CLI_PROBES = {
    "classify": "classify_text",
    "verify": "verify_all",
    "smooth": "smooth_A1",
    "dirac": "dirac_3_6",
    "gsig": "gsig_data",
    "rejected": "bad_dirac_lift",
}

CALLS = {key: (argv, code) for key, argv, code in PASSING + MALFORMED}


def subcommand(key: str) -> str:
    return "rejected" if key.startswith("bad_") else CALLS[key][0][0]


def cli_sequence(seed: int):
    """Endless seeded-order stream of mix keys, one fixed-composition cycle at a time."""
    rng = random.Random(f"cli_mix:{seed}")
    cycle = 0
    while True:
        keys = [key for key, _, _ in PASSING] + ["classify_text"]
        keys += [MALFORMED[(2 * cycle + i) % len(MALFORMED)][0] for i in range(2)]
        rng.shuffle(keys)
        yield from keys
        cycle += 1


def expected_cli(key: str) -> tuple[int, str, str | None]:
    argv, code = CALLS[key]
    out = (EXPECTED_DIR / f"{key}.out").read_text() if code == 0 else ""
    err = (EXPECTED_DIR / f"{key}.err").read_text().strip() if code == 2 else None
    return code, out, err


def check_cli(key: str, code: int, out: str, err: str) -> str | None:
    """None when the call behaved as expected, else the reason it failed."""
    want_code, want_out, want_err = expected_cli(key)
    if "Traceback" in err:
        return "traceback on stderr"
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if out != want_out:
        return "stdout differs from the expected text"
    if want_err is not None:
        lines = err.strip().splitlines()
        # argparse prints a usage line before its one-line diagnostic
        if not lines or len(lines) > 2 or lines[-1] != want_err:
            return "stderr is not the expected one-line diagnostic"
    return None


# ---------------------------------------------------------------------------
# lattice inputs

# verify_shallow: elementary basis changes per input, and one input in
# PERTURB_EVERY has a perturbed action
STEPS = 8
PERTURB_EVERY = 10
# The first inputs of a stream: hashed into the report, and timed kernel by
# kernel after the traced loop.
FIXED_INPUTS = 40
# The lattice functions the CLI's verify record calls, each timed per call.
LATTICE_CALLS = (
    "verify_lattice",
    "signature",
    "fixed_sublattice",
    "module_decomposition",
    "check_rep",
    "check_gsf",
    "check_lefschetz",
)
# The kernels timed directly on each fixed input's matrices.
LINALG_PASS = ("bareiss_determinant", "inertia", "smith_normal_form", "integer_kernel", "matmul3")


def _congruence(gram, action, rng, steps):
    """Apply `steps` random elementary basis changes b_j += c*b_i in place.

    For E = 1 + c*e_i*e_j^T the gram becomes E^T G E and the action E^-1 A E,
    each an O(n) update of two rows or columns.
    """
    n = len(gram)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in gram:
            row[j] += c * row[i]
        gram[j] = [x + c * y for x, y in zip(gram[j], gram[i])]
        for row in action:
            row[j] += c * row[i]
        action[i] = [x - c * y for x, y in zip(action[i], action[j])]


def lattice_inputs(seed: int, models: dict):
    """Endless seeded stream of verify_shallow inputs: (index, type, gram, action, perturbed).

    `models` maps each type name to its (gram, action) as lists of ints.
    Every block of four inputs holds the four types in seeded order; every
    block of PERTURB_EVERY inputs has one perturbed input, a single action
    entry moved by +-1.
    """
    rng = random.Random(f"verify_shallow:{seed}")
    index, order, bad = 0, [], -1
    while True:
        if not order:
            order = list(TYPE_NAMES)
            rng.shuffle(order)
        if index % PERTURB_EVERY == 0:
            bad = index + rng.randrange(PERTURB_EVERY)
        name = order.pop()
        gram0, action0 = models[name]
        gram, action = [list(r) for r in gram0], [list(r) for r in action0]
        _congruence(gram, action, rng, STEPS)
        perturbed = index == bad
        if perturbed:
            i, j = rng.randrange(len(gram)), rng.randrange(len(gram))
            action[i][j] += rng.choice((-1, 1))
        yield index, name, gram, action, perturbed
        index += 1


def inputs_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
    return h.hexdigest()


def max_bits(rows) -> int:
    return max(abs(x).bit_length() for row in rows for x in row)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name):
        return _Span(self, name)

    @property
    def open(self) -> bool:
        """Whether a span is open, i.e. whether a traced op is running."""
        return bool(self._stack)

    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[4], s[2] - s[1] - c) for s, c in zip(self.spans, child)]

    def dump(self, path: Path):
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op])
        tr._stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()
        return False


class NullTracer:
    """Tracing off: one shared do-nothing context."""

    op = None

    class _Null:
        def __enter__(self):
            pass

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def span(self, name):
        return self._NULL


# ---------------------------------------------------------------------------
# statistics


def median(xs):
    return statistics.median(xs) if xs else None


def percentile(xs, q: float):
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    if not xs:
        return None
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s) - 1e-9) - 1)]


def windowed_percentile(xs, q: float, size: int):
    """Mean over consecutive full windows of `size` samples of each window's q-percentile.

    A window holds a fixed mix of inputs (a cycle of the CLI mix, or ten
    blocks of the four lattice types), so its percentile falls on the same
    kind of input in every window.  A run-wide percentile of a mix with a
    few heavy kinds can fall on the boundary between two of them and jump
    from one to the other with the run's last partial cycle.
    """
    windows = [xs[i : i + size] for i in range(0, len(xs) - size + 1, size)] or [xs]
    return statistics.fmean(percentile(w, q) for w in windows)


def loop_summary(entries, refs) -> dict:
    """Times, failures and the five slowest ops from (seconds, window, index, input, failure) entries.

    `refs` holds a reference read before each window of ops and one after
    the last; each op's time is scaled by the host factor of its window
    (see reference.py).  The raw times are kept as `raw_times`.
    """
    factors = [host_factor(a, b) for a, b in zip(refs, refs[1:])]
    scaled = [(dt * factors[w], i, label, r) for dt, w, i, label, r in entries]
    slow = sorted(scaled, key=lambda e: -e[0])[:5]
    return {
        "times": [e[0] for e in scaled],
        "raw_times": [e[0] for e in entries],
        "failures": [{"index": i, "input": label, "reason": r} for _, i, label, r in scaled if r],
        "slowest": [{"index": i, "input": label, "ms": dt * 1e3} for dt, i, label, _ in slow],
        "reference_ms": {"median": median(refs), "min": min(refs), "max": max(refs), "reads": len(refs)},
    }
