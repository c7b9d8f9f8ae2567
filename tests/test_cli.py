"""CLI behaviour: deterministic output, documented formats, exit codes.

Most tests drive the in-process entry point cli.run; the subprocess tests
start their interpreters through the run_python fixture, in the benchmark's
child environment, and `python -m k3z3` ends through cli.process_main.
"""

import errno
import importlib
import json
import os
import random
import sys
import tomllib
from pathlib import Path

import pytest

from k3z3 import cli, lattice
from k3z3.classify import action_type
from k3z3.lattice import GLattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CLASSIFY_TEXT = """Type  #X^G  m+  m-  b2^G  b+^G  b-^G  Sign(X/G)
A0       6   6   0    10     3     7         -4
A1       9   3   6    12     3     9         -6
A2      12   0  12    14     3    11         -8
B        3   0   3     8     1     7         -6
"""


def run_cli(*argv):
    """In-process invocation; returns (exit_code, stdout_text)."""
    return cli.run(list(argv))


def test_module_entry_point_subprocess(run_python):
    (result,) = run_python([["-m", "k3z3", "classify", "--format", "text"]])
    assert result.returncode == 0
    assert result.stdout == CLASSIFY_TEXT
    assert result.stderr == ""


def test_cli_module_runs_as_a_script(run_python):
    (result,) = run_python([["-m", "k3z3.cli", "classify"]])
    assert (result.returncode, result.stdout, result.stderr) == (0, CLASSIFY_TEXT, "")


def test_error_diagnostics_subprocess(run_python):
    (result,) = run_python([["-m", "k3z3", "dirac", "--mplus", "1", "--mminus", "1"]])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no consistent spin lift" in result.stderr


def test_entry_point_gives_the_bench_calls_their_output(bench_common, run_python):
    # one call of each family, a JSON record and an argparse diagnostic,
    # through the process boundary and in the environment that cli_mix times
    keys = (*bench_common.WARMUP, "verify_A0_json", "bad_verify_type")
    cases = [(flag, key) for flag in ([], ["-O"]) for key in keys]
    results = run_python([[*flag, "-m", "k3z3", *bench_common.CALLS[key][0]] for flag, key in cases])
    for (flag, key), result in zip(cases, results):
        failure = bench_common.check_cli(key, result.returncode, result.stdout, result.stderr)
        assert failure is None, (flag, key, failure)


LIFT_ERROR = "error: fixed data admits no consistent spin lift: m+ - m- != 6 (mod 9)\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["dirac", "--mplus", "3", "--mminus", "6"], 0, "k = (0, 1, 1)\n", ""),
        (["dirac", "--mplus", "1", "--mminus", "1"], 2, "", LIFT_ERROR),
    ],
)
def test_entry_point_runs_the_atexit_handlers_and_keeps_the_exit_code(run_python, argv, code, out, err):
    # the benchmark's environment sets no PYTHONUNBUFFERED, so stdout is block-buffered
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit handler ran')\n"
        f"sys.argv = ['k3z3', *{argv!r}]\n"
        "runpy.run_module('k3z3', run_name='__main__')\n"
    )
    (result,) = run_python([["-c", probe]])
    assert (result.returncode, result.stdout, result.stderr) == (code, out + "atexit handler ran\n", err)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_failed_write_is_one_line_and_exit_1(run_python):
    # a reader that has gone away, and a full disk, behind a block-buffered stdout
    args = ["-m", "k3z3", "verify", "--all", "--format", "json"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as pipe, open("/dev/full", "w") as full:
        results = [*run_python([args], pipe), *run_python([args], full)]
    for result, error in zip(results, (errno.EPIPE, errno.ENOSPC)):
        assert (result.returncode, result.stderr) == (1, f"error: cannot write output: {os.strerror(error)}\n")


def _with_fd_closed(fd: int) -> str:
    """A `python -c` program that closes `fd`, then runs the rest of its argv."""
    return f"import os, sys\nos.close({fd})\nos.execv(sys.executable, [sys.executable, *sys.argv[1:]])"


def test_closed_stdout_is_a_failed_write(run_python):
    # the interpreter starts with fd 1 closed, so sys.stdout is None; help text is output too
    calls = (["classify"], ["--help"])
    results = run_python([["-c", _with_fd_closed(1), "-m", "k3z3", *argv] for argv in calls])
    error = os.strerror(errno.EBADF)
    for argv, result in zip(calls, results):
        assert (result.returncode, result.stderr) == (1, f"error: cannot write output: {error}\n"), argv


def test_closed_stderr_loses_the_diagnostic_and_keeps_the_code(run_python):
    # with fd 2 closed sys.stderr is None, and print(file=None) would write on stdout
    argv = ["-c", _with_fd_closed(2), "-m", "k3z3", "dirac", "--mplus", "1", "--mminus", "1"]
    (result,) = run_python([argv])
    assert (result.returncode, result.stdout) == (2, "")


def test_a_stderr_that_fails_loses_the_diagnostic_and_keeps_the_code(monkeypatch):
    class Broken:
        def write(self, text):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    monkeypatch.setattr(sys, "stderr", Broken())
    assert cli.main(["dirac", "--mplus", "1", "--mminus", "1"]) == 2


def test_main_returns_the_code_of_a_failed_write(monkeypatch, capsys):
    # main reports a failed write and returns; only process_main ends the process
    assert cli.main(["dirac", "--mplus", "3", "--mminus", "6"]) == 0
    assert capsys.readouterr() == ("k = (0, 1, 1)\n", "")

    class Full:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert cli.main(["dirac", "--mplus", "3", "--mminus", "6"]) == 1
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_console_script_ends_through_process_main():
    pyproject = tomllib.loads((PERFBENCH.parent / "pyproject.toml").read_text())
    module, name = pyproject["project"]["scripts"]["k3z3"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.process_main


def test_no_subcommand_loads_numpy(run_python):
    # a fresh process, so that no earlier test has imported these already;
    # dataclasses pulls in inspect, ast, dis and tokenize at every start-up,
    # and only JSON output needs json
    code = (
        "import sys\n"
        "import k3z3\n"
        "from k3z3 import cli\n"
        "unwanted = ('numpy', 'dataclasses', 'inspect', 'json')\n"
        "for argv in (['classify'], ['dirac', '--mplus', '3', '--mminus', '6'],\n"
        "             ['gsig', '--mplus', '3', '--mminus', '6'], ['smooth', '--type', 'A1'],\n"
        "             ['verify', '--type', 'A1']):\n"
        "    print(argv[0], cli.run(argv)[0], [m for m in unwanted if m in sys.modules])\n"
        "from k3z3 import GLattice, gamma16\n"
        "print(isinstance(gamma16(1), GLattice), all(hasattr(k3z3, n) for n in k3z3.__all__))\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    (result,) = run_python([["-c", code]])
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == [
        "classify 0 []",
        "dirac 0 []",
        "gsig 0 []",
        "smooth 0 []",
        "verify 0 []",
        "True True",
        "[]",
        "",
    ]


def _raise_internal(*args):
    raise ArithmeticError("planted fault")


def test_internal_error_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "dirac_coefficients", _raise_internal)
    assert run_cli("dirac", "--mplus", "3", "--mminus", "6") == (3, "")
    assert capsys.readouterr().err == "internal error: ArithmeticError: planted fault\n"


def test_internal_error_exit_code_subprocess(run_python):
    code = (
        "import sys\n"
        "from k3z3 import cli\n"
        "def fault(*args):\n"
        "    raise ArithmeticError('planted fault')\n"
        "cli.dirac_coefficients = fault\n"
        "sys.exit(cli.main(['dirac', '--mplus', '3', '--mminus', '6']))\n"
    )
    (result,) = run_python([["-c", code]])
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "internal error: ArithmeticError: planted fault\n"


def test_classify_text_is_golden():
    code, out = run_cli("classify", "--format", "text")
    assert code == 0
    assert out == CLASSIFY_TEXT


def test_classify_default_format_is_text():
    assert run_cli("classify")[1] == CLASSIFY_TEXT


def test_classify_json_fields_and_round_trip():
    code, out = run_cli("classify", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["name"] for r in rows] == ["A0", "A1", "A2", "B"]
    assert list(rows[0]) == [
        "name",
        "fixed_count",
        "m_plus",
        "m_minus",
        "b2_G",
        "bplus_G",
        "bminus_G",
        "sign_quotient",
        "euler_quotient",
    ]
    assert rows[1] == {
        "name": "A1",
        "fixed_count": 9,
        "m_plus": 3,
        "m_minus": 6,
        "b2_G": 12,
        "bplus_G": 3,
        "bminus_G": 9,
        "sign_quotient": -6,
        "euler_quotient": 14,
    }
    # re-serializing with the documented parameters reproduces the bytes
    assert json.dumps(rows, indent=2) + "\n" == out


def test_classify_tsv():
    code, out = run_cli("classify", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t")[0] == "name"
    assert lines[1].split("\t") == ["A0", "6", "6", "0", "10", "3", "7", "-4", "12"]
    assert len(lines) == 5


def test_output_is_deterministic():
    for argv in (
        ["classify", "--format", "json"],
        ["verify", "--type", "A1", "--format", "json"],
        ["smooth", "--type", "A1", "--format", "json"],
        ["gsig", "--data", "(1,2)x3,(1,1)x6"],
    ):
        assert cli.run(list(argv)) == cli.run(list(argv))


def test_verify_single_type():
    code, out = run_cli("verify", "--type", "A1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == [
        "type",
        "rank",
        "det",
        "even",
        "isometry",
        "order3",
        "signature",
        "fixed_signature",
        "decomposition",
        "rep",
        "gsf",
        "lefschetz",
    ]
    assert rec["type"] == "A1"
    assert rec["rank"] == 22
    assert rec["det"] == -1
    assert rec["signature"] == [3, 19]
    assert rec["fixed_signature"] == [3, 9]
    assert rec["decomposition"] == {"a": 7, "b": 0, "c": 5}
    assert all(rec[key] is True for key in ("even", "isometry", "order3", "rep", "gsf", "lefschetz"))


def test_verify_all_types():
    code, out = run_cli("verify", "--all", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["type"] for r in records] == ["A0", "A1", "A2", "B"]
    assert all(r["rep"] and r["gsf"] and r["lefschetz"] for r in records)
    assert json.dumps(records, indent=2) + "\n" == out


def test_verify_text_report():
    code, out = run_cli("verify", "--type", "B")
    assert code == 0
    assert "type B" in out
    assert "REP              pass" in out
    assert "GSF              pass" in out
    assert "Lefschetz        pass" in out
    assert "torsion condition skipped" in out


def _count_calls(monkeypatch, module, names) -> dict:
    """Count the calls made through the named module attributes."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_record_kernel_budget(monkeypatch):
    # the kernel budget of one record, counted at the cores that read sparse
    # columns: two symmetric eliminations (the form, which also gives the
    # determinant, and the fixed form; counted where both run, behind the
    # symmetry guard or not), one order-3 check, one rational kernel and one
    # rank mod 3; each is computed once per lattice, however often the checks
    # ask for it, and none through a public kernel that would scan its
    # argument again
    from k3z3 import classify, linalg

    budget = {
        "smith_normal_form": 0,
        "integer_kernel": 0,
        "bareiss_determinant": 0,
        "_inertia_and_determinant": 2,
        "_cube_is_identity": 1,
        "_rational_kernel": 1,
        "_rank_mod3": 1,
        "cube_is_identity": 0,
        "rational_kernel": 0,
        "rank_mod3": 0,
    }
    calls = _count_calls(monkeypatch, linalg, budget)
    for t in classify.enumerate_action_types():
        L = lattice.assemble_type_lattice(t)  # fresh, so nothing is memoized for it
        calls.update(dict.fromkeys(budget, 0))
        assert cli._verification_record(t, L)["_passed"]
        assert calls == budget, t.name


def test_each_call_sweeps_once_and_builds_no_gamma16(monkeypatch):
    # nothing memoizes the four-type sweep: each call runs it exactly once, over
    # the 325 points of the grid, and `verify --all` reads all four types from
    # that one sweep; the Gamma16 blocks are built when lattice is imported
    from k3z3 import classify

    sweep = _count_calls(monkeypatch, classify, ["_scaled_invariants"])
    built = _count_calls(monkeypatch, lattice, ["gamma16"])
    calls = (["classify"], ["verify", "--type", "B"], ["verify", "--all"], ["smooth", "--type", "A1"])
    for argv in calls:
        sweep["_scaled_invariants"] = built["gamma16"] = 0
        assert cli.run(argv)[0] == 0, argv
        assert (sweep["_scaled_invariants"], built["gamma16"]) == (325, 0), argv


def test_verify_record_products_lead_with_the_sparse_factor(monkeypatch):
    # a product costs one row operation per nonzero entry of its left factor,
    # so each of a record's four products leads with the action's sparse
    # columns (the rows of its transpose) or the sparse kernel rows; the
    # action is scanned once per lattice
    from k3z3 import classify, linalg

    from _oracles import congruence

    lefts = []
    products = linalg._row_products

    def spy(rows, b, m):
        lefts.append(rows)
        return products(rows, b, m)

    inputs = [(t, lattice.assemble_type_lattice(t)) for t in classify.enumerate_action_types()]
    t, L = inputs[-1]
    gram, action = L.gram.tolist(), L.action.tolist()
    congruence(gram, action, random.Random(14), 8)
    inputs.append((t, GLattice(gram, action, label="basis change")))
    for t, L in inputs:
        lefts.clear()
        misses = lattice._action_columns.cache_info().misses
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_row_products", spy)
            assert cli._verification_record(t, L)["_passed"]
        assert len(lefts) == 4, L.label
        assert lattice._action_columns.cache_info().misses == misses + 1, L.label
        basis = linalg.rational_kernel(L.action - linalg.identity(L.rank))
        sparse = [linalg._columns(L.action), linalg._columns(basis)]
        # the fixed form's two products, then the isometry check's two
        got = [[*map(list, left)] for left in lefts]
        assert got == [sparse[1], sparse[1], sparse[0], sparse[0]], L.label


def test_verify_record_reaches_every_traced_name(bench_common, monkeypatch):
    # the benchmark times these functions by name, as module attributes; a
    # record that stops calling one loses that per-layer metric
    from k3z3 import classify, linalg

    calls = _count_calls(monkeypatch, lattice, bench_common.LATTICE_CALLS)
    for t in classify.enumerate_action_types():
        L = lattice.assemble_type_lattice(t)
        calls.update(dict.fromkeys(calls, 0))
        assert cli._verification_record(t, L)["_passed"]
        assert all(calls.values()), (t.name, calls)
    assert {"signature", "fixed_sublattice"} <= set(calls)
    for name in bench_common.LINALG_PASS:
        assert name == "matmul3" or callable(getattr(linalg, name, None)), name


def test_deep_records_match_the_smith_kernel_route(monkeypatch):
    # 128-step basis changes of each model and one perturbed input: the
    # fixed form from the rational kernel gives the record that the
    # saturated Smith-form kernel gives
    from k3z3 import classify, linalg

    from _oracles import congruence, saturated_fixed_sublattice

    rng = random.Random(128)
    inputs = []
    for t in classify.enumerate_action_types():
        L = lattice.assemble_type_lattice(t)
        gram, action = L.gram.tolist(), L.action.tolist()
        congruence(gram, action, rng, 128)
        inputs.append((t, gram, action))
    t, gram, action = inputs[-1]
    action = [row[:] for row in action]
    action[rng.randrange(22)][rng.randrange(22)] += rng.choice((-1, 1))
    inputs.append((t, gram, action))
    records = [cli._verification_record(t, GLattice(gram, action)) for t, gram, action in inputs]
    assert [rec["order3"] for rec in records] == [True] * 4 + [False]
    monkeypatch.setattr(lattice, "fixed_sublattice", saturated_fixed_sublattice)
    for rec, (t, gram, action) in zip(records, inputs):
        assert rec == cli._verification_record(t, GLattice(gram, action))  # fresh, so recomputed
        assert rec["det"] == linalg.bareiss_determinant(gram)


# sha256 over the records of the seeded benchmark stream (seed 1), one
# compact JSON list of RECORD_KEYS per record: (steps, inputs) -> digest
RECORD_KEYS = (
    "type rank det even isometry order3 signature fixed_signature decomposition "
    "rep gsf lefschetz _passed"
).split()
RECORD_DIGESTS = {
    (8, 300): "fdf8dfba8a7db7f04a10208b5b6e65da3070fd70699f77e66370a4fa160ff6e5",
    (64, 60): "2c2de9a857ecc195d67737bfd8dd902446d7e84b215a45e6b98b960993e438f6",
    (128, 60): "a8298bd6ef2341a1ba2c66b6aae32a6f0eca8ed663062cfb6550ba207c7c52b3",
}


def test_seeded_records_are_pinned():
    # every field of every record, the perturbed tenth included, at three depths
    import hashlib

    from k3z3 import classify

    from _oracles import seeded_lattice_inputs

    types = {t.name: t for t in classify.enumerate_action_types()}
    for (steps, count), digest in RECORD_DIGESTS.items():
        h = hashlib.sha256()
        for name, gram, action in seeded_lattice_inputs(1, steps, count):
            L = GLattice(gram, action)
            rec = cli._verification_record(types[name], L)
            line = json.dumps([rec[k] for k in RECORD_KEYS], separators=(",", ":"))
            h.update(f"{line}\n".encode())
            # a decomposition is missing exactly when the order is not 3; for
            # order 3, Z and Z[G] each fix one line and Z[zeta] none
            assert (rec["decomposition"] is None) == (not rec["order3"])
            if rec["order3"]:
                dec = rec["decomposition"]
                assert dec["a"] + dec["c"] == lattice.fixed_sublattice(L)[0].shape[1]
        assert h.hexdigest() == digest, steps


def _a1_bumped(field):
    """The forms of the A1 model, with entry (0, 0) of `field` raised by 1."""
    L = lattice.assemble_type_lattice(action_type("A1"))
    rows = getattr(L, field).tolist()
    rows[0][0] += 1
    return {"gram": L.gram, "action": L.action, field: rows}


# records of lattices that fail the audit, as computed with the fixed
# signature taken from the Smith-form kernel of g - 1; another route to the
# fixed signature must keep these bytes
FAILING = {
    "A1_action_entry_plus_one": (
        _a1_bumped("action"),
        {
            "type": "A1", "rank": 22, "det": -1, "even": True, "isometry": False, "order3": False,
            "signature": [3, 19], "fixed_signature": [2, 8], "decomposition": None,
            "rep": False, "gsf": False, "lefschetz": False,
            "_symmetric": True, "_unimodular": True, "_passed": False,
        },
    ),
    "rot4": (
        {"gram": [[1, 0], [0, 1]], "action": [[0, -1], [1, 0]]},
        {
            "type": "A1", "rank": 2, "det": 1, "even": False, "isometry": True, "order3": False,
            "signature": [2, 0], "fixed_signature": [0, 0], "decomposition": None,
            "rep": False, "gsf": False, "lefschetz": False,
            "_symmetric": True, "_unimodular": True, "_passed": False,
        },
    ),
    "swap_on_diag_2_minus_2": (
        {"gram": [[2, 0], [0, -2]], "action": [[0, 1], [1, 0]]},
        {
            "type": "A1", "rank": 2, "det": -4, "even": True, "isometry": False, "order3": False,
            "signature": [1, 1], "fixed_signature": [0, 0], "decomposition": None,
            "rep": False, "gsf": False, "lefschetz": False,
            "_symmetric": True, "_unimodular": False, "_passed": False,
        },
    ),
    "A1_odd_gram_corner": (
        _a1_bumped("gram"),
        {
            "type": "A1", "rank": 22, "det": -1, "even": False, "isometry": True, "order3": True,
            "signature": [3, 19], "fixed_signature": [3, 9], "decomposition": {"a": 7, "b": 0, "c": 5},
            "rep": True, "gsf": True, "lefschetz": True,
            "_symmetric": True, "_unimodular": True, "_passed": False,
        },
    ),
    # the only records whose determinant comes from Bareiss elimination; the
    # second is an isometry, read through the transposed gram
    "non_symmetric_gram": (
        {"gram": [[0, 1], [2, 0]], "action": [[0, -1], [1, -1]]},
        {
            "type": "A1", "rank": 2, "det": -2, "even": True, "isometry": False, "order3": True,
            "signature": None, "fixed_signature": None, "decomposition": {"a": 0, "b": 1, "c": 0},
            "rep": False, "gsf": False, "lefschetz": False,
            "_symmetric": False, "_unimodular": False, "_passed": False,
        },
    ),
    "non_symmetric_isometry": (
        {"gram": [[1, 2], [3, 4]], "action": [[-1, 0], [0, -1]]},
        {
            "type": "A1", "rank": 2, "det": -2, "even": False, "isometry": True, "order3": False,
            "signature": None, "fixed_signature": None, "decomposition": None,
            "rep": False, "gsf": False, "lefschetz": False,
            "_symmetric": False, "_unimodular": False, "_passed": False,
        },
    ),
}


@pytest.mark.parametrize("name", FAILING)
def test_failing_lattice_records_are_pinned(name):
    forms, want = FAILING[name]
    rec = cli._verification_record(action_type("A1"), GLattice(**forms, label=name))
    assert rec == {**want, "_label": name}


def test_failing_record_text_marks_each_failure():
    forms, _ = FAILING["non_symmetric_isometry"]
    rec = cli._verification_record(action_type("A1"), GLattice(**forms, label="bad"))
    assert cli._render_verify_text(rec) == (
        "type A1  [bad]\n"
        "  rank             2\n"
        "  det              -2\n"
        "  symmetric        FAIL\n"
        "  unimodular       FAIL\n"
        "  even             FAIL\n"
        "  isometry         pass\n"
        "  order 3          FAIL\n"
        "  signature        n/a\n"
        "  fixed signature  n/a\n"
        "  decomposition    n/a\n"
        "  REP              FAIL\n"
        "  GSF              FAIL\n"
        "  Lefschetz        FAIL\n"
        "  note: torsion condition skipped: redundant for order-3 actions\n"
    )


def test_every_bench_call_matches_the_expected_output(bench_common, capsys):
    # perfbench/common.py holds the calls and the checker
    assert len(bench_common.CALLS) == 23
    for key, (argv, _) in bench_common.CALLS.items():
        code, out = cli.run(list(argv))
        err = capsys.readouterr().err
        assert bench_common.check_cli(key, code, out, err) is None, key


def test_verify_exit_code_on_tampered_lattice(monkeypatch):
    original = lattice.assemble_type_lattice

    def tampered(t):
        L = original(t)
        gram = L.gram.tolist()
        gram[0][0] += 1  # odd diagonal entry
        return GLattice(gram, L.action, label="tampered")

    monkeypatch.setattr(lattice, "assemble_type_lattice", tampered)
    code, out = cli.run(["verify", "--type", "A1", "--format", "json"])
    assert code == 1
    rec = json.loads(out)
    assert rec["even"] is False


def test_verify_record_shows_a_planted_rank_fault(monkeypatch):
    # an order-3 action always has a decomposition, so a kernel that miscounts
    # shows its negative count in the record rather than hiding it as null
    from k3z3 import linalg

    rank_mod3 = linalg._rank_mod3
    monkeypatch.setattr(linalg, "_rank_mod3", lambda rows: rank_mod3(rows) + 1)
    code, out = cli.run(["verify", "--type", "A1", "--format", "json"])
    assert code == 1
    rec = json.loads(out)
    assert rec["order3"] is True and rec["rep"] is False
    assert rec["decomposition"] == {"a": 6, "b": -1, "c": 6}


def test_dirac_examples():
    assert run_cli("dirac", "--mplus", "3", "--mminus", "6") == (0, "k = (0, 1, 1)\n")
    code, out = run_cli("dirac", "--mplus", "1", "--mminus", "1")
    assert (code, out) == (2, "")
    code, out = run_cli("dirac", "--mplus", "6", "--mminus", "0", "--format", "json")
    assert json.loads(out) == {"m_plus": 6, "m_minus": 0, "k": [2, 0, 0]}


def test_smooth_standard_surface():
    code, out = run_cli("smooth", "--type", "A1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == [
        "type",
        "surface",
        "k",
        "trivial_on_Hplus",
        "all_small",
        "sw_fact",
        "status",
        "reasons",
    ]
    assert rec["status"] == "UNSMOOTHABLE"
    assert rec["k"] == [0, 1, 1]
    assert rec["surface"] == "standard_k3"
    assert len(rec["reasons"]) == 3


def test_smooth_elliptic_surface():
    code, out = run_cli(
        "smooth", "--type", "A1", "--surface", "e2pq", "--p", "3", "--q", "7", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["surface"] == "E(2)_{3,7}"
    assert rec["status"] == "UNSMOOTHABLE"
    code, out = run_cli("smooth", "--type", "A1", "--surface", "e2pq", "--p", "3", "--q", "6")
    assert (code, out) == (2, "")


def test_smooth_flag_validation():
    assert run_cli("smooth", "--type", "A1", "--surface", "e2pq") == (2, "")
    assert run_cli("smooth", "--type", "A1", "--p", "3") == (2, "")


def test_smooth_text_output():
    code, out = run_cli("smooth", "--type", "B")
    assert code == 0
    assert out.startswith("type B on standard_k3: NOT_APPLICABLE\n")
    assert out.count("\n  - ") == 3


def test_gsig_from_data_string():
    code, out = run_cli("gsig", "--data", "(1,2)x3,(1,1)x6")
    assert code == 0
    assert out == (
        "m+ = 3  m- = 6\n"
        "defect(+) = 1/3 + 0*z3\n"
        "defect(-) = -1/3 + 0*z3\n"
        "Sign(g) = -1\n"
    )


def test_gsig_from_counts_json():
    code, out = run_cli("gsig", "--mplus", "1", "--mminus", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "m_plus": 1,
        "m_minus": 0,
        "defect_plus": "1/3 + 0*z3",
        "defect_minus": "-1/3 + 0*z3",
        "g_signature": "1/3",
    }


def test_gsig_flag_validation():
    assert run_cli("gsig", "--data", "(1,2)x3", "--mplus", "1", "--mminus", "1") == (2, "")
    assert run_cli("gsig", "--mplus", "1") == (2, "")
    assert run_cli("gsig", "--data", "(1,2)x99") == (2, "")


# the last stderr line of each malformed call: argparse's for what the parser
# rejects, the handler's for what it rejects
DIAGNOSTICS = {
    (): "k3z3: error: the following arguments are required: command",
    ("verify",): "k3z3 verify: error: one of the arguments --type --all is required",
    ("dirac", "--mminus", "6"): "k3z3 dirac: error: the following arguments are required: --mplus",
    ("smooth",): "k3z3 smooth: error: the following arguments are required: --type",
    ("smooth", "--type", "A1", "--surface", "e2pq", "--p", "3"): (
        "error: --surface e2pq requires --p and --q"
    ),
    ("gsig", "--mplus", "1"): "error: need --data or both --mplus and --mminus",
    ("gsig", "--data", "(1,2)x3,(1,1)x6", "--mplus", "1"): (
        "error: give either --data or --mplus/--mminus, not both"
    ),
}


@pytest.mark.parametrize("argv", DIAGNOSTICS)
def test_malformed_calls_name_their_fault(argv, capsys):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err.splitlines()[-1] == DIAGNOSTICS[argv]


# lines of each --help text, its usage line among them, with runs of blanks
# read as one space
HELP_LINES = {
    (): {
        "usage: k3z3 [-h] {classify,verify,dirac,smooth,gsig} ...",
        "Exact invariants of pseudofree order-3 symmetries of the K3 surface.",
        "{classify,verify,dirac,smooth,gsig}",
        "classify enumerate the admissible action types",
        "verify audit the rank-22 lattice model of a type",
        "dirac equivariant Dirac index multiplicities",
        "smooth smoothability verdict for a type on a surface",
        "gsig g-signature of arbitrary fixed-point data",
    },
    ("classify",): {
        "usage: k3z3 classify [-h] [--format {text,json,tsv}]",
        "--format {text,json,tsv}",
    },
    ("verify",): {
        "usage: k3z3 verify [-h] (--type {A0,A1,A2,B} | --all) [--format {text,json}]",
        "--type {A0,A1,A2,B}",
        "--all",
        "--format {text,json}",
    },
    ("dirac",): {
        "usage: k3z3 dirac [-h] --mplus MPLUS --mminus MMINUS [--format {text,json}]",
        "--mplus MPLUS",
        "--mminus MMINUS",
        "--format {text,json}",
    },
    ("smooth",): {
        "usage: k3z3 smooth [-h] --type {A0,A1,A2,B} [--surface {standard,e2pq}] [--p P] [--q Q]"
        " [--format {text,json}]",
        "--type {A0,A1,A2,B}",
        "--surface {standard,e2pq}",
        "--p P",
        "--q Q",
        "--format {text,json}",
    },
    ("gsig",): {
        "usage: k3z3 gsig [-h] [--data DATA] [--mplus MPLUS] [--mminus MMINUS]"
        " [--format {text,json}]",
        '--data DATA fixed-point list such as "(1,2)x3,(1,1)x6"',
        "--mplus MPLUS",
        "--mminus MMINUS",
        "--format {text,json}",
    },
}


@pytest.mark.parametrize("argv", HELP_LINES)
def test_help_texts_exit_0(argv, capsys, monkeypatch):
    # the help text is run's output, as any other, and nothing is printed
    monkeypatch.setenv("COLUMNS", "200")  # no help or usage line wraps
    code, out = run_cli(*argv, "--help")
    assert code == 0
    assert capsys.readouterr() == ("", "")
    lines = {" ".join(line.split()) for line in out.splitlines()}
    assert HELP_LINES[argv] <= lines


def test_parser_defaults():
    parse = cli.build_parser().parse_args
    for argv in (
        ["classify"],
        ["verify", "--all"],
        ["dirac", "--mplus", "3", "--mminus", "6"],
        ["smooth", "--type", "A1"],
        ["gsig"],
    ):
        assert parse(argv).format == "text", argv
    assert parse(["smooth", "--type", "A1"]).surface == "standard"


def test_reader_takes_every_passing_bench_call(bench_common):
    for key, argv, _ in bench_common.PASSING:
        args = cli._read(argv)
        assert args is not None, key
        assert vars(args) == vars(cli.build_parser().parse_args(argv)), key


def test_unknown_flags_and_commands_exit_2(capsys):
    assert run_cli("classify", "--bogus")[0] == 2
    assert run_cli("frobnicate")[0] == 2
    assert run_cli()[0] == 2
    capsys.readouterr()  # swallow argparse usage noise


def test_run_returns_output_without_printing():
    code, out = cli.run(["classify", "--format", "tsv"])
    assert code == 0
    assert out.startswith("name\t")
