"""CLI behaviour: deterministic output, documented formats, exit codes.

Most tests drive the in-process entry point cli.run (the subprocess
boundary is exercised once for the module and once for error output).
"""

import importlib.util
import json
import random
import subprocess
import sys
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


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "k3z3", "classify", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == CLASSIFY_TEXT
    assert result.stderr == ""


def test_cli_module_runs_as_a_script():
    result = subprocess.run(
        [sys.executable, "-m", "k3z3.cli", "classify"], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, CLASSIFY_TEXT, "")


def test_error_diagnostics_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "k3z3", "dirac", "--mplus", "1", "--mminus", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no consistent spin lift" in result.stderr


def test_no_subcommand_loads_numpy():
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
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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


def test_internal_error_exit_code_subprocess():
    code = (
        "import sys\n"
        "from k3z3 import cli\n"
        "def fault(*args):\n"
        "    raise ArithmeticError('planted fault')\n"
        "cli.dirac_coefficients = fault\n"
        "sys.exit(cli.main(['dirac', '--mplus', '3', '--mminus', '6']))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
    # the kernel budget of one record: two symmetric eliminations (the form,
    # which also gives the determinant, and the fixed form; counted where
    # both run, behind the symmetry guard or not), one order-3 check, one
    # rational kernel and one rank mod 3; each is computed once per lattice,
    # however often the checks ask for it
    from k3z3 import classify, linalg

    budget = {
        "smith_normal_form": 0,
        "integer_kernel": 0,
        "bareiss_determinant": 0,
        "_inertia_and_determinant": 2,
        "cube_is_identity": 1,
        "rational_kernel": 1,
        "rank_mod3": 1,
    }
    calls = _count_calls(monkeypatch, linalg, budget)
    for t in classify.enumerate_action_types():
        L = lattice.assemble_type_lattice(t)  # fresh, so nothing is memoized for it
        calls.update(dict.fromkeys(budget, 0))
        assert cli._verification_record(t, L)["_passed"]
        assert calls == budget, t.name


def test_verify_record_products_lead_with_the_sparse_factor(bench_common, monkeypatch):
    # a product costs one row operation per nonzero entry of its left factor,
    # so each of a record's four products leads with the transposed action
    # or the transposed kernel basis; g - 1 is built once per lattice
    from k3z3 import classify, linalg

    lefts = []
    matmul = linalg.Matrix.__matmul__

    def spy_matmul(self, other):
        lefts.append(self)
        return matmul(self, other)

    inputs = [(t, lattice.assemble_type_lattice(t)) for t in classify.enumerate_action_types()]
    t, L = inputs[-1]
    gram, action = L.gram.tolist(), L.action.tolist()
    bench_common._congruence(gram, action, random.Random(14), 8)
    inputs.append((t, GLattice(gram, action, label="basis change")))
    for t, L in inputs:
        lefts.clear()
        misses = lattice._action_minus_identity.cache_info().misses
        with monkeypatch.context() as mp:
            mp.setattr(linalg.Matrix, "__matmul__", spy_matmul)
            assert cli._verification_record(t, L)["_passed"]
        assert len(lefts) == 4, L.label
        assert lattice._action_minus_identity.cache_info().misses == misses + 1, L.label
        basis = linalg.rational_kernel(L.action - linalg.identity(L.rank))
        assert all(left in (L.action.T, basis.T) for left in lefts), L.label


@pytest.fixture(scope="module")
def bench_common():
    """perfbench/common.py, read in place without writing bytecode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_common", PERFBENCH / "common.py")
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
    return common


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
    models = {}
    for name, t in types.items():
        L = lattice.assemble_type_lattice(t)
        models[name] = (L.gram.tolist(), L.action.tolist())
    for (steps, count), digest in RECORD_DIGESTS.items():
        h = hashlib.sha256()
        for name, gram, action in seeded_lattice_inputs(1, models, steps, count):
            rec = cli._verification_record(types[name], GLattice(gram, action))
            line = json.dumps([rec[k] for k in RECORD_KEYS], separators=(",", ":"))
            h.update(f"{line}\n".encode())
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


# lines of each --help text, with runs of blanks read as one space
HELP_LINES = {
    (): {
        "Exact invariants of pseudofree order-3 symmetries of the K3 surface.",
        "{classify,verify,dirac,smooth,gsig}",
        "classify enumerate the admissible action types",
        "verify audit the rank-22 lattice model of a type",
        "dirac equivariant Dirac index multiplicities",
        "smooth smoothability verdict for a type on a surface",
        "gsig g-signature of arbitrary fixed-point data",
    },
    ("classify",): {"--format {text,json,tsv}"},
    ("verify",): {"--type {A0,A1,A2,B}", "--all", "--format {text,json}"},
    ("dirac",): {"--mplus MPLUS", "--mminus MMINUS", "--format {text,json}"},
    ("smooth",): {
        "--type {A0,A1,A2,B}",
        "--surface {standard,e2pq}",
        "--p P",
        "--q Q",
        "--format {text,json}",
    },
    ("gsig",): {
        '--data DATA fixed-point list such as "(1,2)x3,(1,1)x6"',
        "--mplus MPLUS",
        "--mminus MMINUS",
        "--format {text,json}",
    },
}


@pytest.mark.parametrize("argv", HELP_LINES)
def test_help_texts_exit_0(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # no help line wraps
    assert run_cli(*argv, "--help") == (0, "")
    lines = {" ".join(line.split()) for line in capsys.readouterr().out.splitlines()}
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


def test_reader_table_matches_the_parser():
    # a flag, default or required set added to build_parser and not to the
    # reader's table, or the reverse, fails here
    import argparse

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for a in parser._actions] == ["help", "command"]
    assert sub.choices.keys() == cli._CALLS.keys()
    for name, p in sub.choices.items():
        handler, flags, groups = cli._CALLS[name]
        assert p._defaults == {"handler": handler}, name
        options = {a.option_strings[-1]: a for a in p._actions if a.dest != "help"}
        assert options.keys() == flags.keys(), name
        for flag, a in options.items():
            dest, default, kind = flags[flag]
            choices = kind if isinstance(kind, tuple) else None
            want = (dest, default, choices, kind if kind is int else None, kind is None)
            assert (a.dest, a.default, a.choices, a.type, a.nargs == 0) == want, (name, flag)
        required = [{flag} for flag, a in options.items() if a.required]
        for group in p._mutually_exclusive_groups:
            assert group.required, name
            required.append({a.option_strings[-1] for a in group._group_actions})
        assert sorted(map(sorted, required)) == sorted(map(sorted, groups)), name


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
