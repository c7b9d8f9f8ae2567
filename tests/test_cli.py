"""CLI behaviour: deterministic output, documented formats, exit codes.

Most tests drive the in-process entry point cli.run (the subprocess
boundary is exercised once for the module and once for error output).
"""

import json
import subprocess
import sys

from k3z3 import cli, lattice
from k3z3.lattice import GLattice

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
    # dataclasses pulls in inspect, ast, dis and tokenize at every start-up
    code = (
        "import sys\n"
        "import k3z3\n"
        "from k3z3 import cli\n"
        "unwanted = ('numpy', 'dataclasses', 'inspect')\n"
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


def test_verify_record_runs_one_smith_form(monkeypatch):
    # the kernel budget of one record; each form and the order-3 product are
    # computed once per lattice, however often the checks ask for them
    from k3z3 import classify, linalg

    budget = {"smith_normal_form": 1, "bareiss_determinant": 1, "inertia": 2, "rank_mod3": 1}
    calls = dict.fromkeys(budget, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in budget:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    for t in classify.enumerate_action_types():
        L = lattice.assemble_type_lattice(t)  # fresh, so nothing is memoized for it
        calls.update(dict.fromkeys(budget, 0))
        assert cli._verification_record(t, L)["_passed"]
        assert calls == budget, t.name


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


def test_unknown_flags_and_commands_exit_2(capsys):
    assert run_cli("classify", "--bogus")[0] == 2
    assert run_cli("frobnicate")[0] == 2
    assert run_cli()[0] == 2
    capsys.readouterr()  # swallow argparse usage noise


def test_run_returns_output_without_printing():
    code, out = cli.run(["classify", "--format", "tsv"])
    assert code == 0
    assert out.startswith("name\t")
