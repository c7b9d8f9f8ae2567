"""Properties of the package source itself."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "k3z3").glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; a self-check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def test_no_source_line_passes_100_columns():
    long = [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert SOURCES and not long


def test_cli_imports_no_rational_arithmetic(run_python):
    # the CLI computes on ints: Q(zeta) and Fraction stay out of its process
    code = (
        "import sys, k3z3.cli\n"
        "print(sorted({'fractions', 'decimal', 'numbers', 'k3z3.cyclotomic'} & set(sys.modules)))\n"
    )
    (result,) = run_python([["-c", code]])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_k3z3_loads_no_submodule_and_resolves_names_on_first_use(run_python):
    code = (
        "import sys, k3z3\n"
        "print(sorted(m for m in sys.modules if m.startswith('k3z3.')))\n"
        "homes = {n: getattr(k3z3, n).__module__ for n in k3z3.__all__}\n"
        "print(sorted(set(homes.values())))\n"
        "print(all(getattr(k3z3, n) is getattr(sys.modules[m], n) for n, m in homes.items()))\n"
        "print(k3z3.gamma16 is sys.modules['k3z3.lattice'].gamma16)\n"
        "print(set(k3z3.__all__) <= set(dir(k3z3)), '__version__' in dir(k3z3))\n"
        "star = {}\n"
        "exec('from k3z3 import *', star)\n"
        "print(set(k3z3.__all__) <= set(star))\n"
        "try:\n"
        "    k3z3.nosuch\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    (result,) = run_python([["-c", code]])  # a new interpreter: no test has imported anything
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]",
        "['k3z3.classify', 'k3z3.fixed_data', 'k3z3.lattice', 'k3z3.obstruction']",
        "True",
        "True",
        "True True",
        "True",
        "module 'k3z3' has no attribute 'nosuch'",
    ]


def test_each_subcommand_loads_only_what_it_runs(run_python):
    # classify is loaded by the subcommands that read the action types,
    # obstruction only by smooth, lattice and its linalg only by verify
    watched = ("k3z3.classify", "k3z3.obstruction", "k3z3.lattice", "k3z3.linalg")
    calls = {
        "classify": ["k3z3.classify"],
        "verify --type A1": ["k3z3.classify", "k3z3.lattice", "k3z3.linalg"],
        "dirac --mplus 3 --mminus 6": [],
        "gsig --data (1,2)x3,(1,1)x6": [],
        "smooth --type A1": ["k3z3.classify", "k3z3.obstruction"],
    }
    code = (
        "import sys\n"
        "from k3z3 import cli\n"
        "exit_code = cli.run(sys.argv[1:])[0]\n"
        f"print(exit_code, [m for m in {watched!r} if m in sys.modules])\n"
    )
    results = run_python([["-c", code, *argv.split()] for argv in calls])
    for (argv, loaded), result in zip(calls.items(), results):
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [f"0 {loaded}"], argv


def test_argparse_loads_only_to_parse_a_command_line(run_python):
    # records and spelled-out calls load no argument parser, nor gettext or
    # locale; --help and an argv the reader declines go through argparse
    parsing = "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    code = (
        "import sys\n"
        "from k3z3 import classify, cli, lattice\n"
        "for t in classify.enumerate_action_types():\n"
        "    cli._render_verify_text(cli._verification_record(t, lattice.assemble_type_lattice(t)))\n"
        f"{parsing}"
        "for argv in (['classify', '--format', 'json'], ['verify', '--all'],\n"
        "             ['dirac', '--mplus', '3', '--mminus', '6'], ['gsig', '--data', '(1,2)x3'],\n"
        "             ['smooth', '--type', 'A1', '--surface', 'e2pq', '--p', '3', '--q', '7']):\n"
        "    print(cli.run(argv)[0], end=' ')\n"
        f"{parsing}"
    )
    declined = "import sys\nfrom k3z3 import cli\nprint(cli.run(sys.argv[1:])[0], 'argparse' in sys.modules)\n"
    cases = ((["--help"], 0), (["verify", "--type", "Q"], 2))
    first, *results = run_python([["-c", code], *(["-c", declined, *argv] for argv, _ in cases)])
    assert first.returncode == 0, first.stderr
    assert first.stdout.splitlines() == ["[]", "0 0 0 0 0 []"]
    for result, (argv, exit_code) in zip(results, cases):
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"{exit_code} True", argv


def test_no_module_imports_future(run_python):
    # `from __future__ import annotations` imports the __future__ module at run time
    code = "import sys\nfrom k3z3 import classify, cli, lattice\nprint('__future__' in sys.modules)\n"
    fresh, result = run_python([["-c", code], ["-X", "importtime", "-m", "k3z3", "classify"]])
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines() == ["False"]
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert result.returncode == 0 and "k3z3.cli" in imported
    assert not {"__future__", "argparse"} & imported
    future = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ]
    assert future == []


def test_verify_record_runs_no_import_statement():
    # a record is the verify_shallow op: the modules it reads are bound at import
    def imports(tree):
        return any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))

    src = SOURCES[0].parent
    cli = ast.parse((src / "cli.py").read_text())
    (record,) = [f for f in cli.body if isinstance(f, ast.FunctionDef) and f.name == "_verification_record"]
    lattice = ast.parse((src / "lattice.py").read_text())
    functions = [node for node in ast.walk(lattice) if isinstance(node, ast.FunctionDef)]
    assert functions and [f.name for f in (record, *functions) if imports(f)] == []


def test_only_conftest_imports_subprocess():
    # every test starts its interpreters through the conftest fixture run_python
    found = [
        path.name
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and "subprocess" in (alias.name for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "subprocess"
    ]
    assert found == ["conftest.py"]


def test_the_package_caches_only_per_lattice_results_and_identity():
    # one caching story: per-lattice results in lru_cache(maxsize=8) keyed on
    # the GLattice, and the shared identity(n).  The checks read verify_lattice
    # rather than caching results of their own; the action's sparse columns and
    # those of g - 1 are cached, from one scan, so that the audit's kernels and
    # the fixed sublattice share them.  The four-type sweep and the Gamma16
    # blocks are built once by their callers, not memoized.
    import importlib

    caches, walked = {}, []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the CLI; it defines nothing
            tree = ast.parse(path.read_text())
            assert not any(isinstance(node, ast.FunctionDef | ast.ClassDef) for node in tree.body)
            continue
        name = "k3z3" if path.stem == "__init__" else f"k3z3.{path.stem}"
        module = importlib.import_module(name)
        walked.append(name)
        members = [*vars(module).values()]
        members += [v for c in members if isinstance(c, type) for v in vars(c).values()]
        for obj in members:
            obj = getattr(obj, "__func__", getattr(obj, "fget", obj))  # methods, properties
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                caches[f"{name}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert len(walked) == len(SOURCES) - 1
    assert caches == {
        "k3z3.lattice._action_columns": 8,
        "k3z3.lattice.verify_lattice": 8,
        "k3z3.linalg.identity": None,
    }
