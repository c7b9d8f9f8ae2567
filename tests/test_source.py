"""Properties of the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "k3z3").glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; a self-check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def test_cli_imports_no_rational_arithmetic():
    # the CLI computes on ints: Q(zeta) and Fraction stay out of its process
    code = (
        "import sys, k3z3.cli\n"
        "print(sorted({'fractions', 'decimal', 'numbers', 'k3z3.cyclotomic'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
