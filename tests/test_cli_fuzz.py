"""Fuzzed argv through the in-process CLI: exit codes stay 0, 1 or 2."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from k3z3 import cli  # noqa: E402

# one well-formed call per subcommand and flag set; the fuzzer mutates these
WELL_FORMED = (
    ("classify", "--format", "tsv"),
    ("verify", "--type", "B", "--format", "json"),
    ("verify", "--all"),
    ("dirac", "--mplus", "3", "--mminus", "6"),
    ("smooth", "--type", "A1"),
    ("smooth", "--type", "A1", "--surface", "e2pq", "--p", "2", "--q", "3"),
    ("gsig", "--data", "(1,2)x3,(1,1)x6"),
    ("gsig", "--mplus", "0", "--mminus", "12", "--format", "json"),
)
# every flag, subcommand and choice above
TOKENS = sorted({tok for argv in WELL_FORMED for tok in argv if not tok[-1].isdigit()})
INTS = st.one_of(st.integers(0, 24), st.integers(-5, -1), st.integers(-(10**30), 10**30)).map(str)
DATA = st.text(alphabet="()0123456789x,", max_size=24)
JUNK = st.text(max_size=8)
ANY = st.one_of(st.sampled_from(TOKENS), INTS, DATA, JUNK)


@st.composite
def argvs(draw):
    """A well-formed call after up to three mutations: an int or --data
    value redrawn, a token replaced or dropped, a stray token inserted."""
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("redraw", "replace", "drop", "insert")))
        if kind == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(ANY))
            continue
        if not argv:
            continue
        i = draw(st.integers(0, len(argv) - 1))
        if kind == "redraw" and argv[i][-1:].isdigit():
            argv[i] = draw(DATA if argv[i].startswith("(") else INTS)
        elif kind == "replace":
            argv[i] = draw(ANY)
        elif kind == "drop":
            del argv[i]
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_cli_exit_codes_under_fuzzed_argv(argv):
    code, out = cli.run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv


def _reader_agrees(argv) -> bool:
    """Whether the direct reader takes argv; when it does, argparse gives the same namespace."""
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv
    return args is not None


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_reader_agrees_with_argparse(argv):
    _reader_agrees(argv)


def _dirac(mplus):
    return ("dirac", "--mplus", mplus, "--mminus", "6")


# argv -> whether the reader takes it; argparse has the last word on the rest
EDGES = {
    _dirac("+3"): True,
    _dirac(" 3"): True,
    _dirac("３"): True,  # full-width 3
    _dirac("-3"): False,
    _dirac("²"): False,  # superscript 2: isdigit, but int() refuses it
    _dirac("9" * 5000): False,  # past int()'s digit limit
    ("dirac", "--mplus", "3", "--mplus", "3", "--mminus", "6"): False,
    ("classify", "--format=json"): False,
    ("classify", "--form", "json"): False,
    ("verify", "--type", "A0", "--all"): False,
    ("verify", "--all", "--all"): False,
    ("gsig", "--data"): False,
    ("smooth",): False,
}
EDGES.update(
    {argv[:i] + ("-h",) + argv[i:]: False for argv in WELL_FORMED for i in range(len(argv) + 1)}
)


@pytest.mark.parametrize("argv", [*WELL_FORMED, *EDGES])
def test_reader_edge_cases(argv, capsys):
    assert _reader_agrees(list(argv)) == EDGES.get(argv, True)
    code, out = cli.run(list(argv))
    assert code in (0, 1, 2) and (code != 2 or out == "")
    capsys.readouterr()
