"""Command-line interface: deterministic reports over the exact kernels.

Every subcommand is a pure function of its flags: repeated invocations
produce byte-identical output.  Exit codes: 0 on success, 1 when a
verification check fails or the output cannot be written, 2 on malformed
input and 3 on an internal error such as a failed self-check (a failed
write, 2 and 3 with a one-line diagnostic on stderr; a stderr that is
closed or cannot take the line loses it, and the code stays).  `_CALLS` is
the one declaration of the command line: `_read` reads spelled-out calls
from it, and `build_parser`, the only importer of `argparse`, renders it for
every other argv, `--help` among them, so that records and spelled-out calls
load no argument parser while argparse stays the one source of help texts
and diagnostics.  No module of the package imports `__future__`.

`run` returns the output, help text included, and prints nothing on
stdout: `main` is its one writer.  `run` and `main` return to their
caller.  A process started for one call, `python -m k3z3`,
`python -m k3z3.cli` or the `k3z3` script, ends through `process_main`:
the output is flushed, the atexit handlers run, and `os._exit` skips the
interpreter's teardown.
"""

import atexit
import errno
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .fixed_data import FixedPointData, dirac_coefficients, parse_fixed_data

if TYPE_CHECKING:
    import argparse

    from . import classify, lattice

TYPE_NAMES = ("A0", "A1", "A2", "B")


def _dumps(obj) -> str:
    import json  # only JSON output pays for it

    return json.dumps(obj, indent=2) + "\n"


def _align(rows: list[tuple[str, ...]]) -> str:
    """Column-aligned text table; first column left, the rest right."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> tuple[int, str]:
    from . import classify  # each subcommand imports only what it runs

    rows = classify.enumerate_action_types()
    if args.format == "json":
        return 0, _dumps([t._asdict() for t in rows])
    if args.format == "tsv":
        lines = ["\t".join(rows[0]._fields)]
        lines += ["\t".join(map(str, t)) for t in rows]
        return 0, "\n".join(lines) + "\n"
    table = [("Type", "#X^G", "m+", "m-", "b2^G", "b+^G", "b-^G", "Sign(X/G)")]
    table += [tuple(map(str, t[:8])) for t in rows]  # every field but euler_quotient
    return 0, _align(table)


# ---------------------------------------------------------------------------
# verify


def _verification_record(t: "classify.ActionType", L: "lattice.GLattice") -> dict:
    lattice = sys.modules[f"{__package__}.lattice"]  # loaded by whoever built L: no import here
    report = lattice.verify_lattice(L)
    sig, fsig, dec = report.signature, report.fixed_signature, report.decomposition
    record = {
        "type": t.name,
        "rank": L.rank,
        "det": report.det,
        "even": report.even,
        "isometry": report.isometry,
        "order3": report.order3,
        "signature": None if sig is None else list(sig[:2]),
        "fixed_signature": None if fsig is None else list(fsig[:2]),
        "decomposition": None if dec is None else dec._asdict(),
    }
    for key, check, argument in (
        ("rep", lattice.check_rep, t.fixed_count),
        ("gsf", lattice.check_gsf, t.data),
        ("lefschetz", lattice.check_lefschetz, t.fixed_count),
    ):
        try:
            record[key] = check(L, argument)
        except ValueError:
            record[key] = False
    record["_label"] = L.label
    record["_symmetric"] = report.symmetric
    record["_unimodular"] = report.unimodular
    record["_passed"] = report.passed and record["rep"] and record["gsf"] and record["lefschetz"]
    return record


def _fmt_check(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _render_verify_text(rec: dict) -> str:
    sig = rec["signature"]
    fsig = rec["fixed_signature"]
    dec = rec["decomposition"]
    lines = [
        f"type {rec['type']}  [{rec['_label']}]",
        f"  rank             {rec['rank']}",
        f"  det              {rec['det']}",
        f"  symmetric        {_fmt_check(rec['_symmetric'])}",
        f"  unimodular       {_fmt_check(rec['_unimodular'])}",
        f"  even             {_fmt_check(rec['even'])}",
        f"  isometry         {_fmt_check(rec['isometry'])}",
        f"  order 3          {_fmt_check(rec['order3'])}",
        f"  signature        {tuple(sig) if sig else 'n/a'}",
        f"  fixed signature  {tuple(fsig) if fsig else 'n/a'}",
        f"  decomposition    {'a=%d b=%d c=%d' % (dec['a'], dec['b'], dec['c']) if dec else 'n/a'}",
        f"  REP              {_fmt_check(rec['rep'])}",
        f"  GSF              {_fmt_check(rec['gsf'])}",
        f"  Lefschetz        {_fmt_check(rec['lefschetz'])}",
        "  note: torsion condition skipped: redundant for order-3 actions",
    ]
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    from . import classify, lattice  # only verify loads lattice and linalg

    types = (
        classify.enumerate_action_types() if args.all else [classify.action_type(args.type_name)]
    )
    records = [_verification_record(t, lattice.assemble_type_lattice(t)) for t in types]
    code = 0 if all(rec["_passed"] for rec in records) else 1
    if args.format == "json":
        public = [{k: v for k, v in rec.items() if not k.startswith("_")} for rec in records]
        return code, _dumps(public if args.all else public[0])
    return code, "\n".join(_render_verify_text(rec) for rec in records)


# ---------------------------------------------------------------------------
# dirac / smooth / gsig


def _cmd_dirac(args) -> tuple[int, str]:
    data = FixedPointData(args.mplus, args.mminus)
    k = dirac_coefficients(data)
    if args.format == "json":
        return 0, _dumps({"m_plus": data.m_plus, "m_minus": data.m_minus, "k": list(k)})
    return 0, f"k = ({k.k0}, {k.k1}, {k.k2})\n"


def _cmd_smooth(args) -> tuple[int, str]:
    from . import classify, obstruction

    t = classify.action_type(args.type_name)
    if args.surface == "standard":
        if args.p is not None or args.q is not None:
            raise ValueError("--p/--q apply only to --surface e2pq")
        surface = obstruction.SurfaceModel.standard()
    else:
        if args.p is None or args.q is None:
            raise ValueError("--surface e2pq requires --p and --q")
        surface = obstruction.SurfaceModel.elliptic(args.p, args.q)
    v = obstruction.verdict(t, surface)
    if args.format == "json":
        return 0, _dumps(
            {
                "type": t.name,
                "surface": str(surface),
                "k": list(v.k),
                "trivial_on_Hplus": v.trivial_on_Hplus,
                "all_small": v.all_small,
                "sw_fact": v.sw_fact,
                "status": v.status.value,
                "reasons": list(v.reasons),
            }
        )
    lines = [f"type {t.name} on {surface}: {v.status.value}"]
    lines += [f"  - {reason}" for reason in v.reasons]
    return 0, "\n".join(lines) + "\n"


def _thirds(n: int) -> str:
    """n/3 in lowest terms, written as str(Fraction(n, 3)) writes it."""
    q, r = divmod(n, 3)
    return f"{n}/3" if r else str(q)


def _cmd_gsig(args) -> tuple[int, str]:
    by_counts = args.mplus is not None or args.mminus is not None
    if args.data is not None and by_counts:
        raise ValueError("give either --data or --mplus/--mminus, not both")
    if args.data is not None:
        data = parse_fixed_data(args.data)
    elif args.mplus is not None and args.mminus is not None:
        data = FixedPointData(args.mplus, args.mminus)
    else:
        raise ValueError("need --data or both --mplus and --mminus")
    plus, minus = f"{_thirds(1)} + 0*z3", f"{_thirds(-1)} + 0*z3"
    value = _thirds(data.difference)
    if args.format == "json":
        return 0, _dumps(
            {
                "m_plus": data.m_plus,
                "m_minus": data.m_minus,
                "defect_plus": plus,
                "defect_minus": minus,
                "g_signature": value,
            }
        )
    return 0, (
        f"m+ = {data.m_plus}  m- = {data.m_minus}\n"
        f"defect(+) = {plus}\n"
        f"defect(-) = {minus}\n"
        f"Sign(g) = {value}\n"
    )


# ---------------------------------------------------------------------------
# driver


# The command line: per subcommand, its handler, its help text, each flag's
# (dest, default, kind, help) and the flag sets of which a call names exactly
# one.  kind is int, str, a tuple of choices, or None for a switch.
_FORMAT = ("format", "text", ("text", "json"), None)
_COUNTS = {"--mplus": ("mplus", None, int, None), "--mminus": ("mminus", None, int, None)}
_TYPE = {"--type": ("type_name", None, TYPE_NAMES, None)}
_CALLS = {
    "classify": (
        _cmd_classify,
        "enumerate the admissible action types",
        {"--format": ("format", "text", ("text", "json", "tsv"), None)},
        (),
    ),
    "verify": (
        _cmd_verify,
        "audit the rank-22 lattice model of a type",
        {**_TYPE, "--all": ("all", False, None, None), "--format": _FORMAT},
        ({"--type", "--all"},),
    ),
    "dirac": (
        _cmd_dirac,
        "equivariant Dirac index multiplicities",
        {**_COUNTS, "--format": _FORMAT},
        ({"--mplus"}, {"--mminus"}),
    ),
    "smooth": (
        _cmd_smooth,
        "smoothability verdict for a type on a surface",
        {
            **_TYPE,
            "--surface": ("surface", "standard", ("standard", "e2pq"), None),
            "--p": ("p", None, int, None),
            "--q": ("q", None, int, None),
            "--format": _FORMAT,
        },
        ({"--type"},),
    ),
    "gsig": (
        _cmd_gsig,
        "g-signature of arbitrary fixed-point data",
        {
            "--data": ("data", None, str, 'fixed-point list such as "(1,2)x3,(1,1)x6"'),
            **_COUNTS,
            "--format": _FORMAT,
        },
        (),
    ),
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only parsing a command line pays for it (and for gettext)

    parser = argparse.ArgumentParser(
        prog="k3z3",
        description="Exact invariants of pseudofree order-3 symmetries of the K3 surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse's keywords for each kind of flag but a tuple of choices
    keywords = {None: {"action": "store_true"}, int: {"type": int}, str: {}}
    for name, (handler, summary, flags, groups) in _CALLS.items():
        p = sub.add_parser(name, help=summary)
        owner = dict.fromkeys(flags, p)
        for group in groups:  # one flag is a required flag, more an exclusive group
            if len(group) > 1:
                owner.update(dict.fromkeys(group, p.add_mutually_exclusive_group(required=True)))
        for flag, (dest, default, kind, text) in flags.items():
            kw = dict(keywords.get(kind, {"choices": kind}), dest=dest, default=default, help=text)
            owner[flag].add_argument(flag, required={flag} in groups, **kw)
        p.set_defaults(handler=handler)
    return parser


def _read(argv: list) -> SimpleNamespace | None:
    """The namespace build_parser would give for `argv`, or None to decline:
    every flag spelled out and named at most once, no value starting with
    `-`, every int and choice converting and each required set met."""
    if not argv or argv[0] not in _CALLS:
        return None
    handler, _, flags, groups = _CALLS[argv[0]]
    values = {dest: default for dest, default, _, _ in flags.values()}
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, _, kind, _ = flags[flag]
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:  # "²" and ints of over 4300 digits among them
                return None
        values[dest] = value
    if any(len(seen & group) != 1 for group in groups):
        return None
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def _diagnostic(line: str) -> None:
    """Print one line on stderr, if there is a stderr that can take it: the
    exit code tells the outcome either way."""
    if sys.stderr is not None:  # None for a process started with fd 2 closed
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def run(argv=None) -> tuple[int, str]:
    """Parse and execute; returns (exit_code, stdout text) and writes only
    diagnostics.  Any argv that `_read` declines, `--help`, abbreviations and
    `--flag=value` among them, goes to argparse, whose help text is returned
    as the output; its error messages go to stderr."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()) as text:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:  # argparse exits 0 after its help, 2 after its error
                return exc.code, text.getvalue()
    try:
        return args.handler(args)
    except ValueError as exc:
        _diagnostic(f"error: {exc}")
        return 2, ""
    except Exception as exc:  # a bug or a failed self-check, not the input
        _diagnostic(f"internal error: {type(exc).__name__}: {exc}")
        return 3, ""


def main(argv=None) -> int:
    """Run and write the output; returns the exit code, 1 if stdout cannot
    take the output (a closed pipe, a full disk, or no stdout at all)."""
    code, out = run(argv)
    try:
        if sys.stdout is not None:
            sys.stdout.write(out)
            sys.stdout.flush()  # so that a failed write shows here, not after the return
        elif out:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    except OSError as exc:
        _diagnostic(f"error: cannot write output: {exc.strerror}")
        return 1
    return code


def process_main() -> NoReturn:
    """`main` as a whole process: once it has written its output, run the
    atexit handlers (coverage's data save among them), flush what they wrote
    and leave by `os._exit`.  That skips the interpreter's teardown, a GC
    pass over every module `site` loaded, which would only run after the
    output is written."""
    code = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None for a closed fd 1 or 2
        try:
            stream.flush()
        except OSError:  # the output main could not write is still buffered
            pass
    os._exit(code)


if __name__ == "__main__":
    process_main()
