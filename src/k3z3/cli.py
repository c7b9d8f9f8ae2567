"""Command-line interface: deterministic reports over the exact kernels.

Every subcommand is a pure function of its flags: repeated invocations
produce byte-identical output.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on malformed input and 3 on an internal
error such as a failed self-check (2 and 3 with a one-line diagnostic
on stderr).  `run` reads a spelled-out call with a direct reader and
hands any other argv, `--help` among them, to `build_parser`, the only
importer of `argparse`: building or rendering records and every
spelled-out call load no argument parser, and argparse stays the one
source of help texts and of every diagnostic.  No module of the package
imports `__future__`.
"""

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import lattice
from .fixed_data import FixedPointData, dirac_coefficients, parse_fixed_data

if TYPE_CHECKING:
    import argparse

    from . import classify

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


def _verification_record(t: "classify.ActionType", L: lattice.GLattice) -> dict:
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
    for key, check in (
        ("rep", lambda: lattice.check_rep(L, t.fixed_count)),
        ("gsf", lambda: lattice.check_gsf(L, t.data)),
        ("lefschetz", lambda: lattice.check_lefschetz(L, t.fixed_count)),
    ):
        try:
            record[key] = check()
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
        f"  note: {lattice.TORSION_NOTE}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    from . import classify

    names = list(TYPE_NAMES) if args.all else [args.type_name]
    records = []
    for name in names:
        t = classify.action_type(name)
        records.append(_verification_record(t, lattice.assemble_type_lattice(t)))
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
        return 0, _dumps(
            {"m_plus": data.m_plus, "m_minus": data.m_minus, "k": list(k.as_tuple())}
        )
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
                "k": list(v.k.as_tuple()),
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


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only parsing a command line pays for it (and for gettext)

    parser = argparse.ArgumentParser(
        prog="k3z3",
        description="Exact invariants of pseudofree order-3 symmetries of the K3 surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate the admissible action types")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify", help="audit the rank-22 lattice model of a type")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--type", choices=TYPE_NAMES, dest="type_name")
    group.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("dirac", help="equivariant Dirac index multiplicities")
    p.add_argument("--mplus", type=int, required=True)
    p.add_argument("--mminus", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_dirac)

    p = sub.add_parser("smooth", help="smoothability verdict for a type on a surface")
    p.add_argument("--type", choices=TYPE_NAMES, required=True, dest="type_name")
    p.add_argument("--surface", choices=("standard", "e2pq"), default="standard")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_smooth)

    p = sub.add_parser("gsig", help="g-signature of arbitrary fixed-point data")
    p.add_argument("--data", help='fixed-point list such as "(1,2)x3,(1,1)x6"')
    p.add_argument("--mplus", type=int, default=None)
    p.add_argument("--mminus", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_gsig)

    return parser


# What `_read` accepts, per subcommand: its handler, each flag's (dest,
# default, kind) and the flag sets of which a call names exactly one.  kind
# is int, str, a tuple of choices, or None for a switch.  Tests hold this
# table and build_parser to the same options.
_FORMAT = ("format", "text", ("text", "json"))
_COUNTS = {"--mplus": ("mplus", None, int), "--mminus": ("mminus", None, int)}
_TYPE = {"--type": ("type_name", None, TYPE_NAMES)}
_CALLS = {
    "classify": (_cmd_classify, {"--format": ("format", "text", ("text", "json", "tsv"))}, ()),
    "verify": (
        _cmd_verify,
        {**_TYPE, "--all": ("all", False, None), "--format": _FORMAT},
        ({"--type", "--all"},),
    ),
    "dirac": (_cmd_dirac, {**_COUNTS, "--format": _FORMAT}, ({"--mplus"}, {"--mminus"})),
    "smooth": (
        _cmd_smooth,
        {
            **_TYPE,
            "--surface": ("surface", "standard", ("standard", "e2pq")),
            "--p": ("p", None, int),
            "--q": ("q", None, int),
            "--format": _FORMAT,
        },
        ({"--type"},),
    ),
    "gsig": (_cmd_gsig, {"--data": ("data", None, str), **_COUNTS, "--format": _FORMAT}, ()),
}


def _read(argv: list) -> SimpleNamespace | None:
    """The namespace build_parser would give for `argv`, or None to decline."""
    if not argv or argv[0] not in _CALLS:
        return None
    handler, flags, groups = _CALLS[argv[0]]
    values = {dest: default for dest, default, _ in flags.values()}
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, _, kind = flags[flag]
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


def run(argv=None) -> tuple[int, str]:
    """Parse and execute; returns (exit_code, stdout text).

    The reader takes `<subcommand> (--flag value | --all)*` in which every
    flag is spelled out in full and named at most once, no value starts
    with `-`, every int and choice converts, and the required flags are
    there (`verify`: exactly one of `--type` and `--all`).  Any other argv,
    `--help`, abbreviations and `--flag=value` among them, goes to argparse.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse wrote its own message and exits 0 or 2
            return exc.code, ""
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except Exception as exc:  # a bug or a failed self-check, not the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3, ""


def main(argv=None) -> int:
    code, out = run(argv)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
