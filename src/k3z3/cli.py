"""Command-line interface: deterministic reports over the exact kernels.

Every subcommand is a pure function of its flags: repeated invocations
produce byte-identical output.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on malformed input and 3 on an internal
error such as a failed self-check (2 and 3 with a one-line diagnostic
on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, lattice, obstruction
from .fixed_data import (
    FixedPointData,
    FixedPointType,
    dirac_coefficients,
    g_signature_of_data,
    parse_fixed_data,
    signature_defect,
)

TYPE_NAMES = ("A0", "A1", "A2", "B")


def _dumps(obj) -> str:
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


def _row_dict(t: classify.ActionType) -> dict:
    return {
        "name": t.name,
        "fixed_count": t.fixed_count,
        "m_plus": t.m_plus,
        "m_minus": t.m_minus,
        "b2_G": t.b2_G,
        "bplus_G": t.bplus_G,
        "bminus_G": t.bminus_G,
        "sign_quotient": t.sign_quotient,
        "euler_quotient": t.euler_quotient,
    }


def _cmd_classify(args) -> tuple[int, str]:
    rows = classify.enumerate_action_types()
    if args.format == "json":
        return 0, _dumps([_row_dict(t) for t in rows])
    if args.format == "tsv":
        fields = list(_row_dict(rows[0]))
        lines = ["\t".join(fields)]
        lines += ["\t".join(str(v) for v in _row_dict(t).values()) for t in rows]
        return 0, "\n".join(lines) + "\n"
    table = [("Type", "#X^G", "m+", "m-", "b2^G", "b+^G", "b-^G", "Sign(X/G)")]
    for t in rows:
        table.append(
            (
                t.name,
                str(t.fixed_count),
                str(t.m_plus),
                str(t.m_minus),
                str(t.b2_G),
                str(t.bplus_G),
                str(t.bminus_G),
                str(t.sign_quotient),
            )
        )
    return 0, _align(table)


# ---------------------------------------------------------------------------
# verify


def _verification_record(t: classify.ActionType, L: lattice.GLattice) -> dict:
    report = lattice.verify_lattice(L)
    record = {
        "type": t.name,
        "rank": L.rank,
        "det": report.det,
        "even": report.even,
        "isometry": report.isometry,
        "order3": report.order3,
    }
    try:
        sig, fsig = lattice.signatures(L)
        record["signature"] = [sig[0], sig[1]]
        record["fixed_signature"] = [fsig[0], fsig[1]]
    except ValueError:
        record["signature"] = None
        record["fixed_signature"] = None
    try:
        dec = lattice.module_decomposition(L)
        record["decomposition"] = {"a": dec.a, "b": dec.b, "c": dec.c}
    except ValueError:
        record["decomposition"] = None
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
    plus = signature_defect(FixedPointType.PLUS)
    minus = signature_defect(FixedPointType.MINUS)
    value = g_signature_of_data(data)
    if args.format == "json":
        return 0, _dumps(
            {
                "m_plus": data.m_plus,
                "m_minus": data.m_minus,
                "defect_plus": str(plus),
                "defect_minus": str(minus),
                "g_signature": str(value),
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


def build_parser() -> argparse.ArgumentParser:
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


def run(argv=None) -> tuple[int, str]:
    """Parse and execute; returns (exit_code, stdout text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote its own message
        return (exc.code if isinstance(exc.code, int) else 2), ""
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
