"""Command-line interface.

Verbs: info, faces, meet, enumerate, export, verify.  Diagrams are named
like ``A3``, ``b6``, ``F4``, ``H4`` (or a bare family letter plus --n).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import facelattice
from .decoration import DecorationError, End, chain, is_platonic_chain
from .diagram import (
    ConsistencyError,
    DiagramError,
    group_order,
    parse_name,
    root_count,
)


def canonical_json(payload) -> str:
    """Stable rendering: sorted keys, two-space indent, unescaped unicode."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _diagram_arg(name: str, rank: int | None):
    if rank is not None:
        if any(ch.isdigit() for ch in name):
            raise DiagramError(f"give either a full name ({name!r}) or --n, not both")
        return parse_name(f"{name}{rank}")
    return parse_name(name)


def cmd_info(args, d, _end) -> int:
    order = str(group_order(d))  # past the int-to-str limit this raises before any chain walk
    info = {
        "name": d.name,
        "family": d.family.value,
        "rank": d.rank,
        "edges": [list(e) for e in d.edges],
        "group_order": group_order(d),
        "root_count": root_count(d),
        "platonic_chain": is_platonic_chain(d),
    }
    # rendered whole first, so an error prints nothing
    if args.json:
        text = canonical_json(info)
    else:
        edges = ", ".join(f"{i}-{j} (m={m})" for i, j, m in d.edges) or "none"
        text = (f"{d.name}: rank {d.rank}, family {d.family.value}\n  edges:        {edges}\n"
                f"  group order:  {order}\n  roots:        {info['root_count']}\n"
                f"  chain:        {'yes' if info['platonic_chain'] else 'no'}")
    print(text)
    return 0


def _gens(nodes) -> str:
    return " ".join(f"r{i}" for i in sorted(nodes)) or "1"


def cmd_faces(args, d, end) -> int:
    if args.json:
        print(canonical_json(facelattice.report(d, end)))
        return 0
    name = facelattice.polytope_name(d, end)
    print(f"{d.name} ({end.value} seed): {name}")
    print(f"{'face':<{d.rank + 2}} {'d':>2} {'v':>2}  {'G_f':<12} {'G_s':<12} {'count':>7}")
    for dec in chain(d, end):
        count = facelattice.face_count(d, dec)
        print(
            f"{dec.pretty:<{d.rank + 2}} {dec.dimension:>2} {dec.dual_dimension:>2}  "
            f"{_gens(dec.filled_nodes):<12} {_gens(dec.open_nodes):<12} {count:>7}"
        )
    return 0


def cmd_meet(args, d, end) -> int:
    decs = chain(d, end)
    if not 0 <= args.c < args.d <= d.rank - 1:
        raise DecorationError(
            f"need 0 <= c < d <= {d.rank - 1}, got c={args.c} d={args.d}"
        )
    ratio = facelattice.stabilizer_ratio(d, decs[args.c], decs[args.d])
    wide_gap = args.d - args.c > 1
    geometric = (
        facelattice.incidence_count(d, decs[args.c], decs[args.d])
        if wide_gap or args.geometric
        else None
    )
    note = facelattice.meeting_note(d, end, args.c, args.d)
    if args.json:
        payload = {
            "diagram": d.name, "end": end.value, "c": args.c, "d": args.d,
            "ratio": ratio, "geometric": geometric, "note": note,
        }
        print(canonical_json(payload))
        return 0
    print(f"{d.name} ({end.value} seed), faces f{args.d} at a fixed f{args.c}:")
    print(f"  stabilizer-order ratio (flag count): {ratio}")
    if geometric is not None:
        print(f"  distinct faces (geometric):          {geometric}")
    if note:
        print(f"  note: {note}")
    return 0


def cmd_enumerate(args, d, end) -> int:
    decs = chain(d, end)
    dims = [args.d] if args.d is not None else list(range(d.rank))
    classes = []
    for k in dims:
        if not 0 <= k <= d.rank - 1:
            raise DecorationError(f"dimension {k} outside 0..{d.rank - 1}")
        dec = decs[k]
        count = facelattice.face_count(d, dec)
        enumerated = len(facelattice.enumerate_faces(d, dec))  # raises unless it is count
        classes.append({
            "d": k, "decoration": dec.text,
            "count": count, "enumerated": enumerated,
            "match": True,
        })
    if args.json:
        print(canonical_json({"diagram": d.name, "end": end.value, "classes": classes}))
        return 0
    for row in classes:
        print(f"d={row['d']} ({row['decoration']}): {row['enumerated']} faces "
              f"enumerated, formula {row['count']} [ok]")
    return 0


def cmd_export(args, d, end) -> int:
    from . import export  # imports numpy, which no other verb needs

    fmt = args.format or ("off" if d.rank == 3 else "json")
    if fmt == "off":
        text = export.off_text(d, end)
    else:
        text = canonical_json(export.incidence_json(d, end)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args, _d, _end) -> int:
    from . import verify  # the battery, which no other verb runs
    results = verify.run_all()
    if args.json:
        payload = [
            {
                "number": r.number, "title": r.title, "status": r.status,
                "seconds": round(r.seconds, 3), "note": r.note,
                "failures": r.failures,
            }
            for r in results
        ]
        print(canonical_json(payload))
    else:
        for r in results:
            print(f"{r.status:<14} {r.number}. {r.title} ({r.seconds:.2f}s)")
            if r.note:
                print(f"               note: {r.note}")
            for failure in r.failures:
                print(f"               {failure}")
        good = sum(1 for r in results if r.passed)
        print(f"{good}/{len(results)} checks passed")
    return 0 if all(r.passed for r in results) else 1


def _add_common(sub, end: bool = True) -> None:
    sub.add_argument("diagram", help="diagram name, e.g. A3, B6, F4, H4")
    if end:
        sub.add_argument("end", nargs="?", default="left", choices=["left", "right"],
                         help="seed end of the chain (default: left)")
    sub.add_argument("--n", type=int, default=None,
                     help="rank, when the diagram is given as a bare family letter")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: the parser holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="platonic",
        description="Platonic polytopes from decorated reflection-group diagrams, "
                    "in exact arithmetic.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("info", help="group order, roots and diagram shape")
    _add_common(p, end=False)
    p.set_defaults(fn=cmd_info)

    p = subs.add_parser("faces", help="face-class table of one polytope")
    _add_common(p)
    p.set_defaults(fn=cmd_faces)

    p = subs.add_parser("meet", help="how many d-faces meet at a c-face")
    _add_common(p)
    p.add_argument("--c", type=int, required=True, help="dimension of the fixed face")
    p.add_argument("--d", type=int, required=True, help="dimension of the counted faces")
    p.add_argument("--geometric", action="store_true",
                   help="also report the distinct-face count for consecutive dimensions")
    p.set_defaults(fn=cmd_meet)

    p = subs.add_parser("enumerate", help="geometric face enumeration vs the formula")
    _add_common(p)
    p.add_argument("--d", type=int, default=None, help="only this face dimension")
    p.set_defaults(fn=cmd_enumerate)

    p = subs.add_parser("export", help="write an OFF mesh (rank 3) or incidence JSON")
    _add_common(p)
    p.add_argument("--format", choices=["off", "json"], default=None,
                   help="output format (default: off for rank 3, else json)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=cmd_export)

    p = subs.add_parser("verify", help="run the full self-verification battery")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        d = _diagram_arg(args.diagram, args.n) if "diagram" in args else None
        code = args.fn(args, d, End(args.end) if "end" in args else None)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader has gone; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
