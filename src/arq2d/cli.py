"""Command-line surface.

Exit codes: 0 success, 1 rejected input (domain errors), 2 usage errors,
3 oracle table mismatch, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the layers are lazy modules (see __init__) that run on first attribute
# access; a `from .homs import ...` here would run homs for every command
from . import brauer, closure, homs, ortho, render
from .model import (
    PART_NAMES,
    DomainError,
    Params,
    Window,
    canonical,
    format_vertex,
    parse_vertex,
    part_of,
)


# the largest --window: at (3,3) certify-sms takes about 1.5 s there, and
# render prints about 4 MB (the work grows like the square of the window)
MAX_WINDOW = 16
# the largest --p and --q: certify-sms on the one-member set E(0,1,0) takes
# about 0.4 s and 30 MB at p = q = 100, where its one table row is an int of
# about 8pq bits built from O(p+q) int operations.  On a maximal system the
# closure dominates: 88 s and 1.5 GB at p = q = 100 when last measured.
# render and biperp walk a box of 2Np x 2Nq points at --window N, so N*N*p*q
# is held to MAX_PQ**2: no box is larger than the largest one at N = 1
MAX_PQ = 100


def _params(args) -> Params:
    if args.p is None or args.q is None:
        raise DomainError("this command needs --p and --q")
    if max(args.p, args.q) > MAX_PQ:
        raise DomainError("--p and --q must be at most %d (got %d, %d)"
                          % (MAX_PQ, args.p, args.q))
    return Params(args.p, args.q)


def _periods(args) -> int:
    if args.window < 1:
        raise DomainError("--window must be at least 1 (got %d)" % args.window)
    if args.window > MAX_WINDOW:
        raise DomainError("--window must be at most %d (got %d)"
                          % (MAX_WINDOW, args.window))
    if args.window ** 2 * args.p * args.q > MAX_PQ ** 2:
        raise DomainError("--window N needs N*N*p*q at most %d (got N = %d, "
                          "p = %d, q = %d)" % (MAX_PQ ** 2, args.window,
                                               args.p, args.q))
    return args.window


def _load_set(value: str):
    """A vertex set: JSON array (inline or in a file) of vertex strings, or
    an inline ';'-separated list."""
    if value.lstrip().startswith("["):
        names = json.loads(value)
    elif os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            names = json.load(fh)
    else:
        names = [piece for piece in value.split(";") if piece.strip()]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise DomainError("vertex sets are JSON arrays of vertex strings")
    return [parse_vertex(s) for s in names]


def _emit(doc, args) -> str:
    return json.dumps(doc, sort_keys=True,
                      indent=2 if getattr(args, "pretty", False) else None)


def _cmd_classify(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        doc = fh.read()
    cls = brauer.classify(brauer.parse_graph(doc))
    print(json.dumps(cls.to_json(), separators=(",", ":")))
    return 0


def _cmd_algebra(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        doc = fh.read()
    qp = brauer.build_quiver(brauer.parse_graph(doc))
    if args.emit == "json":
        print(_emit({
            "vertices": list(qp.quiver_vertices),
            "arrows": [
                {"name": a.name, "source": a.source, "target": a.target,
                 "owner": a.owner}
                for a in qp.arrows
            ],
            "relations": {
                "typeI": [r.display() for r in qp.type_i],
                "typeII": [r.display() for r in qp.type_ii],
                "typeIII": [r.display() for r in qp.type_iii],
            },
        }, args))
    else:
        sys.stdout.write(brauer.emit_quiver_dot(qp))
    return 0


def _window_members(report, P: Params, periods: int) -> dict:
    w = Window.periods(P, periods)
    out: dict[str, list[str]] = {k: [] for k in PART_NAMES}
    for v in w.vertices():
        if report.contains(v):
            out[part_of(v)].append(format_vertex(v))
    return out


def _cmd_supports(args) -> int:
    P = _params(args)
    rows = [{"vertex": format_vertex(canonical(v, P)),
             "rsupp": homs.rsupp(v, P).to_json(),
             "lsupp": homs.lsupp(v, P).to_json()} for v in _load_set(args.set)]
    print(_emit(rows, args))
    return 0


def _cmd_biperp(args) -> int:
    P = _params(args)
    members = _load_set(args.set)
    periods = _periods(args)
    report = homs.biperp(members, P)
    doc = report.to_json()
    doc["set"] = [format_vertex(canonical(v, P)) for v in members]
    doc["windowMembers"] = _window_members(report, P, periods)
    print(_emit(doc, args))
    return 0


def _cmd_enumerate_max(args) -> int:
    P = _params(args)
    seed = _load_set(args.set)
    parts = None
    if args.parts is not None:
        parts = frozenset(args.parts.split(","))
        if "" in parts:
            raise DomainError("--parts takes a comma list of part names "
                              "(got %r)" % args.parts)
    systems = ortho.maximal_systems_containing(seed, P, parts=parts)
    doc = ortho.enumeration_report(systems, include_systems=True)
    print(_emit(doc, args))
    return 0


def _cmd_certify_sms(args) -> int:
    P = _params(args)
    members = _load_set(args.set)
    window = closure.default_window(members, P, _periods(args))
    doc = closure.certify_sms(members, P, window)
    report = ortho.maximality(members, P)
    doc["maximal"] = report.is_maximal
    if doc["certified"]:
        doc["corollary"] = ("extension closure of the certified system is "
                            "functorially finite")
    trace = doc.pop("trace")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for line in closure.trace_json_lines(trace):
                fh.write(line + "\n")
    doc.pop("window")
    print(_emit(doc, args))
    return 0


def _cmd_oracle_check(args) -> int:
    # imported here: the oracle is not a lazy module, and no other command
    # needs it
    from .oracle import reproduce_frozen_counts
    rows = reproduce_frozen_counts()
    if args.emit == "json":
        print(_emit(rows, args))
    else:
        for row in rows:
            print("%s %s (expected %r, got %r)"
                  % ("PASS" if row["pass"] else "FAIL", row["scenario"],
                     row["expected"], row["actual"]))
    return 0 if all(row["pass"] for row in rows) else 3


def _cmd_render(args) -> int:
    P = _params(args)
    w = Window.periods(P, _periods(args))
    highlights = {}
    if args.set:
        highlights["set"] = frozenset(
            canonical(v, P) for v in _load_set(args.set))
    spec = render.RenderSpec(P, args.part, w, highlights, args.emit)
    if args.emit == "json":
        print(_emit(render.layout_json(spec), args))
    else:
        sys.stdout.write(render.render(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arq2d",
        description="stable quiver calculator for 2-domestic "
                    "symmetric special biserial algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--pretty", action="store_true")

    def window(sp, default=2):
        sp.add_argument("--window", type=int, default=default,
                        help="window size in periods")

    sp = sub.add_parser("classify", help="domestic type of a graph document")
    sp.add_argument("graph")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("algebra", help="quiver presentation of a graph")
    sp.add_argument("graph")
    sp.add_argument("--emit", choices=("dot", "json"), default="dot")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(fn=_cmd_algebra)

    sp = sub.add_parser("supports", help="hom supports of vertices")
    common(sp)
    sp.add_argument("--set", required=True)
    sp.set_defaults(fn=_cmd_supports)

    sp = sub.add_parser("biperp", help="bi-perpendicular category of a set")
    common(sp)
    window(sp)
    sp.add_argument("--set", required=True)
    sp.set_defaults(fn=_cmd_biperp)

    sp = sub.add_parser("enumerate-max",
                        help="maximal orthogonal systems through a seed")
    common(sp)
    sp.add_argument("--set", required=True)
    sp.add_argument("--parts", default=None,
                    help="comma list of parts to draw candidates from")
    sp.set_defaults(fn=_cmd_enumerate_max)

    sp = sub.add_parser("certify-sms",
                        help="extension-closure certificate for a system")
    common(sp)
    window(sp, default=1)
    sp.add_argument("--set", required=True)
    sp.add_argument("--trace", default=None,
                    help="write the derivation trace to this file")
    sp.set_defaults(fn=_cmd_certify_sms)

    sp = sub.add_parser("oracle-check", help="replay the frozen count table")
    sp.add_argument("--emit", choices=("text", "json"), default="text")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(fn=_cmd_oracle_check)

    sp = sub.add_parser("render", help="draw one component part")
    common(sp)
    window(sp)
    sp.add_argument("part", choices=PART_NAMES)
    sp.add_argument("--set", default=None, help="highlight these vertices")
    sp.add_argument("--emit", choices=("dot", "svg", "tikz", "json"),
                    default="svg")
    sp.set_defaults(fn=_cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: the flush at shutdown must find a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print("error: invalid JSON input: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
