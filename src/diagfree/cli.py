"""Command-line front end: stats, presentations, identification, square and
graph dumps, and the acceptance suite.

Exit codes: 0 ok (also when the reader closes stdout early), 1 acceptance
failure, 2 usage error, 3 internal error (the traceback goes to stderr).
Every command recomputes its D-class and squares; nothing is written to
disk except -o files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .biorder import (
    SquareEntry,
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    square_at,
)
from .diagram import (
    AdjacencySemigroup,
    BrauerMonoid,
    FiniteStarSemigroup,
    PartitionMonoid,
    TransformationMonoid,
)
from .green import DClassData, dclass_data
from .ghgraph import (
    INDUCED_TREES,
    SPANNING_TREES,
    build_gh_graph,
    gh_to_dot,
    is_connected,
    named_tree,
)
from .groupid import MAX_COSETS, identify, subgroup_hints
from .present import (
    FAMILIES,
    subgroup_presentation,
    tietze_simplify,
    to_cas_text,
    to_json_doc,
)

# Names of T_n for --monoid.  T_n has no involution, so the commands that
# search singular squares or use projections refuse it.
TN_KINDS = ("tn", "transformation")
NEEDS_INVOLUTION = ("presentation", "identify", "squares")


def make_handle(args) -> FiniteStarSemigroup:
    kind = args.monoid.lower()
    if kind in ("pn", "partition"):
        return PartitionMonoid(args.n, allow_large=args.allow_large)
    if kind == "brauer":
        return BrauerMonoid(args.n, allow_large=args.allow_large)
    if kind in TN_KINDS:
        return TransformationMonoid(args.n, allow_large=args.allow_large)
    if kind == "adjacency":
        if not args.graph:
            raise ValueError("--graph FILE is required for adjacency semigroups")
        return read_adjacency(Path(args.graph))
    raise ValueError(f"unknown monoid kind {args.monoid!r}")


def read_adjacency(path: Path) -> AdjacencySemigroup:
    """Edge list, one `u v` pair per line; loops are implicit."""
    vertices: set[str] = set()
    edges = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read --graph file: {exc}")
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) == 1:
            vertices.add(toks[0])
            continue
        if len(toks) != 2:
            raise ValueError(f"bad edge line {line!r}")
        vertices.update(toks)
        edges.append((toks[0], toks[1]))
    return AdjacencySemigroup(sorted(vertices), edges)


def squares_to_doc(d: DClassData, squares: list[SquareEntry]) -> dict:
    h = d.handle
    return {
        "version": 1,
        "monoid": h.describe(),
        "rank": d.rank,
        "squares": [
            {
                "rows": list(s.rows),
                "cols": list(s.cols),
                "oclass": s.oclass,
                "corners": [h.text(x) for x in square_at(d, s.rows, s.cols).corners()],
                "orientation": s.orientation,
                "witness": h.text(s.u),
            }
            for s in squares
        ],
    }


def write_output(args, out: str) -> None:
    """Write out to the -o file, or to stdout."""
    if args.output:
        try:
            Path(args.output).write_text(out)
        except OSError as exc:
            raise ValueError(f"cannot write -o file: {exc}")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(out)


# -- commands -----------------------------------------------------------------


def cmd_stats(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    g = build_gh_graph(d)
    print(f"monoid: {h.describe()}  rank: {d.rank}")
    print(f"|D| = {d.size}")
    if h.has_star:
        print(f"|P_D| = {len(d.projections)}")
    print(f"|E_D| = {len(d.idempotents)}")
    print(f"GH graph: {g.n_left}+{g.n_right} vertices, {len(g.edges)} edges, "
          f"connected: {is_connected(g)}")
    if d.strata:
        print("strata (NTu, NTd) -> count:")
        for key in sorted(d.strata):
            print(f"  {key}: {len(d.strata[key])}")
    return 0


def cmd_presentation(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    pres = subgroup_presentation(d, args.family, args.tree)
    if args.simplify:
        pres = tietze_simplify(pres).presentation
    title = f"{args.family} maximal subgroup presentation, {h.describe()}, rank {d.rank}"
    if args.format == "json":
        out = json.dumps(to_json_doc(pres), indent=2, sort_keys=True)
    else:
        out = to_cas_text(pres, title)
    write_output(args, out)
    return 0


def cmd_identify(args) -> int:
    d = dclass_data(make_handle(args), args.rank)
    pres = subgroup_presentation(d, args.family, args.tree)
    verdict = identify(pres, subgroup_hints(d, args.family, args.max_cosets))
    if args.format == "json":
        print(json.dumps(verdict.to_json(), indent=2, sort_keys=True))
    else:
        print(verdict.describe())
        for line in verdict.evidence:
            print(f"  - {line}")
    return 0


def cmd_squares(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    doc = squares_to_doc(d, enumerate_singular_squares(d))
    if args.diamonds:
        diamonds = enumerate_linked_diamonds(d)
        doc["diamonds"] = [
            {
                "s": h.text(x.s), "u": h.text(x.u),
                "v": h.text(x.v), "w": h.text(x.w),
                "witness": h.text(x.p),
                "degeneracy": list(x.degeneracy()),
            }
            for x in diamonds
        ]
    write_output(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_graph(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    g = build_gh_graph(d)
    tree = named_tree(d, args.tree) if args.tree else None
    write_output(args, gh_to_dot(g, tree))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(include_slow=args.slow)
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.title}")
        if res.detail and (args.verbose or not res.ok):
            print(f"        {res.detail}")
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagfree",
        description="Diagram monoids and maximal subgroups of their free "
        "idempotent- and projection-generated semigroups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--monoid", default="pn",
                       help="pn | brauer | tn | adjacency (default pn)")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--graph", help="edge-list file for adjacency semigroups")
        p.add_argument("--allow-large", action="store_true",
                       help="override the default degree cap")

    p = sub.add_parser("stats", help="D-class statistics")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("presentation", help="emit a maximal-subgroup presentation")
    common(p)
    p.add_argument("--family", default="ig", choices=FAMILIES)
    p.add_argument("--tree", default="auto", choices=SPANNING_TREES,
                   help="ig and pg only; auto means pg for pg")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--format", default="cas", choices=("cas", "json"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("identify", help="identify the maximal subgroup")
    common(p)
    p.add_argument("--family", default="ig", choices=FAMILIES)
    p.add_argument("--tree", default="auto", choices=SPANNING_TREES,
                   help="ig and pg only; auto means pg for pg")
    p.add_argument("--max-cosets", type=positive_int, default=MAX_COSETS)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("squares", help="dump singular squares (and diamonds)")
    common(p)
    p.add_argument("--diamonds", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("graph", help="DOT export of the Graham-Houghton graph")
    common(p)
    p.add_argument("--tree", default="", choices=SPANNING_TREES + INDUCED_TREES,
                   help="colour this tree's edges")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--slow", action="store_true", help="include the slow degree-5 items")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in NEEDS_INVOLUTION and args.monoid.lower() in TN_KINDS:
            raise ValueError(
                f"{args.command} needs an involution (the singular-square search "
                "and the projections use it), and T_n has none"
            )
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): not an error.  The rest of
        # the output, and the interpreter's exit flush, go to os.devnull.
        sys.stdout = open(os.devnull, "w")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
