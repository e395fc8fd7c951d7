"""Command-line front end: stats, presentations, identification, square and
graph dumps, and the acceptance suite.

Exit codes: 0 ok, 1 acceptance failure, 2 usage error.  Every command
recomputes its D-class and squares; nothing is written to disk except -o
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .biorder import (
    SquareEntry,
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    label,
    linked_triangles,
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
    build_gh_graph,
    friendliness_tree,
    gh_to_dot,
    is_connected,
    p0_projections,
    p1_projections,
    spanning_tree_bfs,
    spanning_tree_with_projections,
    t_fc,
    t_fd,
    t_lex,
    t_pg,
    t_rank0,
    t_s,
    TreeSet,
)
from .groupid import IdentifyHints, identify
from .present import (
    gen_name_for_idempotent,
    presn_ig,
    presn_pg_linked,
    presn_pg_squares,
    presn_pg_triangles,
    to_cas_text,
    to_json_doc,
    tietze_simplify,
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
            raise SystemExit2("--graph FILE is required for adjacency semigroups")
        return read_adjacency(Path(args.graph))
    raise SystemExit2(f"unknown monoid kind {args.monoid!r}")


def read_adjacency(path: Path) -> AdjacencySemigroup:
    """Edge list, one `u v` pair per line; loops are implicit."""
    vertices: set[str] = set()
    edges = []
    for line in path.read_text().splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) == 1:
            vertices.add(toks[0])
            continue
        if len(toks) != 2:
            raise SystemExit2(f"bad edge line {line!r}")
        vertices.update(toks)
        edges.append((toks[0], toks[1]))
    return AdjacencySemigroup(sorted(vertices), edges)


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(2)


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
                "corners": [h.text(x) for x in s.square.corners()],
                "orientation": s.orientation,
                "witness": h.text(s.u),
            }
            for s in squares
        ],
    }


def pick_tree(args, h, d: DClassData) -> TreeSet:
    g = build_gh_graph(d)
    kind = getattr(args, "tree", "auto") or "auto"
    n, r = getattr(h, "n", None), d.rank
    if kind == "auto":
        if isinstance(h, AdjacencySemigroup) or r is None:
            return spanning_tree_with_projections(g)
        if r == 0:
            return t_rank0(n)
        if 1 <= r <= n - 2:
            return t_s(n, r, p0_projections(n, r)[0])
        return spanning_tree_bfs(g)
    if kind in ("lex", "fd", "fc", "s", "rank0") and (n is None or r is None):
        raise ValueError(f"--tree {kind} needs a monoid with a degree and a rank")
    if kind == "bfs":
        return spanning_tree_bfs(g)
    if kind == "lex":
        return t_lex(n, r)
    if kind == "fd":
        return t_fd(n, r)
    if kind == "fc":
        return t_fc(n, r)
    if kind == "s":
        if not 1 <= r <= n - 2:
            raise ValueError("t_s requires 1 <= r <= n-2")
        return t_s(n, r, p0_projections(n, r)[0])
    if kind == "pg":
        return pg_tree(h, d)
    if kind == "rank0":
        return t_rank0(n)
    raise SystemExit2(f"unknown tree kind {kind!r}")


def pg_tree(h, d: DClassData) -> TreeSet:
    n, r = getattr(h, "n", None), d.rank
    if (
        not isinstance(h, AdjacencySemigroup)
        and r is not None
        and 1 <= r <= n - 2
    ):
        return t_pg(n, r)
    return spanning_tree_with_projections(build_gh_graph(d))


# -- commands -----------------------------------------------------------------


def cmd_stats(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    g = build_gh_graph(d)
    print(f"monoid: {h.describe()}  rank: {d.rank}")
    print(f"|D| = {d.size}")
    print(f"|P_D| = {len(d.projections)}")
    print(f"|E_D| = {len(d.idempotents)}")
    print(f"GH graph: {g.n_left}+{g.n_right} vertices, {len(g.edges)} edges, "
          f"connected: {is_connected(g)}")
    if d.strata:
        print("strata (NTu, NTd) -> count:")
        for key in sorted(d.strata):
            print(f"  {key}: {len(d.strata[key])}")
    return 0


def _family_presentation(args, h, d):
    family = args.family
    if family == "ig":
        squares = enumerate_singular_squares(d)
        return presn_ig(d, pick_tree(args, h, d), squares)
    if family == "pg":
        squares = enumerate_singular_squares(d)
        return presn_pg_squares(d, pg_tree(h, d), squares)
    if family == "pg-linked":
        diamonds = enumerate_linked_diamonds(d)
        return presn_pg_linked(d, diamonds, friendliness_tree(d, 0))
    if family == "pg-triangles":
        tris = linked_triangles(d)
        return presn_pg_triangles(d, tris, friendliness_tree(d, 0))
    raise SystemExit2(f"unknown family {family!r}")


def cmd_presentation(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    pres = _family_presentation(args, h, d)
    if args.simplify:
        pres = tietze_simplify(pres).presentation
    title = f"{args.family} maximal subgroup presentation, {h.describe()}, rank {d.rank}"
    if args.format == "json":
        out = json.dumps(to_json_doc(pres), indent=2, sort_keys=True)
    else:
        out = to_cas_text(pres, title)
    if args.output:
        Path(args.output).write_text(out)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(out)
    return 0


def cmd_identify(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    pres = _family_presentation(args, h, d)
    hints = IdentifyHints(max_cosets=args.max_cosets)
    r = d.rank
    if (
        args.family in ("ig", "pg")
        and not isinstance(h, AdjacencySemigroup)
        and r is not None
        and r >= 1
    ):
        labels = {
            gen_name_for_idempotent(h, e): label(e) for e in d.idempotents
        }
        quot = ()
        if args.family == "ig" and r <= h.n - 2:
            quot = (gen_name_for_idempotent(h, p1_projections(h.n, r)[0]),)
        hints = IdentifyHints(
            rank=r, labels=labels, quotient_generators=quot,
            max_cosets=args.max_cosets,
        )
    verdict = identify(pres, hints)
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
    out = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(out)
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def cmd_graph(args) -> int:
    h = make_handle(args)
    d = dclass_data(h, args.rank)
    g = build_gh_graph(d)
    tree = pick_tree(args, h, d) if args.tree else None
    out = gh_to_dot(g, tree)
    if args.output:
        Path(args.output).write_text(out)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(out)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagfree",
        description="Diagram monoids and maximal subgroups of their free "
        "idempotent- and projection-generated semigroups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, rank_required=True):
        p.add_argument("--monoid", default="pn",
                       help="pn | brauer | tn | adjacency (default pn)")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--rank", type=int, required=rank_required)
        p.add_argument("--graph", help="edge-list file for adjacency semigroups")
        p.add_argument("--allow-large", action="store_true",
                       help="override the default degree cap")

    p = sub.add_parser("stats", help="D-class statistics")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("presentation", help="emit a maximal-subgroup presentation")
    common(p)
    p.add_argument("--family", default="ig",
                   help="ig | pg | pg-linked | pg-triangles")
    p.add_argument("--tree", default="auto",
                   help="auto | bfs | s | pg | rank0")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--format", default="cas", choices=("cas", "json"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("identify", help="identify the maximal subgroup")
    common(p)
    p.add_argument("--family", default="ig",
                   help="ig | pg | pg-linked | pg-triangles")
    p.add_argument("--tree", default="auto")
    p.add_argument("--max-cosets", type=int, default=10**6)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("squares", help="dump singular squares (and diamonds)")
    common(p)
    p.add_argument("--diamonds", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("graph", help="DOT export of the Graham-Houghton graph")
    common(p)
    p.add_argument("--tree", default="",
                   help="colour these tree edges (bfs | lex | fd | fc | s | pg | rank0)")
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
    if args.command in NEEDS_INVOLUTION and args.monoid.lower() in TN_KINDS:
        raise SystemExit2(
            f"{args.command} needs an involution (the singular-square search "
            "and the projections use it), and T_n has none"
        )
    try:
        return args.func(args)
    except SystemExit2:
        raise
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
