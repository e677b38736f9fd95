"""Command-line front end.

Exit codes distinguish tool misuse from mathematical failure so CI can
gate on the verification suites:

  0  success
  1  a verified check failed (verify subcommands only)
  2  usage or validation error
  3  a safety cap was exceeded (set MEXKIT_CAP_OVERRIDE=1 to unlock)

Every subcommand is deterministic; repeated invocations are byte
identical.  Timing is therefore only emitted on request (--timing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from . import colex, constructions, extremal, graphs, oracle, processes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# OEIS A000664: graphs with m edges and no isolated vertices
_EXPECTED_GRAPH_COUNTS = [1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613]

# largest vertex count (top label or ``n`` header) an input file may give;
# a graph holds one neighbour mask per vertex, so a stray label like
# 100000000 would otherwise allocate for minutes before any command runs
_INPUT_VERTEX_CAP = 10**5


def _cap(default: int | None) -> int | None:
    return None if os.environ.get("MEXKIT_CAP_OVERRIDE") == "1" else default


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _load_graph(path: str) -> graphs.Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    edges, explicit = graphs._parse_edge_lines(text)
    top = max((max(edge) for edge in edges), default=0)
    oracle._require_cap(max(top, explicit or 0), _cap(_INPUT_VERTEX_CAP), "input vertex count")
    return graphs.graph_from_edges(edges, explicit)


def _forbidden_graph(args: argparse.Namespace) -> graphs.Graph:
    if args.forbid_clique is not None:
        if args.forbid_clique < 1:
            raise ValueError("--forbid-clique must be at least 1")
        return constructions.complete_graph(args.forbid_clique)
    return _load_graph(args.forbid_file)


def _print_graph(g: graphs.Graph, fmt: str, meta: dict) -> None:
    if fmt == "edges":
        sys.stdout.write(graphs.format_edge_list(g))
    else:
        _emit(
            meta
            | {
                "n": g.vertex_count,
                "m": g.edge_count,
                "edges": [[u, v] for u, v in g.edges()],
            }
        )


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "turan":
        g = constructions.turan_graph(args.r, args.n)
        meta = {"kind": "turan", "r": args.r, "n": args.n}
    elif kind == "colex":
        g = constructions.colex_graph(args.m)
        meta = {"kind": "colex", "m": args.m}
    elif kind == "ct":
        g = constructions.colex_turan_graph(args.r, args.m)
        meta = {"kind": "ct", "r": args.r, "m": args.m}
    elif kind == "blowup":
        g = constructions.blowup(_load_graph(args.input), args.t)
        meta = {"kind": "blowup", "t": args.t}
    else:
        g = constructions.critical_edge_gadget(args.r, args.m)
        params = constructions.critical_edge_gadget_params(args.r, args.m)
        meta = {
            "kind": "gadget",
            "r": args.r,
            "m": args.m,
            "attach_count": params.attach_count,
        }
    _print_graph(g, args.format, meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count / mex / ex / bound / constants
# ---------------------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    base = {"n": g.vertex_count, "m": g.edge_count}
    if args.profile:
        _emit(base | {"profile": list(graphs.clique_profile(g).counts)})
    elif args.vertex is not None:
        value = graphs.cliques_at_vertex(g, args.vertex, args.s)
        _emit(base | {"vertex": args.vertex, "s": args.s, "value": value})
    elif args.edge is not None:
        u, v = args.edge
        value = graphs.cliques_at_edge(g, (u, v), args.s)
        _emit(base | {"edge": [u, v], "s": args.s, "value": value})
    elif args.min_degrees:
        dv, de = graphs.min_clique_degrees(g, args.s)
        _emit(base | {"s": args.s, "min_vertex": dv, "min_edge": de})
    else:
        if args.t is None:
            raise ValueError("one of --t, --profile, --vertex, --edge, --min-degrees is required")
        _emit(base | {"t": args.t, "value": graphs.count_cliques(g, args.t)})
    return EXIT_OK


def _cmd_mex(args: argparse.Namespace) -> int:
    if args.profile:
        if args.m_max is None:
            raise ValueError("--profile requires --m-max")
        values = extremal.mex_profile(args.r, args.s, args.m_max)
        if args.format == "json":
            _emit({"r": args.r, "s": args.s, "m_max": args.m_max, "values": values})
        else:
            print("m,value")
            for i, value in enumerate(values, start=1):
                print(f"{i},{value}")
        return EXIT_OK
    if args.m is None:
        raise ValueError("--m is required (or use --profile)")
    value = extremal.mex_clique(args.m, args.s, args.r)
    _emit({"m": args.m, "s": args.s, "r": args.r, "value": value})
    return EXIT_OK


def _cmd_ex(args: argparse.Namespace) -> int:
    value = extremal.zykov_ex(args.n, args.t, args.r)
    _emit({"n": args.n, "t": args.t, "r": args.r, "value": value})
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    value = extremal.lovasz_kk_bound(args.m, args.s)
    _emit({"m": args.m, "s": args.s, "value": value})
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    b = extremal.beta(args.r)
    c = extremal.c_rs(args.r, args.s)
    _emit(
        {
            "r": args.r,
            "s": args.s,
            "beta_square": str(b.square),
            "beta": b.float_value,
            "c_square": str(c.square),
            "c": c.float_value,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _report(
    rows: Iterator[tuple[bool, str]], summary: str, *, failures_only: bool = False
) -> int:
    """Print each checked row with its verdict, then the summary with the overall one.

    Rows print as they are checked; with failures_only, passing rows stay
    silent.  A range that checks no instance is a usage error, not a pass,
    and leaves stdout empty.
    """
    checked, all_ok = 0, True
    for ok, line in rows:
        checked += 1
        all_ok &= ok
        if not (ok and failures_only):
            print(f"{line} {_verdict(ok)}")
    if not checked:
        raise ValueError(f"empty range: {summary} checks no instance")
    print(f"{summary}: {_verdict(all_ok)}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_verify_frohmader(args: argparse.Namespace) -> int:
    cap = _cap(oracle.DEFAULT_EDGE_CAP)
    oracle._require_cap(args.m_max, cap, "edge count")  # before printing any line
    forbidden = constructions.complete_graph(args.r + 1)

    def rows() -> Iterator[tuple[bool, str]]:
        for m in range(1, args.m_max + 1):
            brute = oracle.brute_force_mex(m, args.s, forbidden, cap=cap).optimum
            closed = extremal.mex_clique(m, args.s, args.r)
            yield brute == closed, f"m={m} brute={brute} closed={closed}"

    return _report(rows(), f"frohmader r={args.r} s={args.s} m<={args.m_max}")


def _cmd_verify_zykov(args: argparse.Namespace) -> int:
    cap = _cap(oracle.DEFAULT_VERTEX_CAP)
    oracle._require_cap(args.n_max, cap, "vertex count")  # before printing any line
    forbidden = constructions.complete_graph(args.r + 1)

    def rows() -> Iterator[tuple[bool, str]]:
        for n in range(max(args.r, args.t), args.n_max + 1):
            res = oracle.brute_force_ex(n, args.t, forbidden, cap=cap)
            closed = extremal.zykov_ex(n, args.t, args.r)
            unique = res.witness_count == 1 and res.witnesses[0] == oracle.canonical_graph(
                constructions.turan_graph(args.r, n)
            )
            yield res.optimum == closed and unique, (
                f"n={n} brute={res.optimum} closed={closed} witnesses={res.witness_count}"
            )

    return _report(rows(), f"zykov r={args.r} t={args.t} n<={args.n_max}")


def _cmd_verify_shadows(args: argparse.Namespace) -> int:
    def rows() -> Iterator[tuple[bool, str]]:
        for size in range(args.size_max + 1):
            brute = oracle.brute_force_min_shadow(
                args.n,
                args.k,
                size,
                args.p,
                r_colorable=args.r,
                cap=_cap(oracle.DEFAULT_FAMILY_CAP),
            )
            if args.r is None:
                closed = colex.kk_min_shadow(args.k, size, args.p)
            else:
                closed = colex.ffk_min_shadow(args.r, args.k, size, args.p)
            yield brute == closed, f"size={size} brute={brute} closed={closed}"

    label = "ffk" if args.r is not None else "kruskal-katona"
    return _report(rows(), f"{label} n={args.n} k={args.k} p={args.p} size<={args.size_max}")


def _cmd_verify_closed_form(args: argparse.Namespace) -> int:
    def rows() -> Iterator[tuple[bool, str]]:
        for r in range(2, args.r_max + 1):
            for s in range(2, r + 1):
                for n in range(r, args.n_max + 1, r):
                    ok = extremal.closed_form_check(r, s, n)
                    ct = constructions.colex_turan_graph(r, constructions.turan_number(r, n))
                    want = n * (r - 1) // r
                    regular = all(
                        ct.degree(v) == want
                        for v in ct.vertices()
                        if ct.adjacency[v]
                    )
                    yield ok and regular, f"r={r} s={s} n={n}"

    return _report(rows(), f"closed-form r<={args.r_max} n<={args.n_max}")


def _cmd_verify_constants(args: argparse.Namespace) -> int:
    rows = (
        (extremal.verify_constant_identities(r, s), f"r={r} s={s}")
        for r in range(2, args.r_max + 1)
        for s in range(3, args.r_max + 2)
    )
    return _report(rows, f"constant identities r<={args.r_max}", failures_only=True)


def _cmd_verify_gadget(args: argparse.Namespace) -> int:
    g = constructions.critical_edge_gadget(args.r, args.m)
    gadget_count = graphs.count_cliques(g, args.s)
    extremal_count = extremal.mex_clique(args.m, args.s, args.r)
    ok = gadget_count > extremal_count
    print(
        f"r={args.r} m={args.m} s={args.s} gadget={gadget_count} "
        f"colex-turan={extremal_count} {_verdict(ok)}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify_enumeration(args: argparse.Namespace) -> int:
    if args.m_max > len(_EXPECTED_GRAPH_COUNTS):
        raise ValueError(
            f"reference counts available only for m <= {len(_EXPECTED_GRAPH_COUNTS)}"
        )

    def rows() -> Iterator[tuple[bool, str]]:
        for m in range(1, args.m_max + 1):
            got = sum(1 for _ in oracle.enumerate_graphs(m, cap=_cap(oracle.DEFAULT_EDGE_CAP)))
            want = _EXPECTED_GRAPH_COUNTS[m - 1]
            yield got == want, f"m={m} enumerated={got} expected={want}"

    return _report(rows(), f"enumeration m<={args.m_max}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _emit_search(args: argparse.Namespace, res: oracle.SearchResult) -> None:
    payload = {
        "optimum": res.optimum,
        "witness_count": res.witness_count,
        "search_space_size": res.search_space_size,
    }
    if args.timing:
        payload["elapsed_ms"] = round(res.elapsed * 1000.0, 3)
    _emit(payload)
    if args.witnesses_dir:
        out = Path(args.witnesses_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(res.witnesses):
            (out / f"witness_{i}.edges").write_text(graphs.format_edge_list(w))


def _cmd_search_mex(args: argparse.Namespace) -> int:
    res = oracle.brute_force_mex(
        args.m, args.s, _forbidden_graph(args), cap=_cap(oracle.DEFAULT_EDGE_CAP)
    )
    _emit_search(args, res)
    return EXIT_OK


def _cmd_search_ex(args: argparse.Namespace) -> int:
    res = oracle.brute_force_ex(
        args.n, args.t, _forbidden_graph(args), cap=_cap(oracle.DEFAULT_VERTEX_CAP)
    )
    _emit_search(args, res)
    return EXIT_OK


def _cmd_search_min_shadow(args: argparse.Namespace) -> int:
    value = oracle.brute_force_min_shadow(
        args.n,
        args.k,
        args.size,
        args.p,
        r_colorable=args.r,
        cap=_cap(oracle.DEFAULT_FAMILY_CAP),
    )
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "size": args.size,
            "p": args.p,
            "r": args.r,
            "value": value,
        }
    )
    return EXIT_OK


def _cmd_search_min_edits(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    value = oracle.min_edits_to_r_partite(
        g, args.r, cap=_cap(oracle.DEFAULT_PARTITION_CAP)
    )
    _emit({"r": args.r, "n": g.vertex_count, "m": g.edge_count, "value": value})
    return EXIT_OK


def _cmd_search_blowup(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    found, parts = oracle.find_blowup(
        g, args.parts, args.t, cap_override=os.environ.get("MEXKIT_CAP_OVERRIDE") == "1"
    )
    payload: dict = {"parts": args.parts, "t": args.t, "found": found}
    if found:
        payload["witness"] = [list(p) for p in parts]
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------


def _trace_to_lines(trace: processes.ProcessTrace) -> None:
    for i, step in enumerate(trace.steps):
        item = list(step.item) if isinstance(step.item, tuple) else step.item
        _emit(
            {
                "step": i,
                "kind": step.kind,
                "item": item,
                "value": step.value,
                "edges_after": step.edges_after,
            }
        )
    summary: dict = {
        "kind": "summary",
        "steps": len(trace.steps),
        "final_edges": trace.final_graph.edge_count,
        "budget_exhausted": trace.budget_exhausted,
    }
    if trace.partial_last_vertex is not None:
        summary["partial_vertex"] = trace.partial_last_vertex.vertex
        summary["partial_edges"] = [
            list(e) for e in trace.partial_last_vertex.removed_edges
        ]
    _emit(summary)


def _cmd_process_run(args: argparse.Namespace) -> int:
    """process edge / process vertex: the default config, overridden by the flags given."""
    default_config, run = {
        "edge": (processes.default_edge_config, processes.edge_deletion_process),
        "vertex": (processes.default_vertex_config, processes.vertex_deletion_process),
    }[args.procedure]
    g = _load_graph(args.input)
    config = default_config(g, args.s, args.r, args.epsilon)
    overrides = {}
    if args.coefficient is not None:
        overrides["coefficient"] = args.coefficient
    if args.exponent is not None:
        overrides["exponent"] = args.exponent
    if args.budget is not None:
        overrides["edge_budget"] = args.budget
    if overrides:
        config = dataclasses.replace(config, **overrides)
    _trace_to_lines(run(g, config))
    return EXIT_OK


def _cmd_process_stability(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = processes.stability_experiment(g, args.r, args.s, args.epsilon)
    _emit(dataclasses.asdict(report))
    return EXIT_OK


def _cmd_process_constants(args: argparse.Namespace) -> int:
    consts = processes.proof_constants(args.r, args.s, args.epsilon)
    _emit({"r": args.r, "s": args.s, "epsilon": args.epsilon} | dataclasses.asdict(consts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexkit",
        description="extremal graph constructions, exact clique counts, and brute-force verification",
    )
    sub = parser.add_subparsers(dest="command")

    # construct
    construct = sub.add_parser("construct", help="build a named graph")
    csub = construct.add_subparsers(dest="kind", required=True)
    for kind, flags in (
        ("turan", ("r", "n")),
        ("colex", ("m",)),
        ("ct", ("r", "m")),
        ("blowup", ("input", "t")),
        ("gadget", ("r", "m")),
    ):
        p = csub.add_parser(kind)
        for flag in flags:
            if flag == "input":
                p.add_argument("--input", required=True, help="edge-list file ('-' for stdin)")
            else:
                p.add_argument(f"--{flag}", type=int, required=True)
        p.add_argument("--format", choices=("edges", "json"), default="edges")
        p.set_defaults(handler=_cmd_construct)

    # count
    count = sub.add_parser("count", help="exact clique counts of a graph file")
    count.add_argument("--input", required=True, help="edge-list file ('-' for stdin)")
    count.add_argument("--t", type=int, help="count t-cliques")
    count.add_argument("--profile", action="store_true", help="full clique profile")
    count.add_argument("--vertex", type=int, help="count s-cliques at this vertex")
    count.add_argument("--edge", type=int, nargs=2, metavar=("U", "V"))
    count.add_argument("--min-degrees", action="store_true", dest="min_degrees")
    count.add_argument("--s", type=int, default=3)
    count.set_defaults(handler=_cmd_count)

    # mex / ex / bound / constants
    mex = sub.add_parser("mex", help="extremal s-clique count at fixed edge count")
    mex.add_argument("--m", type=int)
    mex.add_argument("--s", type=int, required=True)
    mex.add_argument("--r", type=int, required=True)
    mex.add_argument("--profile", action="store_true")
    mex.add_argument("--m-max", type=int, dest="m_max")
    mex.add_argument("--format", choices=("json", "csv"), default=None)
    mex.set_defaults(handler=_cmd_mex)

    ex = sub.add_parser("ex", help="extremal t-clique count at fixed vertex count")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--t", type=int, required=True)
    ex.add_argument("--r", type=int, required=True)
    ex.set_defaults(handler=_cmd_ex)

    bound = sub.add_parser("bound", help="clique-count upper bound from the edge count")
    bound.add_argument("--m", type=int, required=True)
    bound.add_argument("--s", type=int, required=True)
    bound.set_defaults(handler=_cmd_bound)

    constants = sub.add_parser("constants", help="the exact constants and their squares")
    constants.add_argument("--r", type=int, required=True)
    constants.add_argument("--s", type=int, required=True)
    constants.set_defaults(handler=_cmd_constants)

    # verify
    verify = sub.add_parser("verify", help="check a theorem instance exhaustively; exit 1 on failure")
    vsub = verify.add_subparsers(dest="subject", required=True)

    vf = vsub.add_parser("frohmader")
    vf.add_argument("--r", type=int, required=True)
    vf.add_argument("--s", type=int, required=True)
    vf.add_argument("--m-max", type=int, required=True, dest="m_max")
    vf.set_defaults(handler=_cmd_verify_frohmader)

    vz = vsub.add_parser("zykov")
    vz.add_argument("--r", type=int, required=True)
    vz.add_argument("--t", type=int, required=True)
    vz.add_argument("--n-max", type=int, required=True, dest="n_max")
    vz.set_defaults(handler=_cmd_verify_zykov)

    vs = vsub.add_parser("shadows")
    vs.add_argument("--n", type=int, required=True)
    vs.add_argument("--k", type=int, required=True)
    vs.add_argument("--p", type=int, required=True)
    vs.add_argument("--size-max", type=int, required=True, dest="size_max")
    vs.add_argument("--r", type=int, default=None, help="restrict to r-colorable families")
    vs.set_defaults(handler=_cmd_verify_shadows)

    vc = vsub.add_parser("closed-form")
    vc.add_argument("--r-max", type=int, required=True, dest="r_max")
    vc.add_argument("--n-max", type=int, required=True, dest="n_max")
    vc.set_defaults(handler=_cmd_verify_closed_form)

    vk = vsub.add_parser("constants")
    vk.add_argument("--r-max", type=int, required=True, dest="r_max")
    vk.set_defaults(handler=_cmd_verify_constants)

    vg = vsub.add_parser("gadget")
    vg.add_argument("--r", type=int, required=True)
    vg.add_argument("--m", type=int, required=True)
    vg.add_argument("--s", type=int, default=3)
    vg.set_defaults(handler=_cmd_verify_gadget)

    ve = vsub.add_parser("enumeration")
    ve.add_argument("--m-max", type=int, required=True, dest="m_max")
    ve.set_defaults(handler=_cmd_verify_enumeration)

    # search
    search = sub.add_parser("search", help="run a brute-force search")
    ssub = search.add_subparsers(dest="target", required=True)

    sm = ssub.add_parser("mex")
    sm.add_argument("--m", type=int, required=True)
    sm.add_argument("--s", type=int, required=True)
    _add_forbid_flags(sm)
    _add_search_flags(sm)
    sm.set_defaults(handler=_cmd_search_mex)

    se = ssub.add_parser("ex")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--t", type=int, required=True)
    _add_forbid_flags(se)
    _add_search_flags(se)
    se.set_defaults(handler=_cmd_search_ex)

    sms = ssub.add_parser("min-shadow")
    sms.add_argument("--n", type=int, required=True)
    sms.add_argument("--k", type=int, required=True)
    sms.add_argument("--size", type=int, required=True)
    sms.add_argument("--p", type=int, required=True)
    sms.add_argument("--r", type=int, default=None)
    sms.set_defaults(handler=_cmd_search_min_shadow)

    sme = ssub.add_parser("min-edits")
    sme.add_argument("--input", required=True)
    sme.add_argument("--r", type=int, required=True)
    sme.set_defaults(handler=_cmd_search_min_edits)

    sb = ssub.add_parser("blowup")
    sb.add_argument("--input", required=True)
    sb.add_argument("--parts", type=int, required=True)
    sb.add_argument("--t", type=int, required=True)
    sb.set_defaults(handler=_cmd_search_blowup)

    # process
    process = sub.add_parser("process", help="run a deletion process and print its trace")
    psub = process.add_subparsers(dest="procedure", required=True)

    for name in ("edge", "vertex"):
        pp = psub.add_parser(name)
        pp.add_argument("--input", required=True)
        pp.add_argument("--s", type=int, required=True)
        pp.add_argument("--r", type=int, required=True)
        pp.add_argument("--epsilon", type=float, required=True)
        pp.add_argument("--coefficient", type=float, default=None)
        pp.add_argument("--exponent", type=float, default=None)
        pp.add_argument("--budget", type=int, default=None)
        pp.set_defaults(handler=_cmd_process_run)

    ps = psub.add_parser("stability")
    ps.add_argument("--input", required=True)
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--epsilon", type=float, required=True)
    ps.set_defaults(handler=_cmd_process_stability)

    pc = psub.add_parser("constants")
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--s", type=int, required=True)
    pc.add_argument("--epsilon", type=float, required=True)
    pc.set_defaults(handler=_cmd_process_constants)

    return parser


def _add_forbid_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forbid-clique", type=int, default=None, dest="forbid_clique")
    group.add_argument("--forbid-file", default=None, dest="forbid_file")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timing", action="store_true")
    p.add_argument("--witnesses-dir", default=None, dest="witnesses_dir")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except oracle.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
