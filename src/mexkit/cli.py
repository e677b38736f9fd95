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
import re
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import colex, constructions, extremal, graphs, oracle, processes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# OEIS A000664: graphs with m edges and no isolated vertices
_EXPECTED_GRAPH_COUNTS = [1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216, 52944]

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
        _emit(meta | {"n": g.vertex_count, "m": g.edge_count, "edges": list(g.edges())})


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
    # the rule an exclusive group cannot state
    if args.s is not None and (args.t is not None or args.profile):
        raise ValueError("--s goes with --vertex, --edge or --min-degrees")
    s = 3 if args.s is None else args.s
    g = _load_graph(args.input)
    base = {"n": g.vertex_count, "m": g.edge_count}
    if args.profile:
        _emit(base | {"profile": graphs.clique_profile(g).counts})
    elif args.vertex is not None:
        value = graphs.cliques_at_vertex(g, args.vertex, s)
        _emit(base | {"vertex": args.vertex, "s": s, "value": value})
    elif args.edge is not None:
        value = graphs.cliques_at_edge(g, tuple(args.edge), s)
        _emit(base | {"edge": args.edge, "s": s, "value": value})
    elif args.min_degrees:
        dv, de = graphs.min_clique_degrees(g, s)
        _emit(base | {"s": s, "min_vertex": dv, "min_edge": de})
    else:
        _emit(base | {"t": args.t, "value": graphs.count_cliques(g, args.t)})
    return EXIT_OK


def _cmd_mex(args: argparse.Namespace) -> int:
    # the rules an exclusive group cannot state
    if args.profile != (args.m_max is not None):
        raise ValueError("--m-max goes with --profile, and only with it")
    if args.format == "csv" and not args.profile:
        raise ValueError("--format csv goes with --profile")
    if args.profile:
        values = extremal.mex_profile(args.r, args.s, args.m_max)
        if args.format == "json":
            _emit({"r": args.r, "s": args.s, "m_max": args.m_max, "values": values})
        else:
            print("m,value")
            for i, value in enumerate(values, start=1):
                print(f"{i},{value}")
        return EXIT_OK
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
    if args.m_max >= 1:  # the closed form's own domain check, before any search
        extremal.mex_clique(1, args.s, args.r)
    forbidden = constructions.complete_graph(args.r + 1)

    def rows() -> Iterator[tuple[bool, str]]:
        brutes = oracle.brute_force_mex_profile(args.m_max, args.s, forbidden, cap=cap)
        for m, brute in enumerate(brutes, start=1):
            closed = extremal.mex_clique(m, args.s, args.r)
            yield brute == closed, f"m={m} brute={brute} closed={closed}"

    return _report(rows(), f"frohmader r={args.r} s={args.s} m<={args.m_max}")


def _cmd_verify_zykov(args: argparse.Namespace) -> int:
    cap = _cap(oracle.DEFAULT_VERTEX_CAP)
    oracle._require_cap(args.n_max, cap, "vertex count")  # before printing any line
    ns = range(max(args.r, args.t), args.n_max + 1)
    if ns:  # the closed form's own domain check, before any search
        extremal.zykov_ex(ns[0], args.t, args.r)
    forbidden = constructions.complete_graph(args.r + 1)

    def rows() -> Iterator[tuple[bool, str]]:
        for n in ns:
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
    cap = _cap(oracle.DEFAULT_FAMILY_CAP)
    sizes = range(args.size_max + 1)
    oracle._check_min_shadow(args.n, args.k, sizes, args.p, args.r, cap)  # before any line
    # the plain colex segment lies in [n], so n residue classes filter nothing
    r = args.n if args.r is None else args.r

    def rows() -> Iterator[tuple[bool, str]]:
        for size in sizes:
            brute = oracle.brute_force_min_shadow(
                args.n, args.k, size, args.p, r_colorable=args.r, cap=cap
            )
            closed = colex.ffk_min_shadow(r, args.k, size, args.p)
            yield brute == closed, f"size={size} brute={brute} closed={closed}"

    label = "ffk" if args.r is not None else "kruskal-katona"
    return _report(rows(), f"{label} n={args.n} k={args.k} p={args.p} size<={args.size_max}")


def _cmd_verify_closed_form(args: argparse.Namespace) -> int:
    def rows() -> Iterator[tuple[bool, str]]:
        for r in range(2, args.r_max + 1):
            for s in range(2, r + 1):
                for n in range(r, args.n_max + 1, r):
                    yield extremal.closed_form_check(r, s, n), f"r={r} s={s} n={n}"

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
    extremal_count = extremal.mex_clique(args.m, args.s, args.r)
    gadget_count = graphs.count_cliques(g, args.s)
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
    cap = _cap(oracle.DEFAULT_EDGE_CAP)
    oracle._require_cap(args.m_max, cap, "edge count")  # before printing any line

    def rows() -> Iterator[tuple[bool, str]]:
        for m in range(1, args.m_max + 1):
            got = sum(1 for _ in oracle.enumerate_graphs(m, cap=cap))
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
        for old in out.glob("witness_*.edges"):  # an earlier dump, possibly a longer one
            if re.fullmatch(r"witness_[0-9]+\.edges", old.name):
                old.unlink()
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
    found, parts = oracle.find_blowup(g, args.parts, args.t, cap=_cap(oracle.DEFAULT_BLOWUP_CAP))
    payload: dict = {"parts": args.parts, "t": args.t, "found": found}
    if found:
        payload["witness"] = parts
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------


def _trace_to_lines(trace: processes.ProcessTrace) -> None:
    for i, step in enumerate(trace.steps):
        _emit(
            {
                "step": i,
                "kind": step.kind,
                "item": step.item,
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
        summary["partial_edges"] = trace.partial_last_vertex.removed_edges
    _emit(summary)


def _cmd_process_run(args: argparse.Namespace) -> int:
    """process edge / process vertex: the flags given, and the defaults for the others."""
    defaults, run = {
        "edge": (processes._edge_defaults, processes.edge_deletion_process),
        "vertex": (processes._vertex_defaults, processes.vertex_deletion_process),
    }[args.procedure]
    g = _load_graph(args.input)
    flags = {"coefficient": args.coefficient, "exponent": args.exponent, "edge_budget": args.budget}
    if None in flags.values():  # with every flag given, only ProcessConfig's own checks apply
        lazy = defaults(g, args.s, args.r, args.epsilon)
        flags = {k: lazy[k]() if flags[k] is None else flags[k] for k in lazy}
    config = processes.ProcessConfig(args.procedure, args.s, args.r, args.epsilon, **flags)
    _trace_to_lines(run(g, config))
    return EXIT_OK


def _cmd_process_stability(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = processes.stability_experiment(
        g, args.r, args.s, args.epsilon, cap=_cap(oracle.DEFAULT_PARTITION_CAP)
    )
    _emit(dataclasses.asdict(report))
    return EXIT_OK


def _cmd_process_constants(args: argparse.Namespace) -> int:
    consts = processes.proof_constants(args.r, args.s, args.epsilon)
    _emit({"r": args.r, "s": args.s, "epsilon": args.epsilon} | dataclasses.asdict(consts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# plain classes: a NamedTuple would cost every import of this module a
# third of a millisecond to build
class _Command:
    """A handler, its argument specs in the order help lists them, and its help line."""

    __slots__ = ("handler", "args", "help")

    def __init__(
        self, handler: Callable[[argparse.Namespace], int], args: tuple, help: str | None = None
    ) -> None:
        self.handler, self.args, self.help = handler, args, help


class _Group:
    """A help line, the dest that names the chosen command, and the commands."""

    __slots__ = ("help", "dest", "commands")

    def __init__(self, help: str, dest: str, commands: dict[str, _Command]) -> None:
        self.help, self.dest, self.commands = help, dest, commands


# An argument spec is a bare flag, for a required int; a (flag, add_argument
# keywords) pair; or a list of such pairs, for a required mutually exclusive
# group.  argparse derives each dest from its flag.
_INPUT = ("--input", {"required": True, "help": "edge-list file ('-' for stdin)"})
_EPSILON = ("--epsilon", {"type": float, "required": True})
_GRAPH_FORMAT = ("--format", {"choices": ("edges", "json"), "default": "edges"})
_FORBID = [("--forbid-clique", {"type": int}), ("--forbid-file", {})]
_SEARCH_OUTPUT = (("--timing", {"action": "store_true"}), ("--witnesses-dir", {}))
_PROCESS_RUN = _Command(
    _cmd_process_run,
    (
        _INPUT, "--s", "--r", _EPSILON,
        ("--coefficient", {"type": float}),
        ("--exponent", {"type": float}),
        ("--budget", {"type": int}),
    ),
)

# every command, in the order `mexkit -h` lists them; a group's commands
# get no help line of their own
_COMMANDS: dict[str, _Command | _Group] = {
    "construct": _Group("build a named graph", "kind", {
        "turan": _Command(_cmd_construct, ("--r", "--n", _GRAPH_FORMAT)),
        "colex": _Command(_cmd_construct, ("--m", _GRAPH_FORMAT)),
        "ct": _Command(_cmd_construct, ("--r", "--m", _GRAPH_FORMAT)),
        "blowup": _Command(_cmd_construct, (_INPUT, "--t", _GRAPH_FORMAT)),
        "gadget": _Command(_cmd_construct, ("--r", "--m", _GRAPH_FORMAT)),
    }),
    "count": _Command(_cmd_count, (
        _INPUT,
        [
            ("--t", {"type": int, "help": "count t-cliques"}),
            ("--profile", {"action": "store_true", "help": "full clique profile"}),
            ("--vertex", {"type": int, "help": "count s-cliques at this vertex"}),
            ("--edge", {"type": int, "nargs": 2, "metavar": ("U", "V")}),
            ("--min-degrees", {"action": "store_true"}),
        ],
        ("--s", {
            "type": int,
            "help": "clique order for --vertex, --edge and --min-degrees (default 3)",
        }),
    ), "exact clique counts of a graph file"),
    "mex": _Command(_cmd_mex, (
        [("--m", {"type": int}), ("--profile", {"action": "store_true"})], "--s", "--r",
        ("--m-max", {"type": int}),
        ("--format", {"choices": ("json", "csv")}),
    ), "extremal s-clique count at fixed edge count"),
    "ex": _Command(_cmd_ex, ("--n", "--t", "--r"), "extremal t-clique count at fixed vertex count"),
    "bound": _Command(_cmd_bound, ("--m", "--s"), "clique-count upper bound from the edge count"),
    "constants": _Command(_cmd_constants, ("--r", "--s"), "the exact constants and their squares"),
    "verify": _Group("check a theorem instance exhaustively; exit 1 on failure", "subject", {
        "frohmader": _Command(_cmd_verify_frohmader, ("--r", "--s", "--m-max")),
        "zykov": _Command(_cmd_verify_zykov, ("--r", "--t", "--n-max")),
        "shadows": _Command(_cmd_verify_shadows, (
            "--n", "--k", "--p", "--size-max",
            ("--r", {"type": int, "help": "restrict to r-colorable families"}),
        )),
        "closed-form": _Command(_cmd_verify_closed_form, ("--r-max", "--n-max")),
        "constants": _Command(_cmd_verify_constants, ("--r-max",)),
        "gadget": _Command(
            _cmd_verify_gadget, ("--r", "--m", ("--s", {"type": int, "default": 3}))
        ),
        "enumeration": _Command(_cmd_verify_enumeration, ("--m-max",)),
    }),
    "search": _Group("run a brute-force search", "target", {
        "mex": _Command(_cmd_search_mex, ("--m", "--s", _FORBID, *_SEARCH_OUTPUT)),
        "ex": _Command(_cmd_search_ex, ("--n", "--t", _FORBID, *_SEARCH_OUTPUT)),
        "min-shadow": _Command(_cmd_search_min_shadow, (
            "--n", "--k", "--size", "--p", ("--r", {"type": int}),
        )),
        "min-edits": _Command(_cmd_search_min_edits, (_INPUT, "--r")),
        "blowup": _Command(_cmd_search_blowup, (_INPUT, "--parts", "--t")),
    }),
    "process": _Group("run a deletion process and print its trace", "procedure", {
        "edge": _PROCESS_RUN,
        "vertex": _PROCESS_RUN,
        "stability": _Command(_cmd_process_stability, (_INPUT, "--r", "--s", _EPSILON)),
        "constants": _Command(_cmd_process_constants, ("--r", "--s", _EPSILON)),
    }),
}


class _NegativeNumber:
    """argparse's test for a negative number, widened to all that float() reads (-1e-3, -inf)."""

    @staticmethod
    def match(arg: str) -> bool:
        try:
            return float(arg) is not None
        except ValueError:
            return False


def _add_arguments(p: argparse.ArgumentParser, command: _Command) -> None:
    p._negative_number_matcher = _NegativeNumber  # a value, not an option, after a flag
    for spec in command.args:
        if isinstance(spec, str):
            p.add_argument(spec, type=int, required=True)
        elif isinstance(spec, list):
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in spec:
                group.add_argument(flag, **keywords)
        else:
            p.add_argument(spec[0], **spec[1])
    p.set_defaults(handler=command.handler)


def build_parser(path: tuple[str, ...] | None = None) -> argparse.ArgumentParser:
    """The mexkit parser of every command, or the parser of the one command at path's end.

    Each add_argument costs a help formatter, so the full parser costs
    milliseconds and one command's a twentieth of that.  A command's
    parser is the full parser's leaf (same prog, same arguments) and
    parses the arguments after path; it sets the names the full parser's
    top and group levels would, so both give the same namespace, and it
    prints the same bytes for -h and for every usage error but one.
    Unrecognized arguments the full parser reports against its own usage
    line, so main builds it for those, for bare `mexkit`, for top- and
    group-level help and for an unknown command.
    """
    if path is not None:
        entry = _COMMANDS[path[0]]
        p = argparse.ArgumentParser(prog=" ".join(("mexkit", *path)))
        if isinstance(entry, _Group):
            p.set_defaults(**{entry.dest: path[1]})
            entry = entry.commands[path[1]]
        _add_arguments(p, entry)
        p.set_defaults(command=path[0])
        return p
    parser = argparse.ArgumentParser(
        prog="mexkit",
        description="extremal graph constructions, exact clique counts, and brute-force verification",
    )
    sub = parser.add_subparsers(dest="command")
    for name, entry in _COMMANDS.items():
        if isinstance(entry, _Group):
            group_sub = sub.add_parser(name, help=entry.help).add_subparsers(
                dest=entry.dest, required=True
            )
            for command_name, command in entry.commands.items():
                _add_arguments(group_sub.add_parser(command_name), command)
        else:
            _add_arguments(sub.add_parser(name, help=entry.help), entry)
    return parser


def _command_path(argv: list[str]) -> tuple[str, ...] | None:
    """The command path argv starts with: a direct command, or a group and one of its commands.

    None for anything else (no command, a help or other flag before the
    command, an unknown name), which only the full parser can answer.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if isinstance(entry, _Command):
        return (argv[0],)
    if isinstance(entry, _Group) and len(argv) > 1 and argv[1] in entry.commands:
        return (argv[0], argv[1])
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = _command_path(argv)
    try:
        if path is not None:
            args, extra = build_parser(path).parse_known_args(argv[len(path) :])
        if path is None or extra:
            parser = build_parser()
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
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
