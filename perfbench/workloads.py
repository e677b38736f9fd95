"""The four workloads: seeded inputs, the timed calls into mexkit, and the checks.

Each workload has three parts.  prepare(seed) builds the inputs (counted in
setup_s), execute(inputs) makes the calls into mexkit's public functions
(timed as wall_s), and check(inputs, outputs) compares every answer with
the independent references in reference.py after the clock has stopped.
An instance fails when its answer is wrong, when the call raised, or when
the command returned a non-zero exit code.

Why each workload is here, and which layers it should move, is written
in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import io
import math
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

from mexkit import cli, extremal, oracle, processes
from mexkit.graphs import Graph

import reference


@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    transcript: str  # every answer, in order; hashed into output_sha256


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], object]
    execute: Callable[[object], object]
    check: Callable[[object, object], Outcome]


@dataclass(frozen=True)
class Raised:
    """Stands in for the answer of a call that raised."""

    error: str


def _attempt(fn: Callable, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an exception is a failed instance, not a crashed run
        return Raised(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# exhaustive workloads: fixed instance families run through the CLI
# ---------------------------------------------------------------------------

FROHMADER = [(3, 3), (3, 4), (4, 4)]  # (s, r)
# m = 8 costs 10-12 s per child, nearly all of it building the m = 8 level,
# so a run would hold three children and its median would carry the
# machine's drift; m = 7 builds the levels the same way in about 1 s.
FROHMADER_M_MAX = 7
ZYKOV = [(2, 2), (2, 3), (3, 3)]  # (t, r)
# n = 7 costs about 20 s per child for (t, r) = (3, 3) alone, which would
# stretch a run of three children past a minute; n = 6 keeps the full scan
# family below 1 s.
ZYKOV_N_MAX = 6

_FROHMADER_LINE = re.compile(r"m=(\d+) brute=(\d+) closed=(\d+) (ok|FAIL)")
_ZYKOV_LINE = re.compile(r"n=(\d+) brute=(\d+) closed=(\d+) witnesses=(\d+) (ok|FAIL)")


def _run_cli(argvs: list[list[str]]) -> list[tuple[object, str]]:
    outputs = []
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = _attempt(cli.main, argv)
        outputs.append((code, buf.getvalue()))
    return outputs


def _check_cli(argvs, outputs, instances, expected_line) -> tuple[int, list[str], str]:
    """Check each command's verdict lines; instances(argv) lists (key, check(match) -> problem)."""
    attempted = 0
    failures = []
    transcript = []
    for argv, (code, text) in zip(argvs, outputs):
        transcript.append(" ".join(argv) + f" -> {code}\n{text}")
        lines = {}
        for line in text.splitlines():
            match = expected_line.fullmatch(line)
            if match:
                lines[int(match.group(1))] = match
        for key, check in instances(argv):
            attempted += 1
            where = f"{' '.join(argv)} @{key}"
            if code != 0:
                failures.append(f"{where}: exit {code}")
            elif key not in lines:
                failures.append(f"{where}: no verdict line")
            else:
                problem = check(key, lines[key])
                if problem:
                    failures.append(f"{where}: {problem}")
    return attempted, failures, "".join(transcript)


def _arg(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _prepare_exhaustive_mex(seed: int) -> list[list[str]]:
    return [
        ["verify", "frohmader", "--r", str(r), "--s", str(s), "--m-max", str(FROHMADER_M_MAX)]
        for s, r in FROHMADER
    ]


def _check_exhaustive_mex(argvs, outputs) -> Outcome:
    def instances(argv):
        s, r = _arg(argv, "--s"), _arg(argv, "--r")

        def check(m, match):
            want = reference.mex_reference(m, s, r)
            brute, closed, verdict = int(match.group(2)), int(match.group(3)), match.group(4)
            if brute != want or closed != want or verdict != "ok":
                return f"brute={brute} closed={closed} {verdict}, reference {want}"
            return None

        return [(m, check) for m in range(1, _arg(argv, "--m-max") + 1)]

    attempted, failures, transcript = _check_cli(argvs, outputs, instances, _FROHMADER_LINE)
    # the enumeration levels are cached by now, so this recount is not timed work
    for m, want in enumerate(reference.A000664[:FROHMADER_M_MAX], start=1):
        attempted += 1
        got = _attempt(lambda: sum(1 for _ in oracle.enumerate_graphs(m)))
        transcript += f"enumerate_graphs({m}) = {got}\n"
        if got != want:
            failures.append(f"enumerate_graphs({m}) = {got}, A000664 gives {want}")
    return Outcome(attempted, failures, transcript)


def _prepare_zykov_scan(seed: int) -> list[list[str]]:
    return [
        ["verify", "zykov", "--r", str(r), "--t", str(t), "--n-max", str(ZYKOV_N_MAX)]
        for t, r in ZYKOV
    ]


def _check_zykov_scan(argvs, outputs) -> Outcome:
    def instances(argv):
        t, r = _arg(argv, "--t"), _arg(argv, "--r")

        def check(n, match):
            want = reference.zykov_reference(n, t, r)
            brute, closed = int(match.group(2)), int(match.group(3))
            witnesses, verdict = int(match.group(4)), match.group(5)
            if brute != want or closed != want or witnesses != 1 or verdict != "ok":
                return f"brute={brute} closed={closed} witnesses={witnesses} {verdict}, reference {want}"
            return None

        return [(n, check) for n in range(max(t, r), _arg(argv, "--n-max") + 1)]

    return Outcome(*_check_cli(argvs, outputs, instances, _ZYKOV_LINE))


# ---------------------------------------------------------------------------
# closed_form: seeded queries through the closed-form front ends
# ---------------------------------------------------------------------------

MEX_PAIRS = [(s, r) for r in range(2, 7) for s in range(2, r + 1)]
# Counting K_s in CT_r(m) enumerates its (s-1)-cliques, about m^((s-1)/2) of
# them, so the top of the m range shrinks with s to keep each query under
# half a second: mex_clique(20000, 6, 6) alone takes over two minutes.
MEX_M_MIN = 1_000
MEX_M_MAX = {2: 50_000, 3: 50_000, 4: 12_000, 5: 4_000, 6: 1_500}
ZYKOV_PAIRS = [(t, r) for t in (2, 3) for r in range(t, 7)]
ZYKOV_N_RANGE = (100, 800)
PROFILE_PAIRS = [(3, 4), (5, 6)]  # (s, r)
PROFILE_M_MAX = {3: 3_000, 5: 2_000}
CLOSED_FORM_GRID = [(r, s, n) for r in range(2, 6) for s in range(2, r + 1) for n in range(r, 31, r)]


def _log_uniform(lo: int, hi: int, u: float) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _stratified_log(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values log-uniform in [lo, hi], the k-th drawn from the k-th of count equal strata.

    The k-th value always goes to the k-th pair, so the total work of a
    child hardly depends on the seed, and the spread between seeds measures
    the machine, not the inputs: with strata shuffled among pairs of unequal
    cost, a child's work varied by a third from seed to seed.  The top
    stratum is pinned to hi: the largest instance dominates both the time
    and the peak memory, so it has the same size for every seed.
    """
    return [
        hi if k == count - 1 else _log_uniform(lo, hi, (k + rng.random()) / count)
        for k in range(count)
    ]


def _prepare_closed_form(seed: int) -> list[tuple]:
    rng = random.Random(f"closed_form/{seed}")
    queries: list[tuple] = []
    # stratify among the pairs that share an m range
    for top in sorted(set(MEX_M_MAX.values()), reverse=True):
        pairs = [(s, r) for s, r in MEX_PAIRS if MEX_M_MAX[s] == top]
        for (s, r), m in zip(pairs, _stratified_log(rng, MEX_M_MIN, top, len(pairs))):
            queries.append(("mex_clique", m, s, r))
    for (t, r), n in zip(ZYKOV_PAIRS, _stratified_log(rng, *ZYKOV_N_RANGE, len(ZYKOV_PAIRS))):
        queries.append(("zykov_ex", n, t, r))
    for s, r in PROFILE_PAIRS:
        queries.append(("mex_profile", r, s, rng.randint(PROFILE_M_MAX[s] // 2, PROFILE_M_MAX[s])))
    for r, s, n in CLOSED_FORM_GRID:
        queries.append(("closed_form_check", r, s, n))
    return queries


def _execute_closed_form(queries: list[tuple]) -> list[object]:
    return [_attempt(getattr(extremal, kind), *args) for kind, *args in queries]


def _closed_form_expected(kind: str, args: tuple) -> object:
    if kind == "mex_clique":
        return reference.mex_reference(*args)
    if kind == "zykov_ex":
        return reference.zykov_reference(*args)
    if kind == "mex_profile":
        r, s, m_max = args
        return [reference.mex_reference(m, s, r) for m in range(1, m_max + 1)]
    return reference.closed_form_reference(*args)


def _check_closed_form(queries, answers) -> Outcome:
    failures = []
    transcript = []
    for (kind, *args), got in zip(queries, answers):
        transcript.append(f"{kind}{tuple(args)} = {got}\n")
        want = _closed_form_expected(kind, tuple(args))
        if got != want:
            shown = got if not isinstance(got, list) else "a profile differing from the reference"
            failures.append(f"{kind}{tuple(args)} = {shown}")
    return Outcome(len(queries), failures, "".join(transcript))


# ---------------------------------------------------------------------------
# deletion_process: seeded K_{r+1}-free graphs through the deletion processes
# ---------------------------------------------------------------------------

# (s, r, n, edge target).  The sizes are fixed and the seed drives only the
# insertion order: the edge process rescans every edge at every step, so its
# cost grows like m^2 (faster for s = 4), and drawing sizes would make the
# spread between seeds measure the inputs instead of the machine.  The
# K_5-free graph stays small because s = 4 costs more per scanned edge.
DELETION_GRAPHS = [
    (3, 3, 70, 700),
    (3, 3, 105, 1550),
    (4, 4, 58, 670),
]
EPSILON = 0.2  # edge mode stops on its threshold; vertex mode trims lightly
AGGRESSIVE_FACTOR = 4  # threshold coefficient multiplier; stops on the edge budget instead


def _has_clique(adj: list[int], mask: int, k: int) -> bool:
    if k == 0:
        return True
    while mask:
        low = mask & -mask
        mask ^= low
        if _has_clique(adj, mask & adj[low.bit_length() - 1], k - 1):
            return True
    return False


def greedy_clique_free(n: int, m: int, r: int, rng: random.Random) -> Graph:
    """Insert pairs in random order, skipping any that would close a K_{r+1}, until m edges."""
    pairs = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    rng.shuffle(pairs)
    adj = [0] * (n + 1)
    edges = 0
    for u, v in pairs:
        if edges == m:
            break
        if not _has_clique(adj, adj[u] & adj[v], r - 1):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges += 1
    return Graph(n, tuple(adj))


def _prepare_deletion_process(seed: int) -> list[tuple[int, int, Graph]]:
    rng = random.Random(f"deletion_process/{seed}")
    return [(s, r, greedy_clique_free(n, m, r, rng)) for s, r, n, m in DELETION_GRAPHS]


def _execute_deletion_process(graphs) -> list[tuple]:
    runs = []
    for s, r, g in graphs:
        edge = processes.default_edge_config(g, s, r, EPSILON)
        aggressive = dataclasses.replace(edge, coefficient=AGGRESSIVE_FACTOR * edge.coefficient)
        vertex = processes.default_vertex_config(g, s, r, EPSILON)
        runs.append((g, edge, _attempt(processes.edge_deletion_process, g, edge)))
        runs.append((g, aggressive, _attempt(processes.edge_deletion_process, g, aggressive)))
        runs.append((g, vertex, _attempt(processes.vertex_deletion_process, g, vertex)))
    return runs


def _describe_trace(trace) -> str:
    steps = " ".join(f"{step.item}:{step.value}:{step.edges_after}" for step in trace.steps)
    partial = trace.partial_last_vertex
    return (
        f"steps {steps}\nexhausted={trace.budget_exhausted} "
        f"partial={partial.vertex if partial else None}:"
        f"{partial.removed_edges if partial else ()}\n"
    )


def _check_deletion_process(graphs, runs) -> Outcome:
    failures = []
    transcript = []
    for g, config, trace in runs:
        where = (
            f"{config.mode} s={config.s} r={config.r} n={g.vertex_count} m={g.edge_count} "
            f"coefficient={config.coefficient!r} budget={config.edge_budget}"
        )
        if isinstance(trace, Raised):
            failures.append(f"{where}: {trace.error}")
            transcript.append(f"{where}\n{trace.error}\n")
            continue
        transcript.append(f"{where}\n{_describe_trace(trace)}")
        problems = reference.check_trace(g.adjacency, config, trace)
        if problems:
            failures.append(f"{where}: {'; '.join(problems[:3])}")
    return Outcome(len(runs), failures, "".join(transcript))


WORKLOADS = {
    w.name: w
    for w in [
        Workload("exhaustive_mex", _prepare_exhaustive_mex, _run_cli, _check_exhaustive_mex),
        Workload("zykov_scan", _prepare_zykov_scan, _run_cli, _check_zykov_scan),
        Workload("closed_form", _prepare_closed_form, _execute_closed_form, _check_closed_form),
        Workload(
            "deletion_process",
            _prepare_deletion_process,
            _execute_deletion_process,
            _check_deletion_process,
        ),
    ]
}
