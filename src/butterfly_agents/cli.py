"""Command-line front end: run one protocol on one graph, or sweep sizes.

Exit codes: 0 success; 1 verification mismatch, broken phase invariant,
illegal port move or failed oracle self-check; 2 bad configuration,
unreadable input, unwritable output, or a graph the agents find is not
bipartite; 3 round budget exhausted.  Set BUTTERFLY_AGENTS_LOG to a
level name (DEBUG, INFO, ...) to get progress logging on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import random
import sys
from contextlib import contextmanager, nullcontext

from .graphs import (
    MAX_CROSS_PAIRS,
    Bipartition,
    GraphFormatError,
    PortGraph,
    load_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from .oracle import OracleMismatch, check_butterflies, check_tree
from .protocols.butterfly import PHASES, NotBipartiteSwarm, count_butterflies
from .protocols.election import elect_leader_and_tree
from .protocols.known_leader import known_leader_tree
from .protocols.meeting import MeetingWindowProgram, window_length
from .runtime import (
    IllegalPort,
    PhaseInvariantError,
    RoundLimitExceeded,
    Timeline,
    id_bits,
    place_dispersed,
    run,
    write_trace_jsonl,
)

log = logging.getLogger("butterfly_agents")

PROTOCOLS = ("meeting-demo", "known-leader", "election", "butterfly-full")


class CliError(Exception):
    """Bad flags, bad generator parameters, unreadable or unwritable files."""


@contextmanager
def writing(path: str):
    """Report an ``OSError`` raised while writing ``path`` as a ``CliError``."""
    try:
        yield
    except OSError as exc:  # one raised by a write or close names no file
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# input assembly
# ---------------------------------------------------------------------------


def _build_graph(args) -> tuple[PortGraph, Bipartition | None]:
    if args.graph and args.gen:
        raise CliError("--graph and --gen are mutually exclusive")
    if args.graph:
        try:
            return load_graph(args.graph)
        except GraphFormatError as exc:
            raise CliError(f"bad graph file: {exc}") from exc
    if not args.gen:
        raise CliError("one of --gen or --graph is required")
    name, *params = args.gen
    try:
        if name == "complete":
            a, b = map(int, params)
            return make_complete_bipartite(a, b)
        if name == "random":
            a, b, prob = params + ["0.3"] if len(params) == 2 else params
            return make_random_connected_bipartite(int(a), int(b), float(prob), seed=args.seed)
        if name == "path":
            (k,) = map(int, params)
            return make_path(k)
        if name == "clique":
            (k,) = map(int, params)
            return make_clique(k), None
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad --gen {name} parameters {params}: {exc}") from exc
    raise CliError(f"unknown generator {name!r} (complete, random, path, clique)")


def _make_ids(spec: str, n: int, rng: random.Random) -> list[int]:
    if spec == "seq":
        return list(range(n))
    if spec == "rand":
        return rng.sample(range(2 * n), n)
    if spec.startswith("list:"):
        try:
            ids = [int(tok) for tok in spec[5:].split(",") if tok]
        except ValueError as exc:
            raise CliError(f"bad --ids list: {exc}") from exc
        return ids
    raise CliError(f"--ids must be seq, rand, or list:... (got {spec!r})")


# ---------------------------------------------------------------------------
# the run command
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    for path in (args.trace, args.report):
        if path:  # fail before the run, not after it; "a" keeps an existing file's bytes
            with writing(path):
                open(path, "a").close()
    graph, _bip = _build_graph(args)
    n = graph.node_count
    rng = random.Random(args.seed)
    ids = _make_ids(args.ids, n, rng)
    try:
        config = place_dispersed(graph, ids, lam=args.lam)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    log.info(
        "graph: n=%d m=%d max_degree=%d; protocol %s, ids %s",
        n, graph.edge_count, graph.max_degree, args.protocol, args.ids,
    )

    problems: list[str] = []
    settings = {"max_rounds": args.max_rounds, "record_trace": args.trace is not None}

    if args.protocol == "meeting-demo":
        program = MeetingWindowProgram({s.id: 0 for s in config.states})
        timeline = Timeline(**settings)
        timeline.add("meeting", run(graph, config, program, **timeline.settings))
        trace = timeline.trace
        report = timeline.report({
            "window_rounds": window_length(config.lam),
            "meetings": [list(m) for m in program.meetings],
        })
        if args.verify:
            at_node = {s.home_node: s.id for s in config.states}
            met = {(u, v) for _, u, v in program.meetings}
            for s in config.states:
                other = at_node[graph.neighbor_via(s.home_node, 0)[0]]
                if (s.id, other) not in met:
                    problems.append(f"agent {s.id} never met agent {other} across port 0")
    elif args.protocol == "known-leader":
        leader = args.leader if args.leader is not None else min(ids)
        if leader not in set(ids):
            raise CliError(f"--leader {leader} is not among the agent ids")
        res = known_leader_tree(graph, config, leader, **settings)
        report, trace = res.report, res.trace
        if args.verify:
            problems += check_tree(graph, res, leader)
            budget = 4 * n
            spent = res.report.rounds_per_phase["assignment"]
            if spent > budget:
                problems.append(f"assignment took {spent} rounds, budget {budget}")
    elif args.protocol == "election":
        res = elect_leader_and_tree(graph, config, **settings)
        report, trace = res.report, res.trace
        if args.verify:
            problems += check_tree(graph, res, min(ids))
    elif args.protocol == "butterfly-full":
        res = count_butterflies(graph, config, **settings)
        report, trace = res.report, res.trace
        if args.verify:
            problems += check_butterflies(graph, res, min(ids))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown protocol {args.protocol}")

    if args.trace:
        with writing(args.trace):
            write_trace_jsonl(args.trace, trace)
        log.info("trace written to %s", args.trace)
    if args.report:
        payload = json.loads(report.to_json())
        if args.protocol == "butterfly-full":
            # counting runs also carry their results at the top level
            payload["total"] = res.total
            payload["per_node"] = {str(a): c for a, c in sorted(res.per_node.items())}
            payload["rounds"] = dict(report.rounds_per_phase)
        with writing(args.report), open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        log.info("report written to %s", args.report)

    print(f"protocol:    {args.protocol}")
    print(f"rounds:      {report.rounds_total}  {report.rounds_per_phase}")
    print(f"peak memory: {max(report.peak_memory_bits.values())} bits/agent")
    for key, value in report.outputs.items():
        text = str(value)
        print(f"{key}: {text if len(text) <= 120 else text[:117] + '...'}")
    if args.verify:
        if problems:
            for p in problems:
                print(f"VERIFY FAIL: {p}", file=sys.stderr)
            return 1
        print("verify:      ok")
    return 0


# ---------------------------------------------------------------------------
# the sweep command
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    rng = random.Random(args.seed)
    sizes = []
    for token in args.sizes:
        try:
            a, b = token.lower().split("x")
            sizes.append((int(a), int(b)))
        except ValueError as exc:
            raise CliError(f"bad --sizes entry {token!r}, want AxB") from exc
        if min(sizes[-1]) < 1:
            raise CliError(f"bad --sizes entry {token!r}: both sides need at least one node")
        if sizes[-1][0] * sizes[-1][1] > MAX_CROSS_PAIRS:
            raise CliError(f"bad --sizes entry {token!r}: more than 2**32 cross pairs")
    if not 0.0 <= args.edge_prob <= 1.0:
        raise CliError(f"--edge-prob {args.edge_prob} is outside [0, 1]")

    with writing(args.out), (
        nullcontext(sys.stdout) if args.out == "-"
        else open(args.out, "w", newline="", encoding="utf-8")
    ) as out:
        writer = csv.writer(out)
        writer.writerow(
            ["n", "max_degree", "min_side", "id_width", "status", "rounds_total"]
            + list(PHASES)
            + ["peak_bits"]
        )
        for a, b in sizes:
            g, _ = make_random_connected_bipartite(
                a, b, args.edge_prob, seed=rng.randint(0, 2**31)
            )
            n = g.node_count
            ids = rng.sample(range(2 * n), n)
            config = place_dispersed(g, ids)
            base = [n, g.max_degree, min(a, b), id_bits(config.lam)]
            try:
                res = count_butterflies(g, config, max_rounds=args.max_rounds)
            except Exception as exc:  # a failed point must not kill the sweep
                log.warning("sweep point %dx%d failed: %s", a, b, exc)
                writer.writerow(
                    base + [f"failed:{type(exc).__name__}", ""]
                    + [""] * len(PHASES) + [""]
                )
                continue
            rp = res.report.rounds_per_phase
            writer.writerow(
                base
                + ["ok", res.report.rounds_total]
                + [rp[p] for p in PHASES]
                + [max(res.report.peak_memory_bits.values())]
            )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butterfly-agents",
        description="Mobile-agent protocols on anonymous port-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one protocol on one graph")
    p_run.add_argument("--gen", nargs="+", metavar="ARG",
                       help="generate a graph: complete A B | random A B [PROB] | path K | clique K")
    p_run.add_argument("--graph", help="load a graph file instead of generating")
    p_run.add_argument("--ids", default="rand",
                       help="agent ids: seq | rand | list:3,1,4 (default rand)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="RNG seed for rand ids / random gen (default 0)")
    p_run.add_argument("--lam", type=int, default=None,
                       help="declared id bound (default: the largest id)")
    p_run.add_argument("--protocol", choices=PROTOCOLS, default="butterfly-full")
    p_run.add_argument("--leader", type=int, default=None,
                       help="leader id for known-leader (default: smallest id)")
    p_run.add_argument("--verify", action="store_true",
                       help="check the outcome against the centralized oracles")
    p_run.add_argument("--trace", metavar="PATH", help="write a JSONL movement trace")
    p_run.add_argument("--report", metavar="PATH", help="write the run report as JSON")
    p_run.add_argument("--max-rounds", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="CSV of rounds/memory across graph sizes")
    p_sweep.add_argument("--sizes", nargs="+", default=["4x4", "8x8", "16x16", "32x32"],
                         metavar="AxB")
    p_sweep.add_argument("--edge-prob", type=float, default=0.3)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p_sweep.add_argument("--max-rounds", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BUTTERFLY_AGENTS_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_rounds is not None and args.max_rounds < 1:
            raise CliError(f"--max-rounds must be at least 1, got {args.max_rounds}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotBipartiteSwarm as exc:
        print(f"error: {exc} (phase {exc.phase})", file=sys.stderr)
        return 2
    except RoundLimitExceeded as exc:
        where = f"phase {exc.phase}, round {exc.round}"
        if exc.agent is not None:
            where += f", agent {exc.agent}"
        print(f"round limit ({where}): {exc}", file=sys.stderr)
        return 3
    except PhaseInvariantError as exc:
        print(f"invariant broken: {exc}", file=sys.stderr)
    except IllegalPort as exc:
        where = f"phase {exc.phase}, round {exc.round}, agent {exc.agent}"
        print(f"illegal port ({where}): {exc}", file=sys.stderr)
    except OracleMismatch as exc:
        print(f"oracle self-check failed: {exc}", file=sys.stderr)
    return 1  # only the three failures just above get here


if __name__ == "__main__":
    sys.exit(main())
