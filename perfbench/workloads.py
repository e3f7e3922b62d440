"""Workload batches, the pipeline each instance runs, and its oracle checks.

A workload is a fixed batch of instances drawn from the workload seed.
Every instance runs the public pipeline ``count_butterflies`` and every
result is checked against the ``oracle`` module.  The package under test
is passed in as a namespace of modules (see ``run.load_package``) so the
tracer can patch exactly the module objects the batch uses.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass

WORKLOADS = ("sparse_pipeline", "dense_pipeline", "traced_pipeline")

# Graph shapes per workload, as (generator, arguments).  "random" means
# make_random_connected_bipartite(a, b, p, seed) with a seed drawn from the
# workload seed; "complete" means make_complete_bipartite(a, b).  The tiny
# shapes exist for the benchmark's own smoke test.
SHAPES = {
    "sparse_pipeline": [("random", (1024, 1024, 0.005))] * 3,
    "dense_pipeline": [
        ("complete", (48, 48)),
        ("complete", (40, 56)),
        ("random", (96, 96, 0.5)),
        ("random", (80, 112, 0.5)),
    ],
    "traced_pipeline": [("random", (256, 256, 0.02))] * 3,
}
TINY_SHAPES = {
    "sparse_pipeline": [("random", (16, 16, 0.15))] * 2,
    "dense_pipeline": [("complete", (4, 4)), ("complete", (3, 5)), ("random", (6, 6, 0.5))],
    "traced_pipeline": [("random", (8, 8, 0.3))],
}


def writes_trace(workload: str) -> bool:
    """Whether instances record a trace and write it and the report to files."""
    return workload == "traced_pipeline"


@dataclass(frozen=True)
class Instance:
    label: str
    graph: object
    ids: tuple[int, ...]


def build_batch(ns, workload: str, seed: int, tiny: bool = False) -> tuple[list[Instance], float]:
    """Generate the workload's graphs and draw ids; returns (batch, generator seconds).

    Ids are distinct random values below 2n, the CLI's ``--ids rand``.
    """
    rng = random.Random(f"{workload}:{seed}")
    batch = []
    gen_s = 0.0
    for kind, params in (TINY_SHAPES if tiny else SHAPES)[workload]:
        t0 = time.perf_counter()
        if kind == "complete":
            graph, _ = ns.graphs.make_complete_bipartite(*params)
        else:
            graph, _ = ns.graphs.make_random_connected_bipartite(
                *params, seed=rng.randrange(1 << 32)
            )
        gen_s += time.perf_counter() - t0
        n = graph.node_count
        ids = tuple(rng.sample(range(2 * n), n))
        label = f"{kind}{params}"
        batch.append(Instance(label=label, graph=graph, ids=ids))
    return batch, gen_s


@dataclass
class Outcome:
    """One instance's pipeline result, or the exception that stopped it."""

    result: object = None
    report_json: str = ""
    trace_sha256: str | None = None
    pipeline_s: float = 0.0
    error: str | None = None


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pipeline(ns, workload: str, inst: Instance, tmpdir: str) -> Outcome:
    """Run one instance; only the pipeline (and its file writes) is timed.

    On ``traced_pipeline`` the instance records a trace and writes it and
    the report with the calls ``run --trace --report`` makes; the files are
    hashed after timing and removed.
    """
    traced = writes_trace(workload)
    trace_path = os.path.join(tmpdir, "trace.jsonl")
    report_path = os.path.join(tmpdir, "report.json")
    out = Outcome()
    try:
        t0 = time.perf_counter()
        config = ns.runtime.place_dispersed(inst.graph, inst.ids)
        res = ns.butterfly.count_butterflies(inst.graph, config, record_trace=traced)
        if traced:
            ns.runtime.write_trace_jsonl(trace_path, res.trace)
            report_json = res.report.to_json()
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report_json)
        out.pipeline_s = time.perf_counter() - t0
        if traced:
            out.trace_sha256 = sha256_file(trace_path)
        else:
            report_json = res.report.to_json()
    except Exception as exc:  # recorded and counted; the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        for path in (trace_path, report_path):
            if os.path.exists(path):
                os.remove(path)
    out.result = res
    out.report_json = report_json
    return out


def verify(ns, inst: Instance, res) -> list[str]:
    """Every output of one pipeline run against the oracles; [] when all agree."""
    oracle = ns.oracle
    g = inst.graph
    n = g.node_count
    election = res.election
    home = election.tree.home_node
    problems = []

    if res.total != oracle.oracle_total_butterflies(g):
        problems.append(f"total {res.total} differs from the oracle")
    want = dict(enumerate(oracle.oracle_per_node_butterflies(g)))
    if {home[a]: c for a, c in res.per_node.items()} != want:
        problems.append("per-node counts differ from the oracle")
    if election.leader_id != min(inst.ids):
        problems.append(f"leader {election.leader_id} is not the minimum id {min(inst.ids)}")
    tree = oracle.check_spanning_tree(
        g, election.tree.node_parent_ports(), home[election.tree.root_id]
    )
    if not tree.ok:
        problems.append(f"spanning tree: {'; '.join(tree.problems)}")
    color = oracle.oracle_coloring(g)
    lead = color[home[election.leader_id]]
    side = {a: 0 if color[home[a]] == lead else 1 for a in home}
    if election.partition != side:
        problems.append("partition differs from the oracle coloring")
    count0 = sum(1 for s in side.values() if s == 0)
    expected = (n, count0, n - count0, g.max_degree, 2 * g.edge_count)
    wrong = [a for a in home if tuple(election.received.get(a, ())) != expected]
    if wrong:
        problems.append(f"{len(wrong)} agents did not receive {expected}")
    return problems
