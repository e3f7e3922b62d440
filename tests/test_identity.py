"""Cross-commit identity: pinned digests of full pipeline runs.

A8 compares two runs of the same code, so it cannot catch an engine change
that reorders trace events or shifts a round.  These digests were computed
at commit c53beb4, with the round engine as it stood before the per-run
width table and the per-node snapshot tuples went in; any later change to
the engine must keep them.  A mismatch means simulated behaviour changed:
rounds, peak bits, outputs, or the order of trace events.
"""

import hashlib
import random

import pytest

from butterfly_agents.graphs import make_complete_bipartite, make_random_connected_bipartite
from butterfly_agents.protocols.butterfly import count_butterflies
from butterfly_agents.runtime import place_dispersed, write_trace_jsonl


def a8_instance():
    g, _ = make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)
    return g, random.Random(5).sample(range(64), 20)


def k34_instance():
    g, _ = make_complete_bipartite(3, 4)
    return g, [12, 3, 40, 7, 25, 1, 18]


def random_instance():
    g, _ = make_random_connected_bipartite(6, 8, edge_prob=0.35, seed=3)
    return g, random.Random(3).sample(range(100), 14)


# instance -> (sha256 of report.to_json(), sha256 of the JSONL trace)
PINNED = {
    "a8": (
        a8_instance,
        "a26c83b1e51fc858e7098a8d9aac38ae36f21da98fb5cd664d905a4e30766b09",
        "a977170693bf62585384ed016af9c77920b8f723ebe371640a009b3a65df5de5",
    ),
    "k34": (
        k34_instance,
        "d348848ee8d039176277ec456fc2dfeabc3d0ed4e488430a6f417c4e76e6b6e1",
        "c9a85ef853bbd010f906830f28b406aa6daf020579484cc87acae3c9a1af28ec",
    ),
    "random14": (
        random_instance,
        "c6afeb1a937cbbd0c88f71eadb92c8d71b53dae1a0c90ce5fede3b8290b41c86",
        "922c52052a835bbeb29fd2d4bcede6bd23b08536a75a66d04f8ff1f2b38449af",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_digests_are_pinned(name, tmp_path):
    make, report_digest, trace_digest = PINNED[name]
    g, ids = make()
    res = count_butterflies(g, place_dispersed(g, ids), record_trace=True)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(str(path), res.trace)
    got_report = hashlib.sha256(res.report.to_json().encode("utf-8")).hexdigest()
    got_trace = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (got_report, got_trace) == (report_digest, trace_digest)
