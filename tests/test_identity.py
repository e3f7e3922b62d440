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
from butterfly_agents.protocols.election import elect_leader_and_tree
from butterfly_agents.protocols.known_leader import known_leader_tree
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


# The two tree entry points on their own, pinned at commit 09887c8 before
# their shared epilogue and the phase timeline went in.  known_leader_tree
# is told the minimum id, the leader the election finds.
TREE_PINNED = {
    ("election", "a8"): (
        "9b61e0c3a875c9163e039263af729af9080e61ee12b27b8b7bde907cc8abe7a5",
        "9b8c80ef73f2937df303084abe0a4afd1ff642a69b9d1201a4049f5ba2eafd12",
    ),
    ("election", "k34"): (
        "cc2c4daf4304667cd49737240991738ea1d2d690df8394875683f8e1ff19edb9",
        "2d5137bd0b5d8940941ac9ce34396dba39fa5fa796edb607a89d239b9ca4699c",
    ),
    ("known_leader", "a8"): (
        "af2103db3011e7340382b7012cd5e5be4e322a40bd95d071580e3018e7cd187f",
        "77461ffb6041060bd02922dd6daec7ff6a91aa2d43f8efc50577d65bec10d684",
    ),
    ("known_leader", "k34"): (
        "ffa68e21d7383529e3ee510c495d1fab4b10465824a43b8a901a4f9b8aebdd94",
        "da3b66b71ecdeb91d881df20ff7b1832a589bd703f283f955c69524f5dc2bc3a",
    ),
}


def digests(res, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(str(path), res.trace)
    return (
        hashlib.sha256(res.report.to_json().encode("utf-8")).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_digests_are_pinned(name, tmp_path):
    make, report_digest, trace_digest = PINNED[name]
    g, ids = make()
    res = count_butterflies(g, place_dispersed(g, ids), record_trace=True)
    assert digests(res, tmp_path) == (report_digest, trace_digest)


@pytest.mark.parametrize("entry,name", sorted(TREE_PINNED))
def test_tree_entry_point_digests_are_pinned(entry, name, tmp_path):
    g, ids = PINNED[name][0]()
    config = place_dispersed(g, ids)
    if entry == "election":
        res = elect_leader_and_tree(g, config, record_trace=True)
    else:
        res = known_leader_tree(g, config, min(ids), record_trace=True)
    assert digests(res, tmp_path) == TREE_PINNED[entry, name]
