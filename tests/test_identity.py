"""Cross-commit identity: pinned digests of full pipeline runs.

A8 compares two runs of the same code, so it cannot catch an engine change
that reorders trace events or shifts a round.  The report digests were
computed at commit c53beb4, with the round engine as it stood before the
per-run width table and the per-node snapshot tuples went in; any later
change to the engine must keep them.  Each run also pins its trace twice:
as written, and sorted by (round, agent).  The sorted digests were
computed at commit a253382, whose raw traces still matched the original
pins, so the events themselves are unchanged since those pins.  The raw
digests were re-pinned once, right after, when the engine began writing
every round in ascending agent id whichever agents it stepped; each now
equals its sorted digest.  A mismatch means simulated behaviour changed:
rounds, peak bits, outputs, trace events, or the rank order of a round.
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


# instance -> (sha256 of report.to_json(), sha256 of the JSONL trace,
#              sha256 of the JSONL of the sorted trace)
PINNED = {
    "a8": (
        a8_instance,
        "a26c83b1e51fc858e7098a8d9aac38ae36f21da98fb5cd664d905a4e30766b09",
        "1536ecedef65343b5bf19340df654300f32918e495df1356da7958227e669829",
        "1536ecedef65343b5bf19340df654300f32918e495df1356da7958227e669829",
    ),
    "k34": (
        k34_instance,
        "d348848ee8d039176277ec456fc2dfeabc3d0ed4e488430a6f417c4e76e6b6e1",
        "441ec1b70b7192f8cd90d758f9b440764468588dfc5d3b280dee7f062d63103f",
        "441ec1b70b7192f8cd90d758f9b440764468588dfc5d3b280dee7f062d63103f",
    ),
    "random14": (
        random_instance,
        "c6afeb1a937cbbd0c88f71eadb92c8d71b53dae1a0c90ce5fede3b8290b41c86",
        "116d8ccbc5c9336b4325502f10d564c69011fa64ec4bde2c0ec58bd609b2ed36",
        "116d8ccbc5c9336b4325502f10d564c69011fa64ec4bde2c0ec58bd609b2ed36",
    ),
}


# The two tree entry points on their own, pinned at commit 09887c8 before
# their shared epilogue and the phase timeline went in.  known_leader_tree
# is told the minimum id, the leader the election finds.
TREE_PINNED = {
    ("election", "a8"): (
        "9b61e0c3a875c9163e039263af729af9080e61ee12b27b8b7bde907cc8abe7a5",
        "b8b02506e6bf0b1116e7b4e709d32cde2dc06a7f53b79b37524cefaecc48a87c",
        "b8b02506e6bf0b1116e7b4e709d32cde2dc06a7f53b79b37524cefaecc48a87c",
    ),
    ("election", "k34"): (
        "cc2c4daf4304667cd49737240991738ea1d2d690df8394875683f8e1ff19edb9",
        "daad5bad27edb9c967ccbe0f5ea796a2c4b1c094e10ecad78b3d99810a1434a7",
        "daad5bad27edb9c967ccbe0f5ea796a2c4b1c094e10ecad78b3d99810a1434a7",
    ),
    ("known_leader", "a8"): (
        "af2103db3011e7340382b7012cd5e5be4e322a40bd95d071580e3018e7cd187f",
        "f72b6a636f9ba9168b03b8b142598a14b7be41f98dd4549440c689c7c6cba8e7",
        "f72b6a636f9ba9168b03b8b142598a14b7be41f98dd4549440c689c7c6cba8e7",
    ),
    ("known_leader", "k34"): (
        "ffa68e21d7383529e3ee510c495d1fab4b10465824a43b8a901a4f9b8aebdd94",
        "3694db8bed4e11e1fb143289b586bb976cb1c7c76ee3cdde431066f6ebdaef92",
        "3694db8bed4e11e1fb143289b586bb976cb1c7c76ee3cdde431066f6ebdaef92",
    ),
}


def trace_digest(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(str(path), trace)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(res, tmp_path):
    """(report, trace, sorted trace) digests; the sorted one pins the event
    multiset whatever the order within a round."""
    return (
        hashlib.sha256(res.report.to_json().encode("utf-8")).hexdigest(),
        trace_digest(res.trace, tmp_path),
        trace_digest(sorted(res.trace), tmp_path),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_digests_are_pinned(name, tmp_path):
    make, *pinned = PINNED[name]
    g, ids = make()
    res = count_butterflies(g, place_dispersed(g, ids), record_trace=True)
    got = digests(res, tmp_path)
    assert got == tuple(pinned)
    assert got[1] == got[2]


@pytest.mark.parametrize("entry,name", sorted(TREE_PINNED))
def test_tree_entry_point_digests_are_pinned(entry, name, tmp_path):
    g, ids = PINNED[name][0]()
    config = place_dispersed(g, ids)
    if entry == "election":
        res = elect_leader_and_tree(g, config, record_trace=True)
    else:
        res = known_leader_tree(g, config, min(ids), record_trace=True)
    got = digests(res, tmp_path)
    assert got == TREE_PINNED[entry, name]
    assert got[1] == got[2]
