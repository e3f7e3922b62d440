"""Meeting windows: the bit-schedule algebra and its engine realization.

Frozen values below were computed by hand from the construction: an
agent's meeting word is the bitwise complement of its zero-padded id
followed by the id itself, read MSB first.  For ids 2 and 6 under bound
15 the words are 1101|0010 and 1001|0110; the lowest index where agent
2 has a 1 and agent 6 a 0 is 6, so agent 2 visits agent 6 in slot 6.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_agents.graphs import make_path
from butterfly_agents.protocols.meeting import (
    MeetingWindowProgram,
    first_separation,
    make_meeting_id,
    meeting_word,
    next_departure,
    simulate_pair,
    window_length,
    window_schedule,
)
from butterfly_agents.runtime import NEVER, place_dispersed, run


def test_meeting_words_for_the_worked_pair():
    assert make_meeting_id(2, 15).bits == "11010010"
    assert make_meeting_id(6, 15).bits == "10010110"


@pytest.mark.parametrize("lam", [1, 2, 15, 255, 2**40])
def test_int_meeting_word_is_the_schedule_string(lam):
    if lam < 2**40:
        ids = range(lam + 1)
    else:
        ids = [0, 1, lam - 1, lam] + random.Random(lam).sample(range(lam + 1), 200)
    for agent in ids:
        assert meeting_word(agent, lam) == int(make_meeting_id(agent, lam).bits, 2), agent


@pytest.mark.parametrize("build", [make_meeting_id, meeting_word])
def test_meeting_words_reject_ids_outside_the_bound(build):
    with pytest.raises(ValueError, match="^agent id must be nonnegative$"):
        build(-1, 15)
    with pytest.raises(ValueError, match="^agent id 16 exceeds the declared bound 15$"):
        build(16, 15)


def test_bit_indexing_is_lsb_first():
    m = make_meeting_id(2, 15)  # 11010010
    assert [m.bit(i) for i in range(8)] == [0, 1, 0, 0, 1, 0, 1, 1]
    assert m.ones == 4


def test_every_word_is_half_ones():
    # complement + original: always exactly half the bits are set
    for v in range(16):
        m = make_meeting_id(v, 15)
        assert len(m.bits) == 8
        assert m.ones == 4


def test_window_length_scales_with_id_width():
    assert window_length(15) == 16
    assert window_length(255) == 32
    assert window_length(1) == 4


def test_first_separation_of_worked_pair():
    u, v = make_meeting_id(2, 15), make_meeting_id(6, 15)
    assert first_separation(u, v) == 6
    assert first_separation(v, u) == 2


def test_separation_exists_for_every_distinct_pair():
    lam = 31
    for a in range(lam + 1):
        for b in range(lam + 1):
            if a == b:
                continue
            sep = first_separation(make_meeting_id(a, lam), make_meeting_id(b, lam))
            assert sep is not None, (a, b)


def test_schedule_departs_exactly_on_one_bits():
    m = make_meeting_id(6, 15)
    sched = window_schedule(m, True)
    assert len(sched) == 16
    for i in range(8):
        if m.bit(i):
            assert sched[2 * i] == "out" and sched[2 * i + 1] == "back"
        else:
            assert sched[2 * i] is None and sched[2 * i + 1] is None
    assert window_schedule(m, False) == (None,) * 16


def test_next_departure_matches_the_schedule_across_windows():
    lam = 15
    wlen = window_length(lam)
    for agent in range(lam + 1):
        m = make_meeting_id(agent, lam)
        sched = window_schedule(m, True)
        word = int(m.bits, 2)
        for rnd in range(3 * wlen):
            want = next(r for r in range(rnd, rnd + 2 * wlen) if sched[r % wlen] == "out")
            assert next_departure(word, wlen, rnd) == want, (agent, rnd)
    assert next_departure(0, wlen, 5) == NEVER


@pytest.mark.parametrize("lam", [2**49, 2**53, 2**64])
def test_extreme_ids_separate_under_huge_bounds(lam):
    u, v = make_meeting_id(0, lam), make_meeting_id(lam, lam)
    assert len(u.bits) == len(v.bits) == 2 * lam.bit_length()
    assert simulate_pair(u, v) != []


def test_simulate_pair_worked_example():
    u, v = make_meeting_id(2, 15), make_meeting_id(6, 15)
    # under mutual motion only the separation slots produce meetings:
    # slot 2 hosted by agent 2 (place "u"), slot 6 hosted by agent 6
    assert simulate_pair(u, v) == [(2, "u"), (6, "v")]
    # an idle agent is home every slot, so the searcher lands every 1-bit
    assert simulate_pair(u, v, u_has_target=False) == [
        (1, "u"), (2, "u"), (4, "u"), (7, "u")
    ]
    assert simulate_pair(u, v, v_has_target=False) == [
        (1, "v"), (4, "v"), (6, "v"), (7, "v")
    ]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_mutual_targeting_always_meets(a, b):
    if a == b:
        return
    u, v = make_meeting_id(a, 255), make_meeting_id(b, 255)
    assert simulate_pair(u, v) != []


def test_engine_meetings_match_the_algebra():
    lam = 15
    for a, b in [(2, 6), (7, 3), (0, 15), (9, 10)]:
        g, _ = make_path(2)
        cfg = place_dispersed(g, [a, b], lam=lam)
        prog = MeetingWindowProgram({a: 0, b: 0})
        run(g, cfg, prog)
        u, v = make_meeting_id(a, lam), make_meeting_id(b, lam)
        want = []
        for slot, place in simulate_pair(u, v):
            if place == "v":  # hosted at b's node: a was the visitor
                want.append((2 * slot + 1, a, b))
            else:
                want.append((2 * slot + 1, b, a))
        assert sorted(prog.meetings) == sorted(want), (a, b)


def test_engine_one_sided_worked_pair():
    # only agent 2 searches; agent 6 sits home, so every 1-bit of agent 2's
    # word lands a visit (slots 1, 4, 6, 7 = odd rounds 3, 9, 13, 15)
    g, _ = make_path(2)
    cfg = place_dispersed(g, [2, 6], lam=15)
    prog = MeetingWindowProgram({2: 0})
    run(g, cfg, prog)
    assert prog.meetings == [(3, 2, 6), (9, 2, 6), (13, 2, 6), (15, 2, 6)]
    # the separation slot is the first visit that mutual motion would
    # also have produced
    sep = first_separation(make_meeting_id(2, 15), make_meeting_id(6, 15))
    assert (2 * sep + 1, 2, 6) in prog.meetings
