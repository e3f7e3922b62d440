"""A second round engine, written from the ``runtime`` docstring alone.

``reference_run`` takes the arguments of ``runtime.run`` and returns the
same ``RunResult``, but does everything the plain way: it empties every
agent's scratch and tally before ``on_start``; every round it steps every
agent, in ascending id, and hands each step a newly built view whose
snapshots are round-start copies of what the program publishes; it
applies all moves after all steps, recounts every agent with
``account_memory`` after ``on_start`` and after every step (``dirty`` is
ignored), and writes the round's trace row in id order.  It shares no
scheduling, snapshot, sweep or move code with ``run``, so the tests check
``run`` against it one engine call at a time.
"""

from collections import defaultdict
from types import MappingProxyType

from butterfly_agents.runtime import (
    IllegalPort,
    RoundLimitExceeded,
    RunContext,
    RunResult,
    Snapshot,
    StepView,
    account_memory,
    default_max_rounds,
    id_bits,
)


def reference_run(graph, config, program, *, max_rounds=None, record_trace=False):
    states, lam, delta = config.states, config.lam, graph.max_degree
    if max_rounds is None:
        max_rounds = default_max_rounds(len(states), lam)
    degrees = tuple(graph.degree(s.home_node) for s in states)
    for s in states:
        s.phase_state, s.counters = {}, {}
    program.on_start(states, RunContext(lam, id_bits(lam), delta, degrees))
    peak = {}

    def recount(state):
        bits = account_memory(state, lam, delta, program.scratch_widths)
        peak[state.id] = max(bits, peak.get(state.id, 0))

    for state in states:
        recount(state)
    published = program.published
    show_table = published is None or "neighbor_list" in published
    show_scratch = published is None or bool(set(published) - {"neighbor_list"})
    agents = sorted(states, key=lambda s: s.id)
    trace = [] if record_trace else None
    rnd = 0
    while not all(program.local_done(s) for s in agents):
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                program.name, rnd, f"{program.name}: no termination within {max_rounds} rounds"
            )
        # Communicate: every snapshot is taken before anybody steps.
        crowd = defaultdict(list)  # node -> its agents' snapshots, ascending id
        for s in agents:
            crowd[s.current_node].append(Snapshot(
                s.id, s.at_home, s.entered_port, s.partition, s.child, s.treelabel,
                tuple(s.neighbor_list) if show_table else (),
                MappingProxyType(dict(s.phase_state) if show_scratch else {}),
            ))
        ports = []
        for s in agents:
            degree = graph.degree(s.current_node)
            colocated = tuple(o for o in crowd[s.current_node] if o.id != s.id)
            s.wake_round = rnd + 1
            port = program.step(s, StepView(rnd, s.at_home, s.entered_port, degree, colocated))
            if port is not None and not 0 <= port < degree:
                raise IllegalPort(
                    program.name, rnd,
                    f"agent {s.id} at a degree-{degree} node asked for port {port} in round {rnd}",
                    s.id,
                )
            recount(s)
            ports.append(port)
        # Move: all at once, after every agent has stepped.
        for s, port in zip(agents, ports):
            if trace is not None:
                trace.append((rnd, s.id, s.current_node, "stay" if port is None else "move", port))
            if port is not None:
                s.current_node, s.entered_port = graph.neighbor_via(s.current_node, port)
        rnd += 1
    return RunResult(rounds=rnd, peak_bits=peak, trace=trace)
