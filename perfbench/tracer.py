"""Per-layer tracing from outside the package.

``Tracer.installed()`` patches the public functions of each layer for the
duration of one traced pass and restores them afterwards; nothing under
``src/`` is edited and untraced passes run the unpatched code.

* ``run`` is intercepted where ``protocols.election``, ``protocols.treecast``
  and ``protocols.butterfly`` bind it; each call is attributed to a
  pipeline phase by ``program.name`` and call order within the instance.
* Each program instance's ``step`` and ``local_done`` and
  ``runtime.account_memory`` are timed and counted per phase.
  ``engine_s`` is a run call's self time: ``run_s`` minus the time inside
  those three.
* ``MeetingId.bit`` is counted.
* The oracle functions, ``write_trace_jsonl`` and ``RunReport.to_json``
  record spans; a span's self time is its duration minus its children's,
  so an oracle function that calls another is not counted twice.

Per-step work is aggregated into counters; spans are kept in memory and
written with the run record when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

PHASES = (
    "election",
    "downcast",
    "neighbor_scan_a",
    "wedge_count_a",
    "total_fold",
    "total_push",
    "neighbor_scan_b",
    "wedge_count_b",
)
# program.name -> the phases its successive run calls belong to
PHASE_BY_CALL = {
    "election": ("election",),
    "broadcast-down": ("downcast", "total_push"),
    "neighbor-scan": ("neighbor_scan_a", "neighbor_scan_b"),
    "wedge-count": ("wedge_count_a", "wedge_count_b"),
    "convergecast": ("total_fold",),
}
PROTOCOL_STEP_METRIC = {
    "election": "protocols.election.step_s",
    "downcast": "protocols.treecast.downcast.step_s",
    "total_fold": "protocols.treecast.total_fold.step_s",
    "total_push": "protocols.treecast.total_push.step_s",
    "neighbor_scan_a": "protocols.butterfly.neighbor_scan_a.step_s",
    "wedge_count_a": "protocols.butterfly.wedge_count_a.step_s",
    "neighbor_scan_b": "protocols.butterfly.neighbor_scan_b.step_s",
    "wedge_count_b": "protocols.butterfly.wedge_count_b.step_s",
}
ORACLE_METRIC = {
    "oracle_coloring": "oracle.coloring_s",
    "oracle_per_node_butterflies": "oracle.per_node_s",
    "oracle_total_butterflies": "oracle.total_s",
    "enumerate_butterflies": "oracle.enumerate_s",
    "check_spanning_tree": "oracle.check_spanning_tree_s",
}
SPAN_METRIC = {
    **{f"oracle.{fn}": metric for fn, metric in ORACLE_METRIC.items()},
    "runtime.write_trace_jsonl": "runtime.write_trace_jsonl_s",
    "runtime.RunReport.to_json": "runtime.report_json_s",
}


class PhaseStats:
    __slots__ = (
        "run_s", "step_s", "local_done_s", "account_s", "account_calls", "rounds",
        "rounds_stepped", "agent_steps", "productive", "colocated_reads", "moves",
        "peak_bits",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    """Spans and per-phase counters for one traced pass over a batch."""

    def __init__(self, ns):
        self.ns = ns
        self.phases = {p: PhaseStats() for p in PHASES}
        self.spans: list[dict] = []  # name, start, end, parent (index or None)
        self._stack: list[int] = []
        self._child_s: list[float] = []  # per open span: time covered by children
        self.self_s: dict[str, float] = {}
        self.trace_events = 0
        self.bit_calls = 0
        self._current: PhaseStats | None = None
        self._calls: dict[str, int] = {}
        self.instance_rounds: dict[str, int] = {}

    def begin_instance(self) -> None:
        """Restart phase attribution; call before each instance's pipeline."""
        self._calls = {}
        self.instance_rounds = {}

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append({"name": name, "start": clock(), "end": None, "parent": parent})
            self._stack.append(index)
            self._child_s.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                span = self.spans[index]
                span["end"] = clock()
                self._stack.pop()
                duration = span["end"] - span["start"]
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration

        return traced

    # -- the round engine --------------------------------------------------

    def _phase_of(self, program_name: str) -> str:
        k = self._calls.get(program_name, 0)
        self._calls[program_name] = k + 1
        order = PHASE_BY_CALL.get(program_name, ())
        return order[k] if k < len(order) else f"unattributed:{program_name}:{k}"

    def _run(self, run):
        clock = time.perf_counter

        def traced_run(graph, config, program, **kwargs):
            phase = self._phase_of(program.name)
            st = self.phases.setdefault(phase, PhaseStats())
            program.step = self._step(program.step, st)
            program.local_done = self._local_done(program.local_done, st)
            self._current = st
            t0 = clock()
            try:
                result = self._span(f"runtime.run:{phase}", run)(graph, config, program, **kwargs)
            finally:
                st.run_s += clock() - t0
                self._current = None
            st.rounds += result.rounds
            self.instance_rounds[phase] = self.instance_rounds.get(phase, 0) + result.rounds
            st.peak_bits = max(st.peak_bits, max(result.peak_bits.values(), default=0))
            if result.trace is not None:
                self.trace_events += len(result.trace)
            return result

        return traced_run

    @staticmethod
    def _step(step, st: PhaseStats):
        clock = time.perf_counter
        last_round = [-1]

        def timed_step(state, view):
            t0 = clock()
            action = step(state, view)
            st.step_s += clock() - t0
            st.agent_steps += 1
            st.colocated_reads += len(view.colocated)
            if action is not None:
                st.moves += 1
                st.productive += 1
            elif state.dirty:
                st.productive += 1
            if view.round != last_round[0]:
                last_round[0] = view.round
                st.rounds_stepped += 1
            return action

        return timed_step

    @staticmethod
    def _local_done(local_done, st: PhaseStats):
        clock = time.perf_counter

        def timed_local_done(state):
            t0 = clock()
            done = local_done(state)
            st.local_done_s += clock() - t0
            return done

        return timed_local_done

    def _account(self, account_memory):
        clock = time.perf_counter

        def timed_account(*args, **kwargs):
            t0 = clock()
            bits = account_memory(*args, **kwargs)
            st = self._current
            if st is not None:
                st.account_s += clock() - t0
                st.account_calls += 1
            return bits

        return timed_account

    def _bit(self, bit):
        def counted_bit(mid, i):
            self.bit_calls += 1
            return bit(mid, i)

        return counted_bit

    # -- install / remove --------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced layer function; restore the originals on exit."""
        ns = self.ns
        patches = [(m, "run", self._run(m.run)) for m in (ns.election, ns.treecast, ns.butterfly)]
        patches.append((ns.runtime, "account_memory", self._account(ns.runtime.account_memory)))
        patches.append((ns.meeting.MeetingId, "bit", self._bit(ns.meeting.MeetingId.bit)))
        patches.append((ns.runtime, "write_trace_jsonl",
                        self._span("runtime.write_trace_jsonl", ns.runtime.write_trace_jsonl)))
        patches.append((ns.runtime.RunReport, "to_json",
                        self._span("runtime.RunReport.to_json", ns.runtime.RunReport.to_json)))
        for fn in ORACLE_METRIC:
            patches.append((ns.oracle, fn, self._span(f"oracle.{fn}", getattr(ns.oracle, fn))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (graph generation is added by the caller)."""
        out: dict[str, float] = {}
        for phase in PHASES:
            st = self.phases[phase]
            pre = f"runtime.{phase}."
            out[pre + "run_s"] = st.run_s
            out[pre + "engine_s"] = st.run_s - st.step_s - st.local_done_s - st.account_s
            out[pre + "account_s"] = st.account_s
            out[pre + "account_calls"] = st.account_calls
            out[pre + "rounds"] = st.rounds
            out[pre + "rounds_stepped"] = st.rounds_stepped
            out[pre + "agent_steps"] = st.agent_steps
            out[pre + "productive_ratio"] = st.productive / st.agent_steps if st.agent_steps else 0.0
            out[pre + "colocated_reads"] = st.colocated_reads
            out[pre + "moves"] = st.moves
            out[pre + "peak_bits"] = st.peak_bits
            out[PROTOCOL_STEP_METRIC[phase]] = st.step_s
        out["runtime.trace_events"] = self.trace_events
        out["protocols.meeting.bit_calls"] = self.bit_calls
        for span_name, metric in SPAN_METRIC.items():
            out[metric] = self.self_s.get(span_name, 0.0)
        return out

    def unattributed(self) -> list[str]:
        """Run calls the phase map could not place (a reconciliation failure)."""
        return sorted(p for p in self.phases if p not in PHASES)
