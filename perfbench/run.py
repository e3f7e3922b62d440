"""Benchmark of butterfly-agents: one workload, every result oracle-checked.

    python3 perfbench/run.py --workload sparse_pipeline --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports the package from ``src/`` of
that root and nothing else.  One caller in one process runs the workload's
batch as a closed loop: instances back to back, no threads.

1. Set-up is repeated at least ``SETUP_REPEATS`` times and for at least
   ``SETUP_SECONDS``: import the package afresh, generate the batch's graphs
   and draw its ids.  ``setup_s`` is the median.
2. Passes over the batch repeat until ``--seconds`` have elapsed.  A pass
   runs ``count_butterflies`` on every instance, then checks every result
   against the oracles.  ``wall_s`` and ``verify_s`` sum each instance's
   mean over passes.  The simulated figures are exact and must be the same
   in every pass.
3. Every host time is scaled by the host-speed probe of ``probe.py``, which
   is timed before each set-up, pipeline run and oracle check.

With ``--trace 1`` untraced and traced passes alternate.  The traced passes
patch each layer's public functions from outside (see ``tracer.py``) and
give the per-layer metrics.  Each instance's per-phase rounds must equal its
report's ``rounds_per_phase``, and every report must be byte-identical to
the untraced passes' reports.  ``bench.trace_overhead_s`` is the traced
``wall_s`` minus the untraced one.

Human-readable lines go to stdout.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  A run record goes to ``.perfbench_out/``.  It holds the
environment, the raw per-pass times and the probe's scale, the sha256 of
every report and trace file, the failures and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from probe import Probe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "butterfly_agents"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
OUT_DIR = ROOT / ".perfbench_out"


class PackageMissing(Exception):
    """The package under test cannot be imported from this root's src/."""


def load_package():
    """Import the package afresh from ``src/``; returns its modules by layer name."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    try:
        mods = {
            layer: importlib.import_module(f"{PACKAGE}.{path}")
            for layer, path in (
                ("graphs", "graphs"),
                ("oracle", "oracle"),
                ("runtime", "runtime"),
                ("meeting", "protocols.meeting"),
                ("treecast", "protocols.treecast"),
                ("election", "protocols.election"),
                ("butterfly", "protocols.butterfly"),
            )
        }
    except ImportError as exc:
        raise PackageMissing(f"cannot import {PACKAGE} from {src}: {exc}") from exc
    origin = Path(mods["runtime"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise PackageMissing(f"{PACKAGE} was imported from {origin}, not from {src}")
    return argparse.Namespace(**mods)


def setup(workload: str, seed: int, tiny: bool, probe: Probe):
    """Import, generate and draw ids repeatedly; keep the last batch."""
    setup_s, gen_s = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        probe.run()
        t0 = time.perf_counter()
        ns = load_package()
        batch, gen = workloads.build_batch(ns, workload, seed, tiny)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(gen)
    return ns, batch, statistics.median(setup_s), statistics.median(gen_s)


def run_pass(ns, workload: str, batch, tmpdir: str, probe: Probe,
             tracer: Tracer | None = None) -> dict:
    """Pipeline and oracle checks for every instance of the batch, once."""
    rec = {
        "traced": tracer is not None, "pipeline_s": [], "verify_s": [], "agent_rounds": 0,
        "sim_rounds": 0, "sim_peak_bits": 0, "report_sha256": [], "trace_sha256": [],
        "failures": [], "reconcile": [],
    }
    for k, inst in enumerate(batch):
        out = None  # drop the last result first: the collector would walk it
        probe.run()
        if tracer is not None:
            tracer.begin_instance()
        out = workloads.run_pipeline(ns, workload, inst, tmpdir)
        rec["pipeline_s"].append(out.pipeline_s)
        if out.error is None:
            probe.run()
            t0 = time.perf_counter()
            try:
                problems = workloads.verify(ns, inst, out.result)
            except Exception as exc:  # an oracle that raises fails the instance
                problems = [f"{type(exc).__name__} in the oracle checks: {exc}"]
            rec["verify_s"].append(time.perf_counter() - t0)
            if problems:
                out.error = "OracleMismatch: " + "; ".join(problems)
        else:
            rec["verify_s"].append(0.0)
        rec["report_sha256"].append(
            hashlib.sha256(out.report_json.encode()).hexdigest() if out.report_json else None
        )
        rec["trace_sha256"].append(out.trace_sha256)
        if out.error is not None:
            rec["failures"].append({"instance": k, "error": out.error})
            continue
        report = out.result.report
        rec["agent_rounds"] += inst.graph.node_count * report.rounds_total
        rec["sim_rounds"] += report.rounds_total
        rec["sim_peak_bits"] = max(rec["sim_peak_bits"], max(report.peak_memory_bits.values()))
        if tracer is not None:
            phases = tracer.instance_rounds
            if phases != report.rounds_per_phase or sum(phases.values()) != report.rounds_total:
                rec["reconcile"].append(
                    {"instance": k, "traced": phases, "report": report.rounds_per_phase}
                )
    if tracer is not None:
        for phase in tracer.unattributed():
            rec["reconcile"].append({"unattributed": phase})
    return rec


def measure(ns, workload: str, batch, seconds: float, trace: bool, tmpdir: str, probe: Probe):
    """Passes, traced every other one with ``trace``, until ``seconds`` have elapsed."""
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer(ns) if traced else None
        if tracer is None:
            passes.append(run_pass(ns, workload, batch, tmpdir, probe))
        else:
            with tracer.installed():
                passes.append(run_pass(ns, workload, batch, tmpdir, probe, tracer))
            tracers.append(tracer)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or tracers):
            return passes, tracers


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of the package sources, which names the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def per_instance(passes, key: str) -> float:
    """Sum over instances of each instance's mean over ``passes``."""
    return sum(statistics.mean(times) for times in zip(*(p[key] for p in passes)))


def end_to_end(passes, setup_s: float, scale: float, failed_frac: float) -> dict[str, float]:
    untraced = [p for p in passes if not p["traced"]]
    wall = per_instance(untraced, "pipeline_s") * scale
    return {
        "setup_s": setup_s * scale,
        "wall_s": wall,
        "agent_rounds_per_s": untraced[0]["agent_rounds"] / wall if wall else 0.0,
        "verify_s": per_instance(untraced, "verify_s") * scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_rounds": untraced[0]["sim_rounds"],
        "sim_peak_bits": untraced[0]["sim_peak_bits"],
        "failed_frac": failed_frac,
    }


def per_layer(passes, tracers, gen_s: float, scale: float) -> dict[str, float]:
    """Mean over traced passes; counts are the same in every pass."""
    per_pass = [t.metrics() for t in tracers]
    out = {}
    for name in per_pass[0]:
        value = statistics.mean(m[name] for m in per_pass)
        out[name] = value * scale if name.endswith("_s") else value
    out["graphs.generate_s"] = gen_s * scale
    out["bench.trace_overhead_s"] = scale * (
        per_instance([p for p in passes if p["traced"]], "pipeline_s")
        - per_instance([p for p in passes if not p["traced"]], "pipeline_s")
    )
    return out


def consistency_problems(passes) -> list[str]:
    """Determinism across passes, and traced passes against untraced ones."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        for key in ("report_sha256", "trace_sha256", "sim_rounds", "sim_peak_bits"):
            if p[key] != first[key]:
                problems.append(f"pass {i} ({'traced' if p['traced'] else 'untraced'}) "
                                f"changed {key}")
        for r in p["reconcile"]:
            problems.append(f"pass {i}: per-phase rounds do not reconcile: {r}")
    return problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny graphs, for the benchmark's own smoke test")
    return ap.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark(args, spec: dict) -> dict:
    """Run one workload; returns the run record (the result line is under "result")."""
    probe = Probe()
    ns, batch, setup_s, gen_s = setup(args.workload, args.seed, args.tiny, probe)
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = OUT_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(exist_ok=True)
    try:
        passes, tracers = measure(ns, args.workload, batch, args.seconds, bool(args.trace),
                                  str(tmpdir), probe)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = sum(len(p["report_sha256"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    scale = probe.scale()
    e2e = end_to_end(passes, setup_s, scale, failed / attempted)
    problems = consistency_problems(passes)
    layers = per_layer(passes, tracers, gen_s, scale) if args.trace else {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    digest = hashlib.sha256(
        json.dumps([passes[0]["report_sha256"], passes[0]["trace_sha256"]]).encode()
    ).hexdigest()
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "instances": [
            {"label": i.label, "n": i.graph.node_count, "m": i.graph.edge_count,
             "max_degree": i.graph.max_degree}
            for i in batch
        ],
        "end_to_end": e2e,
        "per_layer": layers,
        "host_scale": scale,
        "probe_s": probe.samples,
        "raw_s": {
            "setup_s": setup_s,
            "wall_s": per_instance([p for p in passes if not p["traced"]], "pipeline_s"),
        },
        "problems": problems,
        "digest": digest,
        "passes": passes,
        "spans": [s for t in tracers for s in t.spans],
        "result": result,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    try:
        record = benchmark(args, spec)
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    result = record["result"]
    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(record['instances'])} instances x {len(record['passes'])} passes")
    print(f"cpu {env['cpu']}  nproc {env['nproc']}  python {env['python']}  "
          f"git {env['git_sha'][:12]}  source {env['source_sha256'][:12]}")
    print(f"report/trace digest {record['digest']}")
    raw = record["raw_s"]
    print(f"host times scaled by {record['host_scale']:.4f}; raw setup_s "
          f"{raw['setup_s']:.6g} s, raw wall_s {raw['wall_s']:.6g} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "ratio"
    for metric, value in record["end_to_end"].items():
        print(f"  {metric:<22} {value:.6g} {units[metric]}")
    for metric, entry in result["metrics"].items():
        if args.trace:
            print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    for p in record["passes"]:
        for f in p["failures"]:
            print(f"FAILED instance {f['instance']}: {f['error']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
