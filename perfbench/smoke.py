"""Smoke test of the benchmark itself, at tiny sizes and a fixed seed.

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced, twice each,
and checks that:

* every end-to-end and per-layer metric of BENCHMARK.json is present with
  its unit, and ``failed_frac`` is 0;
* the traced per-phase rounds reconcile with each report and sum to
  ``sim_rounds``;
* the traced and untraced runs give the same reports, and two runs of one
  seed give the same digests;
* every per-layer metric is mapped to the end-to-end metrics it should move
  in ``metric_map.json``.
"""

from __future__ import annotations

import fnmatch
import json
import sys
from pathlib import Path

import run
import workloads
from tracer import PHASES

SEED = 7
SIM = ("sim_rounds", "sim_peak_bits")


def bench(workload: str, trace: int, spec: dict) -> dict:
    args = run.parse_args([
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ])
    return run.benchmark(args, spec)


def check_result(record: dict, wanted: list[dict]) -> None:
    metrics = record["result"]["metrics"]
    assert list(metrics) == [m["name"] for m in wanted], sorted(set(metrics) ^ {m["name"] for m in wanted})
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"], m
    assert record["result"]["correct"], record["problems"]
    assert record["result"]["failed"] == 0 and record["end_to_end"]["failed_frac"] == 0


def main() -> int:
    spec = run.load_spec()
    mapping = json.loads((Path(__file__).parent / "metric_map.json").read_text(encoding="utf-8"))
    for m in spec["per_layer"]:
        hits = [e for e in mapping["per_layer"] if fnmatch.fnmatchcase(m["name"], e["metrics"])]
        assert len(hits) == 1, (m["name"], hits)

    for workload in workloads.WORKLOADS:
        untraced, again = bench(workload, 0, spec), bench(workload, 0, spec)
        traced = bench(workload, 1, spec)
        check_result(untraced, spec["end_to_end"])
        check_result(traced, spec["per_layer"])
        assert set(traced["per_layer"]) == {m["name"] for m in spec["per_layer"]}

        layers = traced["per_layer"]
        rounds = sum(layers[f"runtime.{p}.rounds"] for p in PHASES)
        assert rounds == traced["end_to_end"]["sim_rounds"], (rounds, traced["end_to_end"])
        for rec in (untraced, again, traced):
            assert not rec["problems"], rec["problems"]
        for key in SIM:
            assert untraced["end_to_end"][key] == again["end_to_end"][key] == traced["end_to_end"][key]
        assert untraced["digest"] == again["digest"] == traced["digest"]
        print(f"{workload}: ok  digest {untraced['digest'][:16]}  sim_rounds {rounds}")
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
