"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metric names, units and bounds are declared in
``BENCHMARK.json`` at the repository root.  With ``--trace 0`` the run
measures the end-to-end metrics untraced; with ``--trace 1`` it measures
an untraced and a traced pass of half the length each and reports the
per-layer metrics plus the tracing overhead.  Every metric is printed as
``name = value unit``; the last line is the JSON result.  The full
result, the host fingerprint and (traced runs) the spans are written
under ``.perfbench_out/``.  The exit code is 0 only when every checked
output matched the per-image oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _number(value):
    return int(value) if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    import live
    import offline
    from common import host_fingerprint, write_json

    runner = live.run if args.workload == "live-demo" else offline.run
    result = runner(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, note in result.get("notes", {}).items():
        print(f"note {key}: {note}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    undeclared = sorted(set(result["metrics"]) - names)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for metric in declared:
        # A layer a workload never reaches reads 0; an end-to-end metric
        # must always be measured.
        value = result["metrics"].get(metric["name"], 0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(
                f"error: {metric['name']} is {value}: every workload must "
                "measure it, and a latency is infinite when more than 1% of "
                "requests failed", file=sys.stderr,
            )
            return 1
        metrics[metric["name"]] = {"value": _number(value), "unit": metric["unit"]}

    host = host_fingerprint()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, "notes": result.get("notes", {}),
        "dnn_layers": result.get("dnn_layers", []),
    }
    write_json(f"{stem}.json", record)
    if "spans" in result:
        write_json(f"{stem}-spans.json", result["spans"])

    print("host " + json.dumps(host))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
