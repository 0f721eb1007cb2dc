"""Per-image oracle for ``live-demo``, run as a worker process.

    python perfbench/oracle_worker.py < items.json

Reads a JSON list of ``[model, image]`` pairs (demo-zoo models) on stdin
and writes one JSON line per pair: the ``functional_run_digest`` of
``run_model_functional(..., image=image, keep_outputs=True)`` and the
run's summed modelled counts.  ``repro`` must be importable
(``PYTHONPATH=src``).
"""

import json
import sys

from common import MODEL_SEED, sim_counts


def main() -> int:
    from repro.core.spgemm_device import DeviceStats
    from repro.nn.functional import run_model_functional
    from repro.serving.protocol import functional_run_digest
    from repro.serving.server import demo_definitions

    definitions = demo_definitions()
    for model, image in json.load(sys.stdin):
        definition = definitions[model]
        run = run_model_functional(
            definition, scale=definition.benchmark_scale, seed=MODEL_SEED,
            image=image, keep_outputs=True,
        )
        stats = DeviceStats.summed(layer.stats for layer in run.layers)
        print(json.dumps({
            "digest": functional_run_digest(run),
            "counts": sim_counts(stats),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
