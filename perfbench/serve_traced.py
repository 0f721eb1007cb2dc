"""Run the serving server with the span-recording wrappers installed.

    python perfbench/serve_traced.py SPANS_OUT [server arguments...]

Installs :func:`tracing.install_server_layers`, runs
``repro.serving.server.main`` with the remaining arguments and, once the
server has drained and returned, writes the recorded spans as JSON to
``SPANS_OUT``.  ``repro`` must be importable (``PYTHONPATH=src``).
"""

import json
import sys

from tracing import Tracer, install_server_layers


def main(argv) -> int:
    spans_out, server_args = argv[0], argv[1:]
    tracer = Tracer()
    install_server_layers(tracer)
    import repro.serving.server as server

    code = server.main(server_args)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
