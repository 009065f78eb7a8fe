"""Run `etdgraph serve` for the benchmark, optionally traced.

    python3 perfbench/serve.py STORE.tnq RESULT.json [--trace SPANS.tsv]

Serves STORE on a free port through `cli.main`, so the command runs as a
user runs it. `cli` prints the chosen port on stderr. On SIGTERM the
server stops as it does on Ctrl-C, and this launcher writes its exit
code and, when traced, its span summary to RESULT.json and the spans to
SPANS.tsv.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import etdgraph.cli  # noqa: E402
import spans  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _stop_when_orphaned(parent: int):
    # if the benchmark dies without stopping us, stop as on SIGTERM
    while os.getppid() == parent:
        time.sleep(1)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list[str]) -> int:
    # SIGINT is ignored in processes started from a non-interactive
    # shell's background job, so the benchmark stops the server by SIGTERM.
    signal.signal(signal.SIGTERM, _interrupt)
    threading.Thread(target=_stop_when_orphaned, args=(os.getppid(),), daemon=True).start()
    store_path, result_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) == 4 and argv[2] == "--trace" else None
    tracer = spans.Tracer().install(etdgraph) if spans_path else None
    code = etdgraph.cli.main(["serve", "--store", store_path, "--port", "0"])
    result = {"exit": code}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
