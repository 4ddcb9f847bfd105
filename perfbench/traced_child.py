"""Run one ``python -m repro`` command under the tracer; write its spans.

Usage: python perfbench/traced_child.py --spans OUT.json -- <repro argv>

The traced ``warm_cli`` unit and the traced ``serve_warm`` server run
through this script, so the spans of a child process are recorded by the
benchmark's own code.  The command runs inside one root span; the
snapshot (with the root's lane) is written once, when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

from tracing import ROOT, Tracer


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(sys.argv[2])
    from repro.__main__ import main as repro_main

    tracer = Tracer()
    tracer.install()
    idx = tracer.open(ROOT)
    try:
        return repro_main(sys.argv[4:])
    finally:
        tracer.close(idx)
        snap = tracer.drain()
        snap["root_lane"] = [os.getpid(), threading.get_ident()]
        out.write_text(json.dumps(snap))


if __name__ == "__main__":
    sys.exit(main())
