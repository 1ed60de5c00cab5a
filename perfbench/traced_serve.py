"""``repro serve`` with the layer wrappers installed in the server process.

Usage::

    python3 perfbench/traced_serve.py SPANS_JSON [repro serve options ...]

Serves until a ``shutdown`` request, then writes every recorded span and
the per-target fire counts to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = main(["serve", *serve_args])
    Path(out).write_text(json.dumps({"spans": tracer.spans, "fired": tracer.fired}))
    sys.exit(code)
