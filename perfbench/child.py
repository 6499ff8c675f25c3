"""One benchmark repetition: a chainga command in a fresh process.

Usage: python3 child.py REQUEST_JSON

The request names the chainga source directory, the CLI arguments, whether
to trace, and where to write the result (timings, peak RSS, status) and the
spans. Untraced runs time only the once-per-command boundaries
(``tracer.BOUNDARIES``); traced runs wrap every layer (``tracer.LAYERS``).
Exits 0 only when ``chainga.cli.main`` returned 0.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    from chainga import cli

    import tracer

    spans = tracer.Tracer()
    spans.install(tracer.LAYERS if request["trace"] else tracer.BOUNDARIES)

    error = None
    start = perf_counter()
    try:
        rc = cli.main(request["argv"])
    except Exception:  # any failure of the program is a failed repetition
        rc, error = None, traceback.format_exc()
    wall_s = perf_counter() - start

    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    spans.dump(request["spans"])
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
