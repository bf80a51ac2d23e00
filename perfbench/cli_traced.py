"""Run one cubigraph CLI command with every public function traced.

    python3 perfbench/cli_traced.py OUT QUERY_ID ARGS...

Behaves like `python -m cubigraph.cli ARGS...` (same stdout, stderr and
exit code) and, however the command ends, writes its trace summary to
OUT.json and its spans to OUT.tsv.gz.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import tracer as tracing  # noqa: E402


def main():
    out, query, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tr = tracing.Tracer()
    tr.install()
    from cubigraph import cli

    tr.query = query
    frame = tr.bench_span("cli process")
    try:
        return cli.main(argv)
    finally:
        tr.leave(frame)
        with open(out + ".json", "w") as fh:
            json.dump(tr.summary(), fh)
        tr.dump_spans(out + ".tsv.gz")


if __name__ == "__main__":
    sys.exit(main())
