"""Run the emrcache CLI once with the benchmark's spans installed.

Used by traced `cli-cold` runs in place of `python -m emrcache.cli`:

    PYTHONPATH=src python3 -X importtime perfbench/cli_boot.py SPANS.json [CLI ARGS...]

The spans are written to SPANS.json as the CLI exits.
"""

import json
import sys

from emrcache import cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
