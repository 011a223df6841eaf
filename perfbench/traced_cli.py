"""Run one ekslab CLI command with the per-layer tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <ekslab arguments...>

The command runs exactly as ``python3 -m ekslab.cli`` would, with the same
exit code and output bytes; the trace (calls, span seconds, layer self
seconds, counters) is written to TRACE_JSON.
"""

import json
import sys

from tracer import Tracer, installed


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    from ekslab import cli

    tracer = Tracer()
    try:
        with installed(tracer):
            code = cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_json(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
