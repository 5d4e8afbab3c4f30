"""Run the collarlab CLI the way its console script does, optionally traced.

    python3 perfbench/launch.py [--trace-out FILE] run [collarlab options]

Without --trace-out this is exactly `collarlab.cli:main`.  With it, the
tracer is installed before the run and the operation's per-layer metrics
are written to FILE as JSON when the run ends.  collarlab must be on
PYTHONPATH.
"""

import json
import sys


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        from collarlab.cli import main as cli_main
        return cli_main(argv)

    trace_out, argv = argv[1], argv[2:]
    import collarlab.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = collarlab.cli.main(argv)
    finally:
        tracer.end_op()
        with open(trace_out, "w") as fh:
            json.dump(tracer.op_metrics(0), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
