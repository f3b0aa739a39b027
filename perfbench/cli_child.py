"""One `xft` CLI invocation with the benchmark's spans installed (traced cli_runs).

usage: python3 perfbench/cli_child.py SPANS_FILE OP_NUMBER ARG...

Installs the tracer, calls xft.cli.main(ARG...) as `python -m xft.cli ARG...`
would, and writes the spans to SPANS_FILE when main returns or exits.
"""

import sys

from tracer import Tracer, write_spans


def main(argv):
    spans_file, op, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    tracer.recording = True
    import xft.cli

    try:
        return xft.cli.main(args)
    finally:
        tracer.recording = False
        write_spans(spans_file, tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
