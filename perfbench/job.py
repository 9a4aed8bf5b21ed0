"""Run one ``densereg register`` job with span tracing on.

Usage: ``python3 perfbench/job.py --spans OUT.json --pair ID -- register ...``

Everything after ``--`` is passed to ``densereg.cli.main`` unchanged, so
the traced job reads, registers and writes exactly as the command line
does.  ``densereg`` must be importable (the benchmark puts ``src`` on
``PYTHONPATH``).  The exit code is the CLI's.
"""

import argparse
import sys
import tracemalloc

import densereg.cli

from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the span JSON")
    parser.add_argument("--pair", type=int, required=True,
                        help="pair id stamped on every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by densereg CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    tracer = Tracer(args.pair)
    tracer.install()
    tracemalloc.start()
    try:
        return densereg.cli.main(cli_args)
    finally:
        tracemalloc.stop()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
