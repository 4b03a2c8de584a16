"""Run ``repro serve`` in this process, optionally with the span wrappers.

Usage::

    python3 perfbench/serve_daemon.py --trace 0|1 --spans FILE -- serve ARGS..

The untraced benchmark run and the traced one start the daemon through this
same launcher, so they differ only in the wrappers.  With ``--trace 1`` the
spans are written to ``FILE`` once the CLI's serve loop has drained and
returned (after ``POST /shutdown``).
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    from repro.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = cli_main(cli_args)
    if tracer is not None:
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
