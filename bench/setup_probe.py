"""Time one cold set-up in a fresh interpreter: import skewgb, then parse
each problem header and its generators the way the CLI does.

    python3 bench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  The benchmark runs this several times per run
and reports the median as ``setup_s``.
"""

import sys
import time

import problems


def main() -> int:
    texts = problems.setup_texts(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(problems.ROOT / "src"))
    t0 = time.perf_counter()
    from skewgb import cli

    for text in texts:
        pf = cli.parse_problem(text)
        cli._parse_generators(pf, cli._config(pf, False))
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
