"""Run one traced `launchport` invocation in a fresh interpreter.

    python3 perfbench/cli_runner.py SPANS_JSON JOB_ID -- CLI_ARGS...

Imports ``launchport.cli``, wraps the public functions (see ``tracing``),
times the ``main()`` call as span ``cli.main`` and writes the spans to
SPANS_JSON before exiting with main's exit code.  ``launchport`` must be
importable (PYTHONPATH).
"""

import json
import sys

import launchport.cli as cli

from tracing import Tracer


def run(argv: list[str]) -> int:
    spans_path, job = argv[0], int(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer()
    tracer.install()
    tracer.job = job
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.export(), f)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
