"""One traced CLI command: ``cli_child.py SPANS_PATH --config CONFIG``.

Installs the layer wrappers of :mod:`tracing`, calls
``opspectra.cli.main`` with the remaining arguments and writes the spans
to ``SPANS_PATH`` before exiting with the command's status.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import opspectra.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        return opspectra.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
