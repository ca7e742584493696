"""``tangled`` under the benchmark's span tracer.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracecli.py SPANS.json fig10 [tangled arguments...]

Behaves like the ``tangled`` executable (``repro.cli:main``) with the
given arguments, and writes the launch's spans to ``SPANS.json`` on the
way out: ``import.repro_cli`` around the start-up import, an
``import.lazy`` span for every module loaded after it, and the layer
wrappers of :mod:`spans`.  ``boot`` in the file is the clock reading on
entry, so the launcher can span the interpreter's own start.
"""

import time

BOOT = time.perf_counter()

import sys  # noqa: E402

from spans import Tracer, write_spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.begin("import.repro_cli")
    import repro.cli

    tracer.end(idx)
    tracer.import_spans = True
    try:
        return repro.cli.main(argv)
    finally:
        write_spans(out, tracer.spans, boot=BOOT)


if __name__ == "__main__":
    sys.exit(main())
