"""``repro serve`` with the harness's spans installed.

``python traced_daemon.py SPANS_PATH [serve arguments...]`` installs the
wrappers of :mod:`spans`, runs the daemon exactly as ``python -m repro serve
...`` would, and writes the spans to ``SPANS_PATH`` once the daemon has
drained (SIGTERM).  ``PYTHONPATH`` must point at ``src``.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, *serve_args = argv
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
