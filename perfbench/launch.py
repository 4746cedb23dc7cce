"""Traced launcher: run one ``repro`` command with the layer wrappers in.

Usage::

    python perfbench/launch.py SPANS.json all --json out.json
    python perfbench/launch.py SPANS.json serve --port 0

Times ``import repro.cli``, installs :mod:`layers`, runs the command
through ``repro.cli.main`` and writes the spans to ``SPANS.json`` when
it returns (for ``serve``: after SIGINT).
"""

from __future__ import annotations

import sys

from spans import Recorder


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    with rec.span("cli.import_s"):
        import repro.cli
    import layers

    before = layers.install(rec, args[0])
    try:
        return repro.cli.main(args)
    finally:
        layers.finish(rec, before)
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
