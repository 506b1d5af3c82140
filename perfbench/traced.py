"""Run one command with the layer tracer installed.

Usage::

    python perfbench/traced.py OUT.json evaluate LOG --backend chunked ...
    python perfbench/traced.py OUT.json step classsearch LOG ...

The first form is the ``python -m repro`` CLI, the second a benchmark
step from :mod:`steps`.  The layer record (see :mod:`layers`) is
written to ``OUT.json`` when the command returns; the exit code is the
command's.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list) -> int:
    out, command = argv[0], argv[1:]
    clock = layers.LayerClock()
    layers.install(clock)
    if command[:1] == ["step"]:
        import steps

        code = steps.main(command[1:])
    else:
        from repro.__main__ import main as cli_main

        code = cli_main(command)
    clock.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
