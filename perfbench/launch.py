"""Run a ``cad-detect`` subcommand with the layer wrappers installed.

Usage::

    python3 perfbench/launch.py SPANS.json serve --port 0 ...
    python3 perfbench/launch.py SPANS.json cluster-worker HOST PORT

Installs :mod:`tracing`'s wrappers, hands the remaining arguments to
``repro.cli.main`` (which ends in ``run_server`` / ``run_worker``) and
writes the process's spans to ``SPANS.json`` when the command returns
(a drained server, a released worker).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    import repro.cli  # noqa: F401 - loads the modules to be patched
    import repro.cluster.worker  # noqa: F401
    import repro.service.server  # noqa: F401

    tracing.install()
    try:
        return repro.cli.main(command)
    finally:
        tracing.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
