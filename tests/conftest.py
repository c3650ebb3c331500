"""Put this checkout's src first on PYTHONPATH, so that the interpreters the
tests start (the CLI entry point, import probes, demos) load the package
from the same tree as pytest itself, which reads it through pyproject's
pythonpath."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
