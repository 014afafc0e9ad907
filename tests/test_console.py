"""The console script starts, as a user runs it: in a fresh process.

`seldeval --help` and each command's ``--help`` exit 0 with their text on
stdout and nothing on stderr, and ``import seldeval.cli`` loads no
``dataclasses``. Each process runs in development mode with ResourceWarning
an error, so a file left for the collector to close at exit shows on stderr.

The installed `seldeval` script runs when it is on PATH; otherwise
``python -m seldeval.cli`` runs on this checkout's sources.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = shutil.which("seldeval")
COMMANDS = ["evaluate", "jackknife", "rank", "correlate", "synth"]


def run(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error::ResourceWarning"}
    if SCRIPT is None:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", [None, *COMMANDS], ids=["seldeval", *COMMANDS])
def test_help_exits_zero(command):
    seldeval = [SCRIPT] if SCRIPT else [sys.executable, "-m", "seldeval.cli"]
    proc = run(*seldeval, *filter(None, [command]), "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()


def test_startup_loads_no_dataclasses():
    # no command generates dataclass code at start-up
    proc = run(sys.executable, "-c",
               "import seldeval.cli, sys; assert 'dataclasses' not in sys.modules")
    assert (proc.returncode, proc.stderr) == (0, "")
