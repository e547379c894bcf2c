"""The README's quick start runs as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quick_start_commands():
    """Each command of the README's quick-start ``sh`` block, comments dropped
    and continued lines joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    text = re.sub(r"\\\n", " ", re.sub(r"^\s*#.*\n", "", block, flags=re.M))
    return [shlex.split(line) for line in text.splitlines() if line.strip()]


def test_readme_quick_start_runs(tmp_path):
    commands = _quick_start_commands()
    assert [argv[:2] for argv in commands] == [["floratile", "synth"], ["floratile", "run"],
                                               ["floratile", "evaluate"]]
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "floratile", *argv[1:]], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert re.search(r"^final macro-F1: [0-9.]+$", proc.stdout, re.M), proc.stdout
