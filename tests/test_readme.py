"""The README's commands, config example and Python run as written."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from floratile.cli import _RUN_OPTIONS, _load_run_config, build_parser

ROOT = Path(__file__).resolve().parents[1]


def _blocks(language, section=r"[^\n]*"):
    """The text of each fenced ``language`` block of the README, in the
    sections whose heading matches ``section``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parts = re.split(r"^## ", readme, flags=re.M)[1:]
    return [block for part in parts if re.match(section + r"\n", part)
            for block in re.findall(rf"^```{language}\n(.*?)^```", part, re.M | re.S)]


def _commands(block):
    """Each command of an ``sh`` block, comments dropped and continued lines joined."""
    text = re.sub(r"\\\n", " ", re.sub(r"^\s*#.*\n", "", block, flags=re.M))
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def _quick_start_commands():
    """Each command of the README's quick-start ``sh`` block."""
    (block,) = _blocks("sh", "Quick start")
    return _commands(block)


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


def test_readme_commands_parse_and_name_every_subcommand():
    commands = [argv for block in _blocks("sh") for argv in _commands(block) if argv[0] == "floratile"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # an unknown flag or a bad value raises InputError
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[1] for argv in commands} == set(subparsers.choices)


def test_readme_config_example_loads_and_holds_every_key(tmp_path):
    (block,) = _blocks("json", "Run configuration file")
    path = tmp_path / "run.json"
    path.write_text(block, encoding="utf-8")
    _load_run_config(build_parser().parse_args(["run", "--config", str(path)]))
    keys = set()
    for key, value in json.loads(block).items():
        keys |= {f"{key}.{name}" for name in value} if isinstance(value, dict) else {key}
    assert keys == {option.key for option in _RUN_OPTIONS}  # "These are the only keys"


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
