"""The README's examples run as written: each `wattplan` line of its shell
blocks exits 0 with nothing on stderr, and its Python block runs."""

import re
import shlex
from pathlib import Path

from wattplan.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_every_cli_example_exits_0(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("wattplan ")
    ]
    assert lines
    for line in lines:
        argv = shlex.split(line.replace("/tmp/step.csv", str(tmp_path / "step.csv")))[1:]
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), line


def test_the_library_example_runs(capsys):
    [block] = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
