"""The README's Python examples and stage-by-stage commands run as written."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from spindlemine.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
SHELL_BLOCKS = re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_stage_commands_run(two_cluster_files, tmp_path, monkeypatch):
    [block] = SHELL_BLOCKS
    work = tmp_path / "readme"
    work.mkdir()
    for key, name in (("recording", "recording.csv"),
                      ("annotations", "annotations.json"),
                      ("labels", "labels.csv")):
        shutil.copy(two_cluster_files[key], work / name)
    monkeypatch.chdir(work)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert [c[:2] for c in commands] == [
        ["spindlemine", "extract"], ["spindlemine", "features"],
        ["spindlemine", "context"], ["spindlemine", "mine"],
    ]
    for command in commands:
        assert main(command[1:]) == 0, command
    assert (work / "out" / "patterns.json").exists()
