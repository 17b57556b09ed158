"""README's examples run as written: the library example in its ```python
block, and each line of the command-line block, in process."""

import ast
import json
import pathlib
import re
import shlex

from treeshift.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_example_runs_and_matches_its_comments():
    (code,) = fenced("python")
    namespace: dict = {}
    exec(code, namespace)
    # a comment that opens with a quoted string states the line's value
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        stated = re.match(r'\s*("[^"]*")', comment)
        if stated:
            assert eval(expr, namespace) == ast.literal_eval(stated.group(1)), line
            checked += 1
    assert checked == 3


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in fenced("sh") if "treeshift analyze" in b]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for line in block.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        words = shlex.split(line)
        if words[0] == "echo":
            _, text, redirect, target = words
            assert redirect == ">", line
            pathlib.Path(target).write_text(text + "\n")
            continue
        assert words[0] == "treeshift", line
        assert main(words[1:]) == 0, line
        json.loads(capsys.readouterr().out)
        commands += 1
    assert commands == 4
