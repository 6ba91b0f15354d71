"""The README's Quick start commands and Library example run as written."""

import re
import shlex
from pathlib import Path

from stereo_bp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang):
    """The first fenced `lang` block under the `## heading` section."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands(block):
    """`stereo-bp` command lines, continuations joined, comments dropped."""
    text = block.replace("\\\n", " ")
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("stereo-bp ")]


def test_quick_start_and_library_print_one_score(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_block("Quick start", "sh"))
    assert [argv[0] for argv in commands] == ["synth", "match", "eval"]
    printed = []
    for argv in commands:
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    exec(_block("Library", "python"), {})
    printed.append(capsys.readouterr().out)
    # match and eval score the same file; the library runs the same pipeline
    assert printed[0] == ""
    assert re.fullmatch(r"[\d.]+,1\.0,\d+,\d+,[\d.]+\n", printed[1])
    assert printed[1] == printed[2] == printed[3]
