"""The fenced Python example under "## Library" in README.md runs as written,
and every command of the fenced shell block under "## CLI" parses."""

import math
import re
import shlex
from pathlib import Path

from sqlcalib.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)
    return block


def test_cli_commands_parse():
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sqlcalib ")]
    assert {argv[0] for argv in commands} == {"validate", "label", "evaluate", "score",
                                              "calibrate", "report", "simulate"}
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "400", "--seed", "7", "--out", "preds.jsonl"]) == 0
    exec(compile(_block("Library", "python"), str(README), "exec"), {"__name__": "readme_example"})
    auc, ece_i = map(float, capsys.readouterr().out.split())
    assert 0.5 < auc <= 1.0
    assert math.isfinite(ece_i) and ece_i >= 0.0
