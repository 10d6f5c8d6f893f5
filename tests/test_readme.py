"""The fenced Python example under "## Library" in README.md runs as written."""

import math
import re
from pathlib import Path

from sqlcalib.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "400", "--seed", "7", "--out", "preds.jsonl"]) == 0
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme_example"})
    auc, ece_i = map(float, capsys.readouterr().out.split())
    assert 0.5 < auc <= 1.0
    assert math.isfinite(ece_i) and ece_i >= 0.0
