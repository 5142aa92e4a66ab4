"""README's examples still run against the package."""

import json
import re
from pathlib import Path

from gbnlearn.bench import parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    # The first ``lang`` fenced block after the ``## heading`` line.
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(_block("Quick start (library)", "python"), "README.md", "exec"), {})
    kl, tv = map(float, capsys.readouterr().out.split())
    assert kl > 0.0 and 0.0 < tv <= 1.0


def test_bench_config_example_parses():
    text = re.sub(r"//[^\n]*", "", _block("Bench configs", "jsonc"))
    cfg = parse_config(json.loads(text))
    assert [m.label for m in cfg.methods] == ["least_squares", "bm20"]
