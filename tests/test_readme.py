"""The README's library quick start runs as written, so an API change cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first ``python`` code block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert out.startswith("ValueEstimate(method='PMR'") and "Regret (value-max, n=35000, reps=20)" in out
