"""The code-line counter in ``tools/code_lines.py``: what counts as a code
line, and a total that adds up its modules."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

NOT_CODE = '''"""A module docstring
over two lines."""

# a comment

    # an indented comment
'''


def _report(capsys, *argv) -> dict[str, int]:
    assert code_lines.main(list(argv)) == 0
    return {name: int(count) for name, count in (line.split() for line in capsys.readouterr().out.splitlines())}


def test_total_is_the_sum_of_the_modules(capsys):
    report = _report(capsys)
    total = report.pop("total")
    assert total == sum(report.values()) > 0
    assert set(report) == {path.name for path in code_lines.PACKAGE.glob("*.py")}
    for name, count in report.items():
        assert count == code_lines.code_lines((code_lines.PACKAGE / name).read_text())


def test_docstrings_comments_and_blank_lines_count_zero():
    assert code_lines.code_lines(NOT_CODE) == 0
    assert code_lines.code_lines("") == 0


def test_one_statement_counts_one(tmp_path, capsys):
    assert code_lines.code_lines("x = 1\n") == 1
    assert code_lines.code_lines(NOT_CODE + "x = 1  # a trailing comment\n") == 1
    (tmp_path / "a.py").write_text(NOT_CODE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _report(capsys, str(tmp_path)) == {"a.py": 0, "b.py": 1, "total": 1}
