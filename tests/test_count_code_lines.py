"""tools/count_code_lines.py: blank, comment and docstring lines do not count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _PATH)
counter = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(counter)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # code with a trailing comment


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        text = """a multi-line string
        that is not
        a docstring"""
        return text


async def run():
    \'\'\'Async function docstring.\'\'\'
    value = os.sep
    """A string that is not the first statement."""
    return value
'''

#: 1-based numbers of the lines of SOURCE that hold code.
CODE_LINES = {4, 8, 11, 14, 15, 16, 17, 20, 22, 23, 24}


def test_counts_code_lines_only():
    assert counter.count_code_lines(SOURCE) == len(CODE_LINES)


def test_docstring_lines():
    assert counter.docstring_lines(counter.ast.parse(SOURCE)) == {1, 2, 9, 12, 13, 21}


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "b.py")],
        [str(len(CODE_LINES)), str(tmp_path / "pkg" / "a.py")],
        [str(len(CODE_LINES) + 1), "total"],
    ]


def test_no_paths_is_a_usage_error(capsys):
    assert counter.main([]) == 2
    assert "usage" in capsys.readouterr().err
