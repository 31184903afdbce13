"""tools/code_lines.py, the counter of code lines the ROADMAP's line counts
use: non-blank, non-comment lines outside docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool()

#: every line of code is marked `# code`; no other line counts
SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import math  # code


class Thing:  # code
    """A class docstring."""

    #: an attribute comment
    size = 3  # code

    def area(self, r):  # code
        """A function docstring

        of three lines.
        """
        total = (  # code
            math.pi  # code
            * r ** 2  # code
        )  # code
        text = """not a docstring,  # code
a string spanning lines"""  # code
        return total, text  # code


async def later():  # code
    """An async function's docstring."""
    x = 1; y = 2  # code
    return x + y  # code
'''


def test_counts_a_synthetic_module_exactly():
    assert code_lines.count_code_lines(SAMPLE) == 14
    assert code_lines.count_code_lines(SAMPLE) == SAMPLE.count("# code")


def test_docstring_only_and_empty_modules_count_nothing():
    assert code_lines.count_code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.count_code_lines("\n# a comment\n\n") == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["14", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["15", "total"],
    ]
