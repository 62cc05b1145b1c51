"""tools/count_lines.py, the line counts that simplicity changes report."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

# Ten raw lines; code-only are "x = 1", "def f():" and "return x".
SOURCE = '"""Doc."""\n\n# a comment\nx = 1\n\n\ndef f():\n    """Doc,\n    more."""\n    return x\n'


def _tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_file_as_the_directory_that_holds_only_it(tmp_path, capsys):
    tool = _tool()
    one = tmp_path / "one.py"
    one.write_text(SOURCE, encoding="utf-8")
    tool.main(str(one))
    tool.main(str(tmp_path))
    assert capsys.readouterr().out.splitlines() == [
        f"{one}: 10 raw lines, 3 code-only lines",
        f"{tmp_path}: 10 raw lines, 3 code-only lines",
    ]
