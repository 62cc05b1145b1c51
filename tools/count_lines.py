"""Print the raw and code-only line counts of the Python files under a
directory (default src), or of one file: python tools/count_lines.py [PATH].

Code-only lines are the lines that hold a token other than a comment, a
newline or indentation, less the lines of docstrings and other bare string
statements.  These are the counts that simplicity changes report.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def counts(path: Path):
    """(raw, code-only) line counts of one Python source file."""
    src = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docs.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(src.splitlines()), len(code - docs)


def main(root: str = "src"):
    top, raw, code = Path(root), 0, 0
    for path in [top] if top.is_file() else sorted(top.rglob("*.py")):
        r, c = counts(path)
        raw, code = raw + r, code + c
    print(f"{root}: {raw} raw lines, {code} code-only lines")


if __name__ == "__main__":
    main(*sys.argv[1:])
