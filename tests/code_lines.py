"""Count the lines of Python modules: all of them, and those that hold code.

    python tests/code_lines.py src/flatrank

prints, for each ``*.py`` file of the directory and in total, its line count
(as ``wc -l`` reads it) and its code lines: the lines on which a token other
than a comment, a newline or an indent starts or runs, docstrings left out.
Docstrings are the string statements that open a module, class or function
(found with ``ast``); blank lines and comment-only lines hold no such token.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source ``text``."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in PROSE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - skip)


def main(directory: str) -> None:
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(Path(directory).glob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/flatrank")
