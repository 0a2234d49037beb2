"""Print the line count of the Python files under a directory, and how
many of those lines are code.

A code line holds a token that is not a comment, a blank, or part of a
docstring (the string that opens a module, class or function body).
A token that spans lines makes each of them a code line.

    python tools/src_lines.py [DIR]    # DIR defaults to src/weakbruhat
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    docstrings = set()  # the first lines of docstring tokens
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first.lineno)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(root: str) -> None:
    totals = [count(path.read_text()) for path in sorted(Path(root).rglob("*.py"))]
    print(f"{root}: {sum(t for t, _ in totals)} lines, {sum(c for _, c in totals)} code lines")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/weakbruhat")
