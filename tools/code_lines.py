"""Count the lines and the code lines of Python modules.

A code line is one that is not blank, not a comment and not part of a
docstring (the first statement of a module, class or function, when it
is a string).  Prints a Markdown table, one row per module and a total:

    python tools/code_lines.py src/rwspn/*.py
"""

import ast
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: str) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - docstrings)


def main(paths: list[str]) -> None:
    rows = [(path, *count(path)) for path in paths]
    print("| module | lines | code lines |\n|---|---:|---:|")
    for path, lines, code in rows:
        print(f"| {path} | {lines} | {code} |")
    print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |\n")


if __name__ == "__main__":
    main(sys.argv[1:])
