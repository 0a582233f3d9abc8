"""Count the code, docstring and comment lines of Python source files.

A code line holds a token other than a comment or a NL, NEWLINE, INDENT,
DEDENT or ENDMARKER token, and is not part of a docstring (the string a
module, class or function body starts with). A docstring line is a line
of such a string. A comment line holds a comment and no code.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them; the default
is ``src/cbrchain``. One line per file, then the total. Standard library
only.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "cbrchain"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """The code, docstring and comment lines of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def sources(paths) -> list[Path]:
    """Each ``.py`` file named, or found under a directory named, in order."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    files = sources(argv or [_DEFAULT])
    if not files:
        print("no Python files found", file=sys.stderr)
        return 1
    try:
        rows = [(os.path.relpath(f), *count(f)) for f in files]
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        print(f"code_lines: {exc}", file=sys.stderr)
        return 1
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    width = max(len(row[0]) for row in rows)
    print(f"{'file':<{width}}  {'code':>6}  {'docs':>6}  {'comments':>8}")
    for name, code, docs, comments in rows:
        print(f"{name:<{width}}  {code:>6}  {docs:>6}  {comments:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
