"""Count the lines of `src/` by kind: code, docstrings, comments and blank.

    python3 tools/src_lines.py [directory]

A docstring line belongs to the leading string of a module, class or
function.  A comment line holds only a comment, a blank line no token, and
every other line is code.  Prints one row per module and a total; the
directory defaults to the repository's `src/costshare`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstrings", "comments", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict:
    """{kind: lines} for one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstrings" if line in docs else "code" if line in code
                else "comments" if line in comments else "blank")
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "costshare"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in KINDS) + f"{'total':>8}")
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.stem:<16}" + "".join(f"{counts[k]:>11}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>11}" for k in KINDS)
          + f"{sum(total.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
