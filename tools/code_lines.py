"""Count the code lines of Python source files.

A line counts when it holds a token other than a comment, a line break
(NL or NEWLINE) or an indentation change (INDENT or DEDENT).  A logical
line made only of string literals, such as a docstring, does not count,
and a token that spans several lines makes each of them count.

Usage: python tools/code_lines.py FILE...

Prints the count of each file, then the total.
"""

from __future__ import annotations

import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{count:>7} {path}")
        total += count
    print(f"{total:>7} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
