"""Count the code lines of the package: lines that hold a token other
than a comment, a docstring or layout, found with ``tokenize``.

Run from the repository root, with no argument to count ``src/orthoql``
or with the files or folders to count::

    python tests/code_lines.py
    python tests/code_lines.py tests/draws.py

It prints one line per module and the total.  A docstring is a string
that forms a whole statement on its own; a string inside code counts on
every line it spans.  pytest does not collect this file.
"""

import sys
import tokenize
from pathlib import Path

# Tokens that hold no code.  NEWLINE holds none either, but it is kept
# to mark where a statement ends.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in LAYOUT]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        before = tokens[k - 1].type if k else tokenize.NEWLINE
        after = tokens[k + 1].type if k + 1 < len(tokens) else tokenize.NEWLINE
        if tok.type == tokenize.STRING and before == after == tokenize.NEWLINE:
            continue  # a docstring, or a string standing alone as a statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(__file__).resolve().parents[1]
    targets = [Path(a) for a in argv] or [root / "src" / "orthoql"]
    files = [f for t in targets for f in (sorted(t.glob("*.py")) if t.is_dir() else [t])]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
