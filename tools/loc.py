"""Count code lines: lines that are not blank, comment or docstring.

``python tools/loc.py [ROOT]`` (default ``src``) prints the total and the
ten largest modules, then the C sources and headers beside them.  A Python line counts
when a token other than a comment starts, continues or ends on it, unless
it belongs to a docstring — the string expression that opens a module,
class or function body; a C line counts when something is left on it once
the comments are gone.
"""

import ast
import os
import pathlib
import re
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


#: a C comment, or a literal a comment opener may hide in (kept)
_C_COMMENT = re.compile(
    r"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""", re.DOTALL
)


def c_code_lines(path: pathlib.Path) -> int:
    def blank(match: re.Match) -> str:
        text = match.group()
        return text if text[0] in "\"'" else "\n" * text.count("\n")

    source = _C_COMMENT.sub(blank, path.read_text(encoding="utf-8"))
    return sum(1 for line in source.splitlines() if line.strip())


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    if not root.is_dir():
        print(f"loc.py: {root}: not a directory (usage: loc.py [ROOT])", file=sys.stderr)
        return 2
    counts = {path: code_lines(path) for path in sorted(root.rglob("*.py"))}
    print(f"{sum(counts.values()):>7,}  {root}/ ({len(counts)} modules)")
    for path, count in sorted(counts.items(), key=lambda item: -item[1])[:10]:
        print(f"{count:>7,}  {path}")
    c_counts = {path: c_code_lines(path) for path in sorted(root.rglob("*.[ch]"))}
    for path, count in c_counts.items():
        print(f"{count:>7,}  {path} (C)")
    if len(c_counts) > 1:
        print(f"{sum(c_counts.values()):>7,}  C in all")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``loc.py | head``) and has what it read;
        # stdout goes to devnull so the exit-time flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
