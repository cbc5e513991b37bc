"""Print the code lines of each Python module under the given paths, and their total.

    python3 tools/code_lines.py [paths ...]

A code line is a source line that holds part of a token other than a
comment, so blank lines, comment lines and the lines of docstrings (the
string that opens a module, class or function body) do not count; a
string that is not a docstring counts on every line it spans. Each path is
a module or a directory searched for modules recursively; the default is
the package, src/lapdiff of the checkout this file sits in. Prints
"<lines> <path>" per module, in path order, then "<lines> total".
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(path):
    """The .py files at path, sorted: path itself or the modules of its tree."""
    if os.path.isfile(path):
        return [path]
    found = []
    for folder, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        found += [os.path.join(folder, name) for name in files if name.endswith(".py")]
    return sorted(found)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=[os.path.join(ROOT, "src", "lapdiff")],
        help="modules or directories (default: the package's src/lapdiff)",
    )
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        if not os.path.exists(path):
            parser.error(f"no such file or directory: {path}")
        for module in modules(path):
            with open(module, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count} {module}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
