"""Count the code lines of the freqlab package: the tokenize count.

A code line is a physical line that some token touches, after dropping
comments, blank lines and every statement that is a lone string
(docstrings included).  A token that spans lines, such as a triple-quoted
string passed as an argument, touches each line it spans.

Usage:

    python tools/code_lines.py [module.py ...]

With no arguments it counts every module of src/freqlab.  It prints each
module's code lines and `wc -l` lines, then the totals.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _lone_string_spans(source):
    """(first, last) line of every statement that is a lone string."""
    return [(node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)]


def code_lines(source):
    """How many physical lines of `source` hold code."""
    spans = _lone_string_spans(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        first, last = tok.start[0], tok.end[0]
        if any(lo <= first and last <= hi for lo, hi in spans):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = argv or sorted(glob.glob(os.path.join(root, "src", "freqlab",
                                                  "*.py")))
    total_code = total_wc = 0
    print(f"{'module':16s} {'code':>6s} {'wc -l':>6s}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        code, wc = code_lines(source), source.count("\n")
        total_code += code
        total_wc += wc
        print(f"{os.path.basename(path):16s} {code:6d} {wc:6d}")
    print(f"{'total':16s} {total_code:6d} {total_wc:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
