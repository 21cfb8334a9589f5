"""A mutation audit: one small change at a time to a source file, each judged by the tier-1 suite.

    python3 tools/mutants.py src/shrinkdist/montecarlo.py --scope EmpiricalCdf --scope simulate_estimates
    python3 tools/mutants.py src/shrinkdist/montecarlo.py --list

The sites are found with the standard library's `ast` (and `tokenize`, for where an operator sits):
  compare  a comparison flipped at its boundary: < and <=, > and >=, == and != swap;
  arith    + and - swap, and * and / swap, in a binary operation or an augmented assignment;
  const    a float constant times (1 + 2**-40), where that changes it.
`--scope` keeps the sites inside the named top-level functions and classes (a class with its methods).
Only the operator or the constant is rewritten, so every other line keeps its text and its number.  A node
inside an f-string is no site: before Python 3.12 `tokenize` gives the f-string as one token, so an operator
in a replacement field has no token of its own to rewrite.

The checkout (the repository holding the file) is copied once into a temporary directory, and the suite
first runs there unchanged: it must pass, and its time sets each mutant's timeout.  Then each mutant is
written into the copy in turn and the suite runs with `-x`.  The kill matrix has one line per mutant: its
line, kind and change, and the first test that failed, "TIMEOUT", or "SURVIVED" where every test passed.
A survivor is either a gap in the tests or a change that cannot alter any result; the audit cannot tell
which.  Standard library only; it imports nothing from the checkout.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
NUDGE = 1.0 + 2.0**-40
SUITE = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "addopts=", "-rfE",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


class Site(NamedTuple):
    """One mutation: the text `old` at (line, col)-(line, end_col) becomes `new`; columns count characters."""

    line: int
    col: int
    end_col: int
    kind: str
    old: str
    new: str

    def __str__(self) -> str:
        return f"L{self.line}:{self.col} {self.kind} {self.old} -> {self.new}"


def _char_col(lines: list, line: int, byte_col: int) -> int:
    """The character column of `ast`'s UTF-8 byte column on 1-based line `line`."""
    return len(lines[line - 1].encode()[:byte_col].decode())


def find_sites(source: str, scopes=()) -> list:
    """Every mutation site of `source`, in source order; inside the named top-level definitions if `scopes`."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.OP]
    roots = [n for n in tree.body if getattr(n, "name", None) in scopes] if scopes else [tree]

    def start(node):
        return node.lineno, _char_col(lines, node.lineno, node.col_offset)

    def end(node):
        return node.end_lineno, _char_col(lines, node.end_lineno, node.end_col_offset)

    def operator(after, before, text, new, kind):
        # the one operator token between the end of `after` and the start of `before`
        token = next(t for t in ops if t.string == text and end(after) <= t.start and t.end <= start(before))
        return Site(token.start[0], token.start[1], token.end[1], kind, text, new)

    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    sites = []
    for root in roots:
        for node in ast.walk(root):
            if id(node) in in_fstring:
                continue
            if isinstance(node, ast.Compare):
                for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                    if type(op) in FLIPS:
                        sites.append(operator(left, right, *FLIPS[type(op)], "compare"))
            elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                sites.append(operator(node.left, node.right, *SWAPS[type(node.op)], "arith"))
            elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
                old, new = (s + "=" for s in SWAPS[type(node.op)])
                sites.append(operator(node.target, node.value, old, new, "arith"))
            elif isinstance(node, ast.Constant) and type(node.value) is float:
                nudged = node.value * NUDGE
                if nudged != node.value and node.lineno == node.end_lineno:  # 0.0 and inf stay as they are
                    (line, col), (_, end_col) = start(node), end(node)
                    sites.append(Site(line, col, end_col, "const", lines[line - 1][col:end_col], repr(nudged)))
    return sorted(sites)


def apply(source: str, site: Site) -> str:
    """`source` with the one change of `site`."""
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    if text[site.col:site.end_col] != site.old:
        raise ValueError(f"{site} does not match the source")
    lines[site.line - 1] = text[:site.col] + site.new + text[site.end_col:]
    return "".join(lines)


def killer(output: str) -> str | None:
    """The first failed or erroring test that a pytest run with -rfE reports, or None."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else None


def run_suite(checkout: Path, timeout: float) -> tuple:
    """(passed, the first failing test, "TIMEOUT" or the exit status, seconds) of one -x run in checkout."""
    began = time.monotonic()
    try:
        done = subprocess.run(SUITE, cwd=checkout, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "TIMEOUT", time.monotonic() - began
    seconds = time.monotonic() - began
    if done.returncode == 0:
        return True, None, seconds
    return False, killer(done.stdout) or f"exit status {done.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", type=Path, help="a source file inside the checkout")
    parser.add_argument("--scope", action="append", default=[], help="repeatable: a top-level function or class")
    parser.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = parser.parse_args(argv)
    path = args.file.resolve()
    source = path.read_text()
    sites = find_sites(source, args.scope)
    if args.list:
        print("\n".join(map(str, sites)))
        print(f"{len(sites)} sites")
        return 0
    checkout = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=path.parent, capture_output=True,
                                   text=True, check=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(checkout, copy, ignore=IGNORE)
        target = copy / path.relative_to(checkout)
        passed, failure, seconds = run_suite(copy, None)
        if not passed:
            print(f"the unchanged suite fails ({failure}); no mutant is judged", file=sys.stderr)
            return 1
        timeout = 3.0 * seconds + 60.0
        print(f"unchanged suite: passed in {seconds:.1f} s; {len(sites)} mutants, timeout {timeout:.0f} s each",
              flush=True)
        survivors = 0
        for site in sites:
            target.write_text(apply(source, site))
            passed, failure, seconds = run_suite(copy, timeout)
            survivors += passed
            print(f"{site}  {'SURVIVED' if passed else failure}  ({seconds:.1f} s)", flush=True)
    print(f"{len(sites)} mutants: {len(sites) - survivors} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
