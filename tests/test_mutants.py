"""`tools/mutants.py`'s site finder and rewrite on a source string; no mutant is run."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SOURCE = '''\
LIMIT = 0.5


def inside(x, lo, hi):
    """lo < x: a docstring is no site."""
    return lo < x <= hi and x != 0.0  # 0.0 times (1 + 2**-40) is 0.0: no site


class Sample:
    def shift(self, v):
        v += 1.5 * (self.a - "é" .count("é")) / 2
        return v ** 2 == (v
                          - 1)
'''


def test_site_finder_lists_each_kind_in_source_order():
    sites = [(s.line, s.kind, s.old, s.new) for s in mutants.find_sites(SOURCE)]
    assert sites == [
        (1, "const", "0.5", repr(0.5 * (1 + 2**-40))),
        (6, "compare", "<", "<="), (6, "compare", "<=", "<"), (6, "compare", "!=", "=="),
        (11, "arith", "+=", "-="), (11, "const", "1.5", repr(1.5 * (1 + 2**-40))), (11, "arith", "*", "/"),
        (11, "arith", "-", "+"), (11, "arith", "/", "*"),
        (12, "compare", "==", "!="),
        (13, "arith", "-", "+"),
    ]


def test_scope_keeps_the_named_definitions_and_apply_rewrites_one_token():
    sites = mutants.find_sites(SOURCE, ["Sample"])
    assert {s.line for s in sites} == {11, 12, 13}
    # the column counts characters: "é" is two bytes in ast's offsets
    divide = next(s for s in sites if s.old == "/")
    changed = mutants.apply(SOURCE, divide).splitlines()
    assert changed[10] == '        v += 1.5 * (self.a - "é" .count("é")) * 2'
    assert changed[:10] + changed[11:] == SOURCE.splitlines()[:10] + SOURCE.splitlines()[11:]


def test_killer_reads_the_first_failed_test():
    output = "F\n=== short test summary info ===\nFAILED tests/test_a.py::test_b[x-1] - AssertionError\n" \
             "ERROR tests/test_c.py::test_d\n"
    assert mutants.killer(output) == "tests/test_a.py::test_b[x-1]"
    assert mutants.killer("12 passed in 1.0s\n") is None


def test_an_f_string_holds_no_site():
    # a + or / in a replacement field, and a nested f-string, is no site; the operators outside it still are
    source = 'def label(name, a, b):\n    return f"{name} at {a + b:.3f} ({f\'{a / 2.5}\'})" + name * 2\n'
    sites = [(s.line, s.kind, s.old, s.new) for s in mutants.find_sites(source)]
    assert sites == [(2, "arith", "+", "-"), (2, "arith", "*", "/")]
    changed = mutants.apply(source, mutants.find_sites(source)[0])
    assert changed == source.replace('" + name', '" - name')
