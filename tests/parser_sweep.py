"""A differential sweep of the expression parser against another revision's,
run by hand from the repository root:

    PYTHONPATH=src python3 tests/parser_sweep.py REV [N] [SEED]

Loads REV's ``src/rejmc`` as a package of its own (conftest.load_revision)
and parses N (default 100000) random strings with its parser and with this
checkout's, against the variables x and y. Each string is 1 to 12 tokens drawn
from TOKENS, joined with a space or with nothing, so that tokens also run
together ("xy", "12.5", "andx"). Prints how many strings each parser
accepts, how many accepted ASTs are equal as canonical trees (see
``tree``), and each class of difference with its count and up to three
examples: an AST that differs, a string only one parser accepts, and, for
strings both refuse, each pair of messages with the offsets stripped (or
"same message, other offset"). Exits 1 when an AST or an accept/refuse
outcome differs. pytest does not collect this file.
"""
import random
import re
import sys
from collections import defaultdict

from conftest import load_revision, node_fields
from rejmc import expression

TOKENS = "x y 1 2.5 pi sin min ( ) , + - * / ^ < <= > >= and".split()
NAMES = ("x", "y")


def and_terms(node) -> list:
    """The operands of an 'and' chain, however it nests: a flat And node
    or nested BinOp('and', ...) nodes."""
    kind = type(node).__name__
    if kind == "And":
        return [t for term in node.terms for t in and_terms(term)]
    if kind == "BinOp" and node.op == "and":
        return and_terms(node.left) + and_terms(node.right)
    return [node]


def tree(node):
    """An AST as nested tuples, so ASTs of two modules compare equal. The
    tree is canonical across the two forms the parser has had: a Rel is a
    BinOp, and an 'and' chain is one flat And of its operands."""
    fields = node_fields(node)
    if fields is not None:
        kind = type(node).__name__
        if kind == "And" or kind == "BinOp" and node.op == "and":
            return ("And", tuple(tree(t) for t in and_terms(node)))
        kind = "BinOp" if kind == "Rel" else kind
        return (kind, *(tree(x) for x in fields))
    if isinstance(node, tuple):
        return tuple(tree(x) for x in node)
    return node


def outcome(module, text):
    """("ok", tree) or ("error", message)."""
    try:
        return "ok", tree(module.parse(text, NAMES))
    except module.ParseError as exc:
        return "error", str(exc)


def without_offset(message: str) -> str:
    return re.sub(r" at offset \d+", "", message)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    rev = sys.argv[1]
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
    rng = random.Random(int(sys.argv[3]) if len(sys.argv) > 3 else 2024)
    other = load_revision(rev).expression
    accepted = {rev: 0, "this checkout": 0}
    equal = 0
    classes = defaultdict(list)
    for _ in range(n):
        words = rng.choices(TOKENS, k=rng.randint(1, 12))
        text = "".join(w + rng.choice(("", " ")) for w in words).strip()
        old, new = outcome(other, text), outcome(expression, text)
        accepted[rev] += old[0] == "ok"
        accepted["this checkout"] += new[0] == "ok"
        if old == new:
            equal += old[0] == "ok"
            continue
        if old[0] != new[0]:
            key = f"{old[0]} at {rev}, {new[0]} here"
        elif old[0] == "ok":
            key = "ASTs differ"
        elif without_offset(old[1]) == without_offset(new[1]):
            key = f"same message, other offset: {without_offset(old[1])}"
        else:
            key = f"{without_offset(old[1])} -> {without_offset(new[1])}"
        classes[key].append((text, old[1], new[1]))
    print(f"{n} strings")
    for who, count in accepted.items():
        print(f"parsed by {who}: {count}")
    print(f"equal ASTs: {equal}")
    for key, cases in sorted(classes.items(), key=lambda kv: -len(kv[1])):
        print(f"{len(cases)} x {key}")
        for text, old, new in cases[:3]:
            print(f"    {text!r}: {old} | {new}")
    failed = any(k.startswith(("ok at", "error at", "ASTs")) for k in classes)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
