"""Grammar and abstract syntax for the tangled dynamic modal language.

ASCII surface syntax::

    var     = [a-z][a-zA-Z0-9_]*
    unary   = "~" | "O" | "<d>" | "[d]" | "<d.>" | "[d.]"
    binary  = "->" | "|" | "&"          (loosest to tightest)
    tangle  = "<t>{" formula ("," formula)* "}"
    dotted  = "<t.>{" formula ("," formula)* "}"
    consts  = "T" | "F"

"->" associates to the right, "|" and "&" to the left.  The dotted
operators, the dotted tangle and the constants are surface sugar and are
expanded during parsing:

    <d.>p   becomes  p | <d>p
    [d.]p   becomes  p & [d]p
    <t.>{..} becomes <d.>(conjunction of args) | <t>{..}
    T / F   become   r | ~r  /  r & ~r  over a reserved variable

The reserved variable cannot be written in the surface syntax, so "T" and
"F" round-trip through the printer.  Printing otherwise emits core
connectives only, with minimal parentheses.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .record import record


class ParseError(ValueError):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class of all AST nodes.  Instances are immutable and hashable."""

    def __str__(self) -> str:
        return pretty(self)


def _node(cls):
    """A frozen `record` node whose hash is computed once and kept.

    The value is the record's own hash, that of the field tuple (the value
    a frozen dataclass gave), so sets of nodes iterate in the same order as
    without the cache.  Without it, hashing a node would rehash its whole
    tree, which is exponential in the nesting of dotted operators: each one
    shares its argument twice.
    """
    cls = record(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Var(Formula):
    name: str


@_node
class Neg(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Diamond(Formula):
    child: Formula


@_node
class Box(Formula):
    child: Formula


@_node
class Next(Formula):
    child: Formula


@_node
class Tangle(Formula):
    """Polyadic tangle operator; arguments behave as a nonempty set.

    Duplicates are merged and the arguments are kept in a canonical order
    (sorted by printed form), so structurally equal argument sets compare
    equal.  A single argument left after merging is not printed.
    """

    args: tuple[Formula, ...]

    def __post_init__(self):
        if not self.args:
            raise ValueError("tangle requires at least one argument")
        args = set(self.args)
        ordered = tuple(args) if len(args) == 1 else tuple(sorted(args, key=pretty))
        object.__setattr__(self, "args", ordered)


# Reserved variable backing the constants; unparseable because surface
# variables must start with a lowercase letter.
RESERVED_VAR = "_const"

_RESERVED = Var(RESERVED_VAR)
_NOT_RESERVED = Neg(_RESERVED)
_TOP = Or(_RESERVED, _NOT_RESERVED)
_BOT = And(_RESERVED, _NOT_RESERVED)


def top() -> Formula:
    return _TOP


def bot() -> Formula:
    return _BOT


def dot_diamond(phi: Formula) -> Formula:
    """Reflexive diamond: phi | <d>phi."""
    return Or(phi, Diamond(phi))


def dot_box(phi: Formula) -> Formula:
    """Reflexive box: phi & [d]phi."""
    return And(phi, Box(phi))


def big_and(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; argument order is preserved."""
    items = list(formulas)
    if not items:
        raise ValueError("empty conjunction")
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def dot_tangle(args: Iterable[Formula]) -> Formula:
    """Dotted tangle: <d.>(conjunction of args) | <t>{args}."""
    t = Tangle(tuple(args))
    return Or(dot_diamond(big_and(t.args)), t)


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Neg, Diamond, Box, Next)):
        return (phi.child,)
    if isinstance(phi, (And, Or, Implies)):
        return (phi.left, phi.right)
    if isinstance(phi, Tangle):
        return phi.args
    return ()


def _tree_measures(phi: Formula) -> tuple[int, int, set[str]]:
    """Tree size, O-depth and variable names of phi, from one post-order
    pass that visits each distinct node object once: a subtree shared by
    several parents counts once per parent, but is measured once."""
    done: dict[int, tuple[int, int]] = {}
    names: set[str] = set()
    stack = [(phi, False)]
    while stack:
        f, ready = stack.pop()
        if id(f) in done:
            continue
        kids = children(f)
        if not ready:
            stack.append((f, True))
            stack.extend((c, False) for c in kids if id(c) not in done)
            continue
        if isinstance(f, Var):
            names.add(f.name)
        nodes, depth = 1, 0
        for c in kids:
            n, d = done[id(c)]
            nodes += n
            depth = max(depth, d)
        done[id(f)] = nodes, depth + isinstance(f, Next)
    return *done[id(phi)], names


def size(phi: Formula) -> int:
    """Number of AST nodes (tangle counts as one node plus its arguments),
    counting a shared subtree once per occurrence."""
    return _tree_measures(phi)[0]


def vars_of(phi: Formula) -> frozenset[str]:
    """Variable names occurring in phi, excluding the reserved one.

    Each distinct node object is visited once, so a subtree shared by
    several parents (as dotted operators share their argument) costs once.
    """
    return frozenset(_tree_measures(phi)[2] - {RESERVED_VAR})


def next_depth(phi: Formula) -> int:
    """Maximum nesting depth of the O operator."""
    return _tree_measures(phi)[1]


# ---------------------------------------------------------------------------
# printing

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def _prec(phi: Formula) -> int:
    if isinstance(phi, Implies):
        return _PREC_IMPLIES
    if isinstance(phi, Or):
        return _PREC_OR
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, (Neg, Diamond, Box, Next)):
        return _PREC_UNARY
    return _PREC_ATOM


def pretty(phi: Formula) -> str:
    """Minimal-parenthesis printer; parse(pretty(phi)) == phi."""
    return _fmt(phi, _PREC_IMPLIES)


def _fmt(phi: Formula, min_prec: int) -> str:
    # only an Or can be T and only an And F: other nodes are not compared
    if type(phi) is Or and phi == _TOP:
        return "T"
    if type(phi) is And and phi == _BOT:
        return "F"
    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, Tangle):
        return "<t>{" + ", ".join(_fmt(a, _PREC_IMPLIES) for a in phi.args) + "}"
    if isinstance(phi, Neg):
        s = "~" + _fmt(phi.child, _PREC_UNARY)
    elif isinstance(phi, Diamond):
        s = "<d>" + _fmt(phi.child, _PREC_UNARY)
    elif isinstance(phi, Box):
        s = "[d]" + _fmt(phi.child, _PREC_UNARY)
    elif isinstance(phi, Next):
        s = "O " + _fmt(phi.child, _PREC_UNARY)
    elif isinstance(phi, And):
        s = _fmt(phi.left, _PREC_AND) + " & " + _fmt(phi.right, _PREC_UNARY)
    elif isinstance(phi, Or):
        s = _fmt(phi.left, _PREC_OR) + " | " + _fmt(phi.right, _PREC_AND)
    elif isinstance(phi, Implies):
        s = _fmt(phi.left, _PREC_OR) + " -> " + _fmt(phi.right, _PREC_IMPLIES)
    else:  # pragma: no cover - exhaustive over node types
        raise TypeError(f"not a formula: {phi!r}")
    if _prec(phi) < min_prec:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# parsing

_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("ARROW", r"->"),
    ("DDIA", r"<d\.>"),
    ("DIA", r"<d>"),
    ("DBOX", r"\[d\.\]"),
    ("BOX", r"\[d\]"),
    ("DTANGLE", r"<t\.>"),
    ("TANGLE", r"<t>"),
    ("IDENT", r"[a-z][a-zA-Z0-9_]*"),
    ("TOP", r"T"),
    ("BOT", r"F"),
    ("NEXT", r"O"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("NOT", r"~"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
]

_MASTER = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _MASTER.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


# Deepest nesting a parsed formula may have: operators and parentheses on
# one path from the root, with a dotted operator counting for the core
# connectives it expands to.  It keeps the recursive printer, the evaluator
# and the parser itself far from Python's recursion limit.
MAX_NESTING = 100
# Most nodes (as `size` counts them) a parsed formula may have: the tree
# doubles with each nested dotted operator, which shares its argument, and
# the printer (which orders tangle arguments) writes out the whole tree.
MAX_NODES = 100_000

# prefix token -> (node on the argument, connective joining the argument to
# that node for the dotted operators: phi | <d>phi, phi & [d]phi)
_PREFIX = {"NOT": (Neg, None), "DIA": (Diamond, None), "BOX": (Box, None),
           "NEXT": (Next, None), "DDIA": (Diamond, Or), "DBOX": (Box, And)}


class _Parser:
    """Recursive descent; productions return the formula, its nesting depth
    and its node count, and only parentheses and tangle braces recurse.

    Every node built goes through :meth:`intern`, children before parents,
    so textually equal subformulas of one parse are one object."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # enclosing parentheses and tangle braces
        self.nodes: dict[Formula, Formula] = {}

    def intern(self, node: Formula) -> Formula:
        """The node of this parse equal to `node`, which becomes it if there
        is none.  Its children are interned already, so the equality test
        on a hash hit compares them by identity."""
        return self.nodes.setdefault(node, node)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return self.advance()

    def nested(self, depth: int, pos: int) -> int:
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", pos)
        return depth

    def sized(self, nodes: int, pos: int) -> int:
        if nodes > MAX_NODES:
            raise ParseError(f"formula has more than {MAX_NODES} nodes", pos)
        return nodes

    def join(self, op, left: tuple[Formula, int, int], right: tuple[Formula, int, int],
             pos: int) -> tuple[Formula, int, int]:
        return (self.intern(op(left[0], right[0])),
                self.nested(max(left[1], right[1]) + 1, pos),
                self.sized(left[2] + right[2] + 1, pos))

    def implies(self) -> tuple[Formula, int, int]:
        parts = [self.disjunction()]
        arrows = []
        while self.peek()[0] == "ARROW":
            arrows.append(self.advance()[2])
            parts.append(self.disjunction())
        out = parts.pop()
        while parts:  # "->" associates to the right
            out = self.join(Implies, parts.pop(), out, arrows.pop())
        return out

    def disjunction(self) -> tuple[Formula, int, int]:
        out = self.conjunction()
        while self.peek()[0] == "OR":
            pos = self.advance()[2]
            out = self.join(Or, out, self.conjunction(), pos)
        return out

    def conjunction(self) -> tuple[Formula, int, int]:
        out = self.unary()
        while self.peek()[0] == "AND":
            pos = self.advance()[2]
            out = self.join(And, out, self.unary(), pos)
        return out

    def unary(self) -> tuple[Formula, int, int]:
        ops = []
        while self.peek()[0] in _PREFIX:
            ops.append(self.advance())
        out, depth, nodes = self.atom()
        for kind, _, pos in reversed(ops):
            op, dotted = _PREFIX[kind]
            node = self.intern(op(out))
            out = node if dotted is None else self.intern(dotted(out, node))
            depth = self.nested(depth + (1 if dotted is None else 2), pos)
            nodes = nodes + 1 if dotted is None else 2 * nodes + 2
        # the chain's size is checked once, so its nesting is reported first
        return out, depth, self.sized(nodes, ops[0][2]) if ops else nodes

    def atom(self) -> tuple[Formula, int, int]:
        kind, text, pos = self.peek()
        if kind == "IDENT":
            self.advance()
            return self.intern(Var(text)), 0, 1
        if kind in ("TOP", "BOT"):
            self.advance()
            const = top() if kind == "TOP" else bot()
            return const, 0, size(const)
        if kind == "LPAREN":
            self.advance()
            self.enter(pos)
            inner, depth, nodes = self.implies()
            self.expect("RPAREN")
            self.open -= 1
            return inner, self.nested(depth + 1, pos), nodes
        if kind in ("TANGLE", "DTANGLE"):
            self.advance()
            args, depth, counts = self.tangle_args()
            n = sum(counts.values())  # equal arguments merge, so each counts once
            # bounds first: building a tangle sorts its arguments by their
            # printed form, which is as long as the expanded tree
            if kind == "TANGLE":
                depth, nodes = self.nested(depth + 1, pos), self.sized(n + 1, pos)
                return self.intern(Tangle(tuple(args))), depth, nodes
            # <d.> over the left-folded conjunction of the arguments, | <t>
            conj = n + len(counts) - 1
            depth = self.nested(depth + len(args) + 2, pos)
            nodes = self.sized(2 * conj + n + 4, pos)
            return self.dot_tangle(args), depth, nodes
        raise ParseError(f"expected a formula, found {text!r}", pos)

    def dot_tangle(self, args: list[Formula]) -> Formula:
        """:func:`dot_tangle` of the arguments, every node interned."""
        t = self.intern(Tangle(tuple(args)))
        conj = t.args[0]
        for f in t.args[1:]:
            conj = self.intern(And(conj, f))
        return self.intern(Or(self.intern(Or(conj, self.intern(Diamond(conj)))), t))

    def enter(self, pos: int) -> None:
        self.open += 1
        self.nested(self.open, pos)

    def tangle_args(self) -> tuple[list[Formula], int, dict[Formula, int]]:
        _, _, pos = self.expect("LBRACE")
        if self.peek()[0] == "RBRACE":
            raise ParseError("empty tangle", self.peek()[2])
        self.enter(pos)
        args = [self.implies()]
        while self.peek()[0] == "COMMA":
            self.advance()
            args.append(self.implies())
        self.expect("RBRACE")
        self.open -= 1
        return ([f for f, _, _ in args], max(d for _, d, _ in args),
                {f: n for f, _, n in args})


def parse(text: str) -> Formula:
    """Parse a formula from the ASCII surface syntax; formulas nested
    deeper than ``MAX_NESTING`` or with more than ``MAX_NODES`` nodes raise
    ParseError.  Equal subformulas of the result are one object (the parse
    is hash-consed), so its distinct nodes can be told apart by identity."""
    p = _Parser(text)
    out, _, _ = p.implies()
    kind, tok, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected token {tok!r}", pos)
    return out
