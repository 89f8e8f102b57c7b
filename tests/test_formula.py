import pytest
from hypothesis import given, settings, strategies as st

from tanglemc import formula
from tanglemc.formula import (
    MAX_NESTING,
    MAX_NODES,
    And,
    Box,
    Diamond,
    Implies,
    Neg,
    Next,
    Or,
    ParseError,
    Tangle,
    Var,
    _Parser,
    bot,
    children,
    dot_diamond,
    next_depth,
    parse,
    pretty,
    size,
    top,
    vars_of,
)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_single_productions():
    assert parse("<d>p") == Diamond(p)
    assert parse("[d]p") == Box(p)
    assert parse("O p") == Next(p)
    assert parse("~p") == Neg(p)
    assert parse("<t>{p, q}") == Tangle((p, q))


def test_dotted_tangle_expansion():
    assert parse("<t.>{p}") == Or(Or(p, Diamond(p)), Tangle((p,)))


def test_dotted_unary_expansions():
    assert parse("<d.>p") == Or(p, Diamond(p))
    assert parse("[d.]p") == And(p, Box(p))


def test_precedence_and_associativity():
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p & q -> r") == Implies(And(p, q), r)
    assert parse("~<d>p & q") == And(Neg(Diamond(p)), q)
    assert parse("p | q | r") == Or(Or(p, q), r)


def test_constants_desugar_and_print():
    t, f = parse("T"), parse("F")
    assert isinstance(t, Or) and isinstance(f, And)
    assert t == top() and f == bot()
    assert pretty(t) == "T" and pretty(f) == "F"
    assert parse(pretty(Diamond(top()))) == Diamond(top())


def test_tangle_set_semantics():
    assert parse("<t>{p, p}") == parse("<t>{p}")
    assert parse("<t>{q, p}") == parse("<t>{p, q}")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("<t>{}")
    with pytest.raises(ParseError):
        parse("p &")
    with pytest.raises(ParseError):
        parse("p $ q")
    with pytest.raises(ParseError):
        parse("(p")
    err = None
    try:
        parse("p @")
    except ParseError as e:
        err = e
    assert err is not None and err.position == 2


@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "p" + ")" * k,
    lambda k: "~" * k + "p",
    lambda k: " & ".join(["p"] * (k + 1)),
    lambda k: " -> ".join(["p"] * (k + 1)),
    lambda k: "<d>" * k + "p",
    lambda k: "O " * k + "p",
    lambda k: "<t>{" * k + "p" + "}" * k,
])
def test_nesting_bound(nest):
    parse(nest(MAX_NESTING))
    with pytest.raises(ParseError, match="nested deeper"):
        parse(nest(MAX_NESTING + 1))


def test_nesting_bound_counts_expanded_sugar():
    with pytest.raises(ParseError, match="nested deeper"):
        parse("<d.>" * 60 + "p")
    wide = "<t.>{" + ", ".join(f"p{i}" for i in range(400)) + "}"
    with pytest.raises(ParseError, match="nested deeper"):
        parse(wide)


@pytest.mark.parametrize("text", [
    "<d.>p", "[d.]<d.>~p", "<t.>{p, q}", "<t.>{p, p, <d.>q}", "<t>{q, p, q}",
    "T & F -> <t.>{[d.]T, O p}", "<d.>(p | <t.>{p, <d.>p}) & [d.](q -> F)",
])
def test_parser_counts_the_expanded_nodes(text):
    phi, _, nodes = _Parser(text).implies()
    assert nodes == size(phi)


def test_node_bound():
    # 15 nested <d.> expand to 98,302 nodes; a tangle fills up the rest
    chain = "<d.>" * 15 + "p & <t>{"
    names = [f"p{i}" for i in range(MAX_NODES - 98_302 - 2)]
    assert size(parse(chain + ", ".join(names) + "}")) == MAX_NODES
    # equal tangle arguments are merged, so a repeated one adds no node
    parse(chain + ", ".join(names + ["p0"]) + "}")
    with pytest.raises(ParseError, match="nodes"):
        parse(chain + ", ".join(names + ["q"]) + "}")


@pytest.mark.parametrize("opener", ["<t>{", "<t.>{"])
def test_oversize_tangle_is_rejected_before_it_is_built(monkeypatch, opener):
    # building the tangle would sort 30 arguments of 2**16 nodes by their
    # printed form
    def fail(phi):
        raise AssertionError("pretty called")

    monkeypatch.setattr(formula, "pretty", fail)
    text = opener + ", ".join("<d.>" * 15 + f"p{i}" for i in range(30)) + "}"
    with pytest.raises(ParseError, match="nodes"):
        parse(text)


def test_tangle_of_equal_arguments_is_built_without_printing(monkeypatch):
    # one argument left after merging needs no order: the 30 equal
    # arguments of 2**16 nodes each are not printed
    def fail(phi):
        raise AssertionError("pretty called")

    monkeypatch.setattr(formula, "pretty", fail)
    phi = parse("<t>{" + ", ".join(["<d.>" * 15 + "p0"] * 30) + "}")
    monkeypatch.undo()
    assert len(phi.args) == 1 and size(phi) == size(phi.args[0]) + 1
    assert pretty(parse("<t>{<d.>p, <d.>p}")) == "<t>{p | <d>p}"


def test_printer_compares_only_or_and_and_nodes_with_the_constants(monkeypatch):
    # T is an Or and F an And: a formula with neither prints without a
    # single node comparison
    phi = parse("~<d>[d]O (p -> <t>{q, O p})")
    compared = []

    def eq(self, other):
        compared.append(type(self))
        return NotImplemented

    for cls in (Var, Neg, Diamond, Box, Next, Implies, Tangle, And, Or):
        monkeypatch.setattr(cls, "__eq__", eq)
    assert pretty(phi) == "~<d>[d]O (p -> <t>{O p, q})"
    assert compared == []


def test_hash_is_cached_and_keeps_the_dataclass_value():
    phi = p
    for _ in range(60):
        phi = dot_diamond(phi)  # 121 nodes, 2**60 paths from the root to p
    assert hash(phi) == hash((phi.left, phi.right))
    assert hash(p) == hash(("p",))
    assert hash(Tangle((q, p))) == hash(((p, q),))


def test_parse_makes_equal_subformulas_one_object():
    phi = parse("<t>{p, q} & <t>{q, p}")
    assert phi.left is phi.right
    # equal tangle arguments, compared by identity, merge without walking
    # their 2**12 paths to p0
    arg = "<d.>" * 12 + "p0"
    phi = parse(f"<t>{{{arg}, {arg}, {arg}}} & {arg}")
    assert len(phi.left.args) == 1 and phi.left.args[0] is phi.right
    assert phi.right.right.child is phi.right.left  # <d.>x is x | <d>x
    dotted = parse("<t.>{p, q} | (p & q)")
    assert dotted.right is dotted.left.left.left


def test_size_and_next_depth_measure_each_shared_node_once():
    phi = p
    for k in range(1, 41):
        phi = dot_diamond(Next(phi))  # 5 * 2**k - 4 nodes, O-depth k
    assert size(phi) == 5 * 2**40 - 4
    assert next_depth(phi) == 40
    assert size(top()) == 4 and next_depth(Next(phi)) == 41


def test_empty_tangle_constructor_rejected():
    with pytest.raises(ValueError):
        Tangle(())


def test_next_depth_examples():
    assert next_depth(p) == 0
    assert next_depth(parse("O O p & <d>p")) == 2
    assert next_depth(parse("<t>{O p, q}")) == 1


formulas = st.recursive(
    st.sampled_from([p, q, r, top(), bot()]),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Diamond, sub),
        st.builds(Box, sub),
        st.builds(Next, sub),
        st.builds(lambda args: Tangle(tuple(args)), st.lists(sub, min_size=1, max_size=3)),
    ),
)


@given(formulas)
def test_parse_print_roundtrip(phi):
    assert parse(pretty(phi)) == phi


@given(formulas)
def test_next_depth_bounded_by_size(phi):
    assert next_depth(phi) <= size(phi)


def test_vars_excludes_reserved():
    assert vars_of(parse("T & p")) == {"p"}


def test_vars_of_visits_a_shared_subtree_once():
    phi = p
    for _ in range(60):
        phi = dot_diamond(phi)  # 2**60 paths from the root to p
    assert vars_of(phi) == {"p"}
    assert vars_of(Implies(phi, Next(q))) == {"p", "q"}


def walk(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(children(f))


@given(formulas)
@settings(max_examples=25)
def test_vars_of_matches_the_tree_walk(phi):
    names = {f.name for f in walk(phi) if isinstance(f, Var)} - {formula.RESERVED_VAR}
    assert vars_of(phi) == names
