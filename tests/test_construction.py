"""Trusted construction and closure by generator walk, against oracles.

Direct products and extracted subgroups skip table validation, and
``closure`` walks right multiplication by generators.  The oracles here are
independent of both: the validating constructor, and the all-pairs closure
that ``closure`` used before the walk.
"""
import ast
import inspect
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import groupdet.groups as groups_module
from groupdet import (
    FiniteGroup,
    ValidationError,
    build_group,
    direct_product,
    group_from_table,
)
from groupdet.cli import CATALOG
from groupdet.groups import _validate_table

CATALOG_PAIRS = list(itertools.combinations_with_replacement(CATALOG, 2))

# A Latin square with a two-sided identity 0 that is not associative
# (an order-5 loop): (1*2)*2 = 3*2 = 1 but 1*(2*2) = 1*4 = 2.
NON_ASSOCIATIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _oracle_closure(g, seed):
    """The all-pairs closure: multiply each new element with every element found."""
    t = g.table
    got = {g.identity}
    frontier = [g.identity]
    for s in seed:
        if s not in got:
            got.add(s)
            frontier.append(s)
    while frontier:
        x = frontier.pop()
        for y in tuple(got):
            for z in (t[x][y], t[y][x]):
                if z not in got:
                    got.add(z)
                    frontier.append(z)
    return tuple(sorted(got))


def _oracle_generators(g):
    """The greedy choice by descending element order, on the oracle closure."""
    gens = []
    have = {g.identity}
    for x in sorted(range(g.order), key=lambda x: (-g.element_orders[x], x)):
        if x not in have:
            gens.append(x)
            have = set(_oracle_closure(g, gens))
            if len(have) == g.order:
                break
    return tuple(gens)


def _relabelled(g, perm):
    """A validated copy of g with each element x renamed perm[x]."""
    back = {p: x for x, p in enumerate(perm)}
    table = [
        [perm[g.table[back[a]][back[b]]] for b in range(g.order)]
        for a in range(g.order)
    ]
    return FiniteGroup(table, name=f"relabelled {g.name}")


def _products():
    out = [direct_product(build_group(a), build_group(b)) for a, b in CATALOG_PAIRS]
    out.append(direct_product(build_group("C2"), build_group("C2"), build_group("C3")))
    out.append(direct_product(build_group("C2"), build_group("C2 x C4")))
    # Factors whose identity is not element 0, so the product identity is
    # a nontrivial mixed-radix number.
    rng = random.Random(1)
    s3, q8 = (
        _relabelled(build_group(spec), rng.sample(range(n), n))
        for spec, n in (("S3", 6), ("Q8", 8))
    )
    assert s3.identity != 0 and q8.identity != 0
    out.append(direct_product(s3, build_group("C4"), q8))
    return out


def test_trusted_products_agree_with_validated_construction():
    products = _products()
    assert len(products) == 55 + 3
    for p in products:
        oracle = FiniteGroup(p.table, name="oracle")
        assert p.table == oracle.table, p.name
        assert p.identity == oracle.identity, p.name
        assert p.inverse == oracle.inverse, p.name
        assert p.identity == p.coords.index(tuple(f.identity for f in p.factors))


@pytest.mark.parametrize("spec", CATALOG + ("D8 x C4",))
def test_extracted_normal_subgroups_pass_validation(spec):
    g = build_group(spec)
    for sub in g.normal_subgroups():
        h, index = sub.as_group()
        rows, e = _validate_table(h.table)
        assert rows == h.table
        assert e == h.identity == index[g.identity]
        assert h.inverse == tuple(index[g.inverse[x]] for x in sub.elements)


def test_extracted_subgroup_of_a_relabelled_group_keeps_its_identity():
    # Reversed numbering puts the identity last in every subgroup.
    g = _relabelled(build_group("D8"), range(7, -1, -1))
    assert g.identity == 7
    for sub in g.normal_subgroups():
        h, index = sub.as_group()
        assert h.identity == sub.order - 1
        assert _validate_table(h.table) == (h.table, h.identity)


CLOSURE_SPECS = CATALOG + ("S4", "E2^4")


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(CLOSURE_SPECS), data=st.data())
def test_closure_matches_the_all_pairs_oracle(spec, data):
    g = build_group(spec)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    assert g.closure(seed) == _oracle_closure(g, seed)


def test_closure_of_a_whole_subgroup_and_of_nothing():
    g = build_group("S4")
    assert g.closure([]) == (g.identity,)
    assert g.closure(range(g.order)) == tuple(range(g.order))
    for sub in g.all_subgroups():
        assert g.closure(sub.elements) == sub.elements


def test_generators_match_the_greedy_choice_on_the_oracle_closure():
    groups = [build_group(spec) for spec in CATALOG]
    groups += [p for p in _products() if p.order <= 144]
    assert len(groups) >= 10 + 55
    for g in groups:
        assert g.generators() == _oracle_generators(g), g.name


def test_non_associative_table_is_rejected_through_every_entry(tmp_path):
    with pytest.raises(ValidationError, match="associativity"):
        FiniteGroup(NON_ASSOCIATIVE)
    with pytest.raises(ValidationError, match="associativity"):
        group_from_table(NON_ASSOCIATIVE)
    path = tmp_path / "loop.txt"
    lines = ["5"] + [" ".join(map(str, row)) for row in NON_ASSOCIATIVE]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="associativity"):
        build_group(f"@{path}")
    # The atom is validated before any product is built from it.
    with pytest.raises(ValidationError, match="associativity"):
        build_group(f"@{path} x C2")
    with pytest.raises(ValidationError, match="associativity"):
        build_group(f"C2 x @{path}")


def _calls_trusted(node):
    return any(
        isinstance(c, ast.Call)
        and isinstance(c.func, ast.Attribute)
        and c.func.attr == "_trusted"
        for c in ast.walk(node)
    )


def test_trusted_constructor_has_exactly_two_callers():
    package = Path(groups_module.__file__).parent
    for path in package.glob("*.py"):
        if path.name != "groups.py":
            assert "_trusted" not in path.read_text(encoding="utf-8"), path.name
    tree = ast.parse(inspect.getsource(groups_module))
    callers = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _calls_trusted(node):
            callers.append(node.name)
        elif isinstance(node, ast.ClassDef):
            callers += [
                f"{node.name}.{fn.name}"
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and _calls_trusted(fn)
            ]
    assert sorted(callers) == ["Subgroup.as_group", "direct_product"]
