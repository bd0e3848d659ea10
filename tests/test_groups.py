"""Group construction, structure queries, and factor machinery."""
import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    ParseError,
    StructuralError,
    ValidationError,
    are_isomorphic,
    build_group,
    common_nontrivial_factor,
    direct_product,
    group_from_table,
    load_table_file,
)
from groupdet.cli import CATALOG

EXPECTED_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
    "C8": 8, "C12": 12, "S3": 6, "D8": 8, "Q8": 8,
}

CENTER_ORDERS = {"S3": 1, "D8": 2, "Q8": 2, "C12": 12}
DERIVED_ORDERS = {"S3": 3, "D8": 2, "Q8": 2, "C12": 1}


def test_catalog_builds_with_expected_orders():
    for spec in CATALOG:
        g = build_group(spec)
        assert g.order == EXPECTED_ORDERS[spec]
        assert g.name == spec
        assert len(g.labels) == g.order


def test_build_group_caches_per_spec():
    assert build_group("S3") is build_group("S3")
    assert build_group("C2 x C4") is build_group("C2 x C4")


def test_identity_and_inverse_axioms():
    for spec in CATALOG:
        g = build_group(spec)
        e = g.identity
        for x in range(g.order):
            assert g.mul(e, x) == x
            assert g.mul(x, e) == x
            assert g.mul(x, g.inv(x)) == e


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(CATALOG + ("C2 x C4", "S3 x C4", "E2^3")),
    data=st.data(),
)
def test_associativity_on_random_triples(spec, data):
    g = build_group(spec)
    elem = st.integers(min_value=0, max_value=g.order - 1)
    x, y, z = data.draw(elem), data.draw(elem), data.draw(elem)
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_bad_tables_rejected():
    with pytest.raises(ValidationError):
        group_from_table([[0, 1], [0, 1]])  # repeated row: not a Latin square
    with pytest.raises(ValidationError):
        # Latin square without associativity (order 5 loop)
        group_from_table([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ])


def test_grammar_errors():
    for bad in ("C0", "C-3", "D3", "Q16", "E4^2", "E2^0", "x C2", "C2 x", ""):
        with pytest.raises(ParseError):
            build_group(bad)


def test_table_file_round_trip(tmp_path):
    g = build_group("S3")
    lines = [str(g.order)]
    lines += [" ".join(str(v) for v in row) for row in g.table]
    lines.append("labels: " + " ".join(g.labels))
    path = tmp_path / "s3.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_table_file(str(path))
    assert loaded.table == g.table
    assert loaded.labels == g.labels
    via_spec = build_group(f"@{path}")
    assert via_spec.table == g.table


def _write_table(path, g):
    lines = [str(g.order)] + [" ".join(str(v) for v in row) for row in g.table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_table_file_edits_are_reread(tmp_path):
    path = tmp_path / "t.txt"
    _write_table(path, build_group("C2"))
    first = build_group(f"@{path}")
    assert first.order == 2
    assert build_group(f"@{path}") is first
    _write_table(path, build_group("C3"))
    edited = build_group(f"@{path}")
    assert edited.order == 3
    assert build_group(f"@{path}") is edited


def test_table_file_path_with_spaces(tmp_path):
    folder = tmp_path / "dir with space"
    folder.mkdir()
    path = folder / "t.txt"
    _write_table(path, build_group("S3"))
    assert build_group(f"@{path}").table == build_group("S3").table
    assert build_group(f"@{path} x C2").order == 12
    assert build_group(f"C2 x @{path}").order == 12


def test_undecodable_table_file_is_a_parse_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        build_group(f"@{path}")
    with pytest.raises(ParseError):
        load_table_file(str(path))


def test_elementary_abelian_and_products():
    e8 = build_group("E2^3")
    assert e8.order == 8 and e8.is_abelian
    assert all(e8.element_order(x) in (1, 2) for x in range(e8.order))
    pg = build_group("C2 x C4")
    assert pg.order == 8 and pg.factors is not None
    assert [f.order for f in pg.factors] == [2, 4]
    nested = direct_product(build_group("C2"), build_group("C2 x C4"))
    assert nested.order == 16
    assert len(nested.factors) == 3  # flattened by default


def test_unflattened_product_keeps_blocks():
    block = build_group("C2 x C4")
    g = direct_product(build_group("C2"), block, flatten=False)
    assert len(g.factors) == 2
    assert g.factors[1] is block
    assert g.name == "C2 x (C2 x C4)"


def test_center_and_derived_subgroup():
    for spec, z_order in CENTER_ORDERS.items():
        g = build_group(spec)
        z = g.center()
        assert z.order == z_order
        assert z.is_normal() and z.is_central()
    for spec, d_order in DERIVED_ORDERS.items():
        g = build_group(spec)
        d = g.derived_subgroup()
        assert d.order == d_order
        assert d.is_normal()


def test_stem_predicate():
    # center inside the derived subgroup
    assert build_group("S3").is_stem()
    assert build_group("D8").is_stem()
    assert build_group("Q8").is_stem()
    assert not build_group("C4").is_stem()
    assert not build_group("C2 x C4").is_stem()


def test_direct_factorizations_satisfy_invariants():
    for spec in ("C6", "C12", "C2 x C4", "E2^2", "C2 x S3"):
        g = build_group(spec)
        facts = g.direct_factorizations()
        assert facts, spec
        for fz in facts:
            left, right = fz.left, fz.right
            assert set(left.elements) & set(right.elements) == {g.identity}
            assert left.order * right.order == g.order
            for a in left.elements:
                for b in right.elements:
                    assert g.mul(a, b) == g.mul(b, a)


def test_indecomposables_have_only_trivial_factorizations():
    for spec in ("C4", "C8", "S3", "D8", "Q8", "C3"):
        g = build_group(spec)
        for fz in g.direct_factorizations():
            assert {fz.left.order, fz.right.order} == {1, g.order}


def test_are_isomorphic_examples():
    c4 = build_group("C4")
    assert are_isomorphic(c4, c4) is not None
    assert are_isomorphic(c4, build_group("E2^2")) is None
    iso = are_isomorphic(build_group("D6"), build_group("S3"))
    assert iso is not None
    d6 = build_group("D6")
    s3 = build_group("S3")
    for a in range(6):
        for b in range(6):
            assert iso[d6.mul(a, b)] == s3.mul(iso[a], iso[b])


def test_are_isomorphic_is_symmetric_on_catalog():
    groups = [build_group(s) for s in CATALOG]
    pairs = [(g1, g2) for g1 in groups for g2 in groups
             if g1.order * g2.order <= 24]
    for g1, g2 in pairs:
        assert (are_isomorphic(g1, g2) is not None) == (
            are_isomorphic(g2, g1) is not None
        )


def test_common_nontrivial_factor_examples():
    w = common_nontrivial_factor(build_group("C2 x C3"), build_group("C2"))
    assert w is not None and w.h_factor.order == 2
    assert common_nontrivial_factor(build_group("S3"), build_group("C4")) is None
    g = build_group("S3")
    w = common_nontrivial_factor(g, g)
    assert w is not None and w.h_factor.order == g.order
    # the isomorphism in the witness really is one, on local positions
    hg, _ = w.h_factorization.left.as_group()
    kg, _ = w.k_factorization.left.as_group()
    for a in range(hg.order):
        for b in range(hg.order):
            assert w.iso_values[hg.mul(a, b)] == kg.mul(w.iso_values[a], w.iso_values[b])


def test_central_only_common_factor():
    # S3 x C2 and C2 share the central C2; S3 x S3 and S3 share only S3 itself,
    # which is not central, so the central-only search comes back empty.
    assert common_nontrivial_factor(
        build_group("S3 x C2"), build_group("C2"), central_only=True
    ) is not None
    assert common_nontrivial_factor(
        build_group("S3"), build_group("S3"), central_only=True
    ) is None


def test_subgroup_closure_validation():
    from groupdet import Subgroup

    g = build_group("S3")
    three_cycle = next(x for x in range(g.order) if g.element_order(x) == 3)
    with pytest.raises(StructuralError):
        Subgroup(g, [g.identity, three_cycle])  # missing its square


def test_element_orders_multiply_out():
    g = build_group("C12")
    assert sorted(set(g.element_orders)) == [1, 2, 3, 4, 6, 12]
    q8 = build_group("Q8")
    assert sorted(g for g in q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
