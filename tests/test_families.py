"""Catalog blocks, density tables, bounds, and extremal constructions."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ptl.decomposition import decompose
from ptl.embedding import is_isomorphic
from ptl.families import (
    FAMILY_BUILDERS,
    FamilyError,
    apex_outerplanar,
    b5_ring,
    b5_ring_augmented,
    bound,
    catalog_block,
    density_table_rows,
    expected_tb_catalog,
    family_instance,
    k2_plus_matching,
    k2_vee_matching,
    h5_extremal_block,
    verify_h5_extremal,
    wheel_ring,
)
from ptl.patterns import contains_subgraph_bruteforce, is_free

# The complete density table, frozen: (table, name, order, delta, density,
# formula).
_EXPECTED_ROWS = [
    ("H4", "B1", 3, 1, Fraction(1, 3), ""),
    ("H4", "B2", 4, 3, Fraction(3, 4), ""),
    ("H4", "B3", 5, 4, Fraction(4, 5), ""),
    ("H4", "B4", 5, 4, Fraction(4, 5), ""),
    ("H4", "B5", 5, 5, Fraction(1), ""),
    ("H4", "B6", 6, 4, Fraction(2, 3), ""),
    ("H4", "B7", 6, 5, Fraction(5, 6), ""),
    ("H4", "B8", 6, 6, Fraction(1), ""),
    ("H4", "B9", 6, 7, Fraction(7, 6), ""),
    ("H4", "B10", 7, 6, Fraction(6, 7), ""),
    ("H4", "B11(4)", 4, 2, Fraction(1, 2), "(n-2)/n"),
    ("H4", "B12(5)", 5, 3, Fraction(3, 5), "(n-2)/n"),
    ("H4", "B13(7)", 7, 6, Fraction(6, 7), "(n-1)/n"),
    ("H4", "B14(8)", 8, 7, Fraction(7, 8), "(n-1)/n"),
    ("H4", "B15(8)", 8, 8, Fraction(1), "1"),
    ("H5", "B1p", 6, 5, Fraction(5, 6), ""),
    ("H5", "B2p", 6, 6, Fraction(1), ""),
    ("H5", "B3p", 7, 6, Fraction(6, 7), ""),
    ("H5", "W(6)", 6, 5, Fraction(5, 6), "(n-1)/n"),
    ("H5", "F(6)", 6, 4, Fraction(2, 3), "(n-2)/n"),
]


def test_density_table_all_rows_frozen():
    rows = density_table_rows("all")
    got = [
        (r.table, r.name, r.order, r.delta, r.density, r.formula)
        for r in rows
    ]
    assert got == _EXPECTED_ROWS


def test_density_table_subsets():
    assert len(density_table_rows("H4")) == 15
    assert len(density_table_rows("H5")) == 5
    assert density_table_rows("h4") == density_table_rows("H4")
    with pytest.raises(FamilyError):
        density_table_rows("H9")


def test_catalog_blocks_self_certify():
    # every fixed block instantiates; density is delta/order
    for table, name, order, delta, density, _ in _EXPECTED_ROWS:
        base = name.partition("(")[0]
        entry = catalog_block(base, order)
        assert entry.delta == delta
        assert entry.density == Fraction(delta, order) == density
        assert entry.plane.n == order


def test_catalog_block_freeness():
    # H4-table blocks avoid H4; H5-table blocks avoid H5
    for table, name, order, *_ in _EXPECTED_ROWS:
        base = name.partition("(")[0]
        entry = catalog_block(base, order)
        assert is_free(entry.graph, table), name


def test_parametric_blocks_scale():
    # name -> (valid orders up to 16, counted 3-faces at order n); B14(6)
    # is the B8 drawing and B15(6) the octahedron
    blocks = {
        "B11": (range(4, 17, 2), lambda n: n - 2),
        "B12": (range(5, 17, 2), lambda n: n - 2),
        "B13": (range(7, 17, 2), lambda n: n - 1),
        "B14": (range(6, 17, 2), lambda n: 6 if n == 6 else n - 1),
        "B15": (range(6, 17, 2), lambda n: 7 if n == 6 else n),
        "W": (range(4, 17), lambda n: n - 1),
        "F": (range(4, 17), lambda n: n - 2),
    }
    for name, (orders, delta) in blocks.items():
        for order in range(1, 17):
            if order not in orders:
                with pytest.raises(FamilyError):
                    catalog_block(name, order)
                continue
            entry = catalog_block(name, order)
            assert entry.order == entry.plane.n == order
            assert entry.delta == delta(order), (name, order)
            assert entry.density == Fraction(entry.delta, order)
            assert entry.display_name == f"{name}({order})"
    assert is_isomorphic(catalog_block("B14", 6).graph, catalog_block("B8").graph)


def test_catalog_block_errors():
    with pytest.raises(FamilyError):
        catalog_block("B99")
    with pytest.raises(FamilyError):
        catalog_block("B1", 4)  # fixed at order 3
    with pytest.raises(FamilyError):
        catalog_block("B15")  # parametric: order required
    with pytest.raises(FamilyError):
        catalog_block("B15", 9)  # wrong parity
    with pytest.raises(FamilyError):
        catalog_block("W", 3)  # below minimum


def test_prime_name_normalisation():
    for spelled, ascii_name in (("B'1", "B1p"), ("B'2", "B2p"), ("B'3", "B3p")):
        assert is_isomorphic(
            catalog_block(spelled).graph, catalog_block(ascii_name).graph
        )


def test_expected_tb_catalog_names():
    h4 = expected_tb_catalog("H4", 16)
    assert {k: sorted(v) for k, v in h4.items()} == {
        3: ["B1"],
        4: ["B11(4)", "B2"],
        5: ["B12(5)", "B3", "B4", "B5"],
        6: ["B11(6)", "B6", "B7", "B8", "B9"],
        7: ["B10", "B12(7)", "B13(7)"],
        8: ["B11(8)", "B14(8)", "B15(8)"],
        9: ["B12(9)", "B13(9)"],
        10: ["B11(10)", "B14(10)", "B15(10)"],
        11: ["B12(11)", "B13(11)"],
        12: ["B11(12)", "B14(12)", "B15(12)"],
        13: ["B12(13)", "B13(13)"],
        14: ["B11(14)", "B14(14)", "B15(14)"],
        15: ["B12(15)", "B13(15)"],
        16: ["B11(16)", "B14(16)", "B15(16)"],
    }
    h5 = expected_tb_catalog("H5", 16)
    assert {k: sorted(v) for k, v in h5.items()} == {
        3: ["B1"],
        4: ["B11(4)", "B2"],
        5: ["B12(5)", "B3", "B4", "B5"],
        6: ["B1p", "B2p", "B6", "F(6)", "W(6)"],
        7: ["B3p", "B4p", "F(7)", "W(7)"],
        8: ["F(8)", "W(8)"],
        9: ["F(9)", "W(9)"],
        10: ["F(10)", "W(10)"],
        11: ["F(11)", "W(11)"],
        12: ["F(12)", "W(12)"],
        13: ["F(13)", "W(13)"],
        14: ["F(14)", "W(14)"],
        15: ["F(15)", "W(15)"],
        16: ["F(16)", "W(16)"],
    }
    with pytest.raises(FamilyError):
        expected_tb_catalog("H6", 5)


def test_b4p_block():
    # the order-7 H5-free block beyond the paper's list; it contains H4,
    # which is why the H4 catalog does not list it
    for name in ("B4p", "B'4"):
        block = catalog_block(name)
        assert block.order == 7
        assert block.delta == 6
        assert block.density == Fraction(6, 7)
        assert contains_subgraph_bruteforce(block.graph, "H5") is None
        assert not is_free(block.graph, "H4")


# -- bounds ------------------------------------------------------------------

def test_bound_values():
    assert bound(72, "thm1").value == Fraction(13 * 72 - 26, 5)
    assert bound(72, "thm1").in_range
    assert not bound(71, "thm1").in_range
    assert bound(6, "thm2").value == 11
    assert bound(7, "thm2").value == 13  # floor(5n/2) - 4
    assert bound(6, "thm2").in_range
    assert not bound(5, "thm2").in_range
    assert bound(174, "thm3").value == 431
    assert bound(174, "thm3").in_range
    assert not bound(173, "thm3").in_range
    assert bound(7, "lemma2").value == Fraction(30, 35)
    with pytest.raises(FamilyError):
        bound(10, "thm9")
    with pytest.raises(FamilyError):
        bound(0, "thm1")


# -- constructions -----------------------------------------------------------

def test_k2_plus_matching():
    inst = k2_plus_matching(10)
    assert inst.plane.n == 10 and inst.plane.m == 21
    assert inst.freeness == "H6"
    assert is_free(inst.plane.graph, "C3|Theta4")
    # odd orders use the isolated-vertex matching convention
    odd = k2_plus_matching(7)
    assert odd.plane.m == (5 * 7) // 2 - 4
    with pytest.raises(FamilyError):
        k2_plus_matching(4)  # too small


def test_k2_vee_matching():
    inst = k2_vee_matching(9)
    assert inst.plane.n == 9 and inst.plane.m == (5 * 9) // 2 - 4
    with pytest.raises(FamilyError):
        k2_vee_matching(8)  # even


def test_apex_outerplanar():
    inst = apex_outerplanar(11)
    assert inst.plane.n == 11 and inst.plane.m == (5 * 11) // 2 - 4
    with pytest.raises(FamilyError):
        apex_outerplanar(10)


def test_wheel_ring():
    inst = wheel_ring(4)
    assert inst.plane.n == 22 and inst.plane.m == 52
    assert is_free(inst.plane.graph, "H4")
    with pytest.raises(FamilyError):
        wheel_ring(2)


def test_b5_ring():
    inst = b5_ring(4)  # 2x blocks at x = 2
    assert inst.plane.n == 20
    assert is_free(inst.plane.graph, "H5")
    with pytest.raises(FamilyError):
        b5_ring(3)  # odd block count


def test_b5_ring_augmented():
    inst = b5_ring_augmented(2, 1)
    n = 26
    assert inst.plane.n == n
    assert inst.plane.m == (5 * n) // 2 - 4
    assert is_free(inst.plane.graph, "H5")
    with pytest.raises(FamilyError):
        b5_ring_augmented(1, 0)


def test_verify_h5_extremal_positive():
    report = verify_h5_extremal(b5_ring_augmented(2, 2).plane)
    assert report.ok
    assert report.component_shapes_ok
    assert report.cover_ok
    assert report.face_lengths_ok
    assert not report.failures
    assert report.component_names == ("B5",) * 4 + ("B2p",) * 2


def test_verify_h5_extremal_negative():
    report = verify_h5_extremal(k2_plus_matching(10).plane)
    assert not report.ok
    assert report.failures
    assert report.component_names == ("?",)


def test_h5_extremal_block_names_copies():
    b5 = catalog_block("B5").graph
    assert h5_extremal_block(b5.relabeled(tuple(reversed(range(b5.n))))) == "B5"
    assert h5_extremal_block(catalog_block("B2p").graph) == "B2p"
    assert h5_extremal_block(catalog_block("B1").graph) is None


def test_family_instance_dispatch():
    inst = family_instance("k2_plus_matching", n=8)
    assert inst.plane.n == 8
    with pytest.raises(FamilyError):
        family_instance("nonesuch", n=8)
    with pytest.raises(FamilyError):
        family_instance("k2_plus_matching", k=8)
    assert set(FAMILY_BUILDERS) >= {
        "k2_plus_matching",
        "k2_vee_matching",
        "apex_outerplanar",
        "wheel_ring",
        "b5_ring",
        "b5_ring_augmented",
    }


def test_wheel_ring_block_structure():
    # the ring chains the wheels into a single triangular component whose
    # density is exactly the component-density limit at its order
    dec = decompose(wheel_ring(3).plane)
    assert [len(b.vertices) for b in dec.blocks] == [7, 7, 7]
    assert [b.density for b in dec.blocks] == [Fraction(6, 7)] * 3
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.density == Fraction(18, 17)
    assert comp.density == bound(len(comp.vertices), "lemma2").value
