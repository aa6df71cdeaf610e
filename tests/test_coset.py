from types import SimpleNamespace

from bqkit.coset import enumerate_cosets
from bqkit.homotopy import NOT_HOMOTOPIC, GroupPresentation, HomotopyRelation


def test_cyclic_group():
    table = enumerate_cosets(1, [(1, 1, 1)])  # Z/3
    assert table is not None
    assert table.order == 3
    assert table.verify([(1, 1, 1)])
    assert table.is_nontrivial((1,))
    assert not table.is_nontrivial((1, 1, 1))


def test_symmetric_group_s3():
    """S3 = <a, b | a^2, b^3, (ab)^2>: its abelianization is Z2, where b
    and the commutator a b a^-1 b^-1 vanish, but the coset action of
    the table shows both nontrivial."""
    rels = [(1, 1), (2, 2, 2), (1, 2, 1, 2)]
    table = enumerate_cosets(2, rels)
    assert table is not None
    assert table.order == 6
    assert table.verify(rels)
    assert table.is_nontrivial((1, 2))
    assert not table.is_nontrivial((1, 2, 1, 2))
    lattice = GroupPresentation(("a", "b"), tuple(rels)).lattice
    assert lattice.invariants() == (0, (2,))
    assert lattice.contains([0, 1])  # b vanishes in Z2
    assert table.is_nontrivial((2,))
    assert table.is_nontrivial((1, 2, -1, -2))
    # the refuting branch of the coset verdict, on the chord word of a loop
    stub = SimpleNamespace(_cosets=table)
    d = HomotopyRelation._coset_verdict(stub, (1, 2, -1, -2))
    assert d.status == NOT_HOMOTOPIC
    assert d.certificate == {"kind": "coset-action", "order": 6,
                             "word": (1, 2, -1, -2)}


def test_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    rels = [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)]
    table = enumerate_cosets(2, rels)
    assert table is not None
    assert table.order == 8
    assert table.verify(rels)
    # a^2 is the unique central involution, nontrivial
    assert table.is_nontrivial((1, 1))
    assert not table.is_nontrivial((1, 1, 1, 1))


def test_infinite_group_hits_cap():
    assert enumerate_cosets(1, []) is None
    assert enumerate_cosets(2, [(1, 2, -1, -2)]) is None


def test_collapsing_relators():
    # <a, b | a, b^2> is Z/2
    table = enumerate_cosets(2, [(1,), (2, 2)])
    assert table.order == 2
    assert not table.is_nontrivial((1,))
    assert table.is_nontrivial((2,))
    # killing both generators leaves the trivial group
    table = enumerate_cosets(2, [(1,), (2,)])
    assert table.order == 1
    assert not table.is_nontrivial((2, 1, 2))
