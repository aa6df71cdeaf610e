"""bqkit's records against the dataclasses they replaced.

Each record class of ``src/bqkit`` is compared with a dataclass declared
here with the same fields, defaults and frozen flag: the constructor's
parameters, the repr, ``==`` and ``!=`` (also against a record of
another class with equal fields), the hash or its ``TypeError``, fresh
default containers, and the ``AttributeError`` raised when a field of a
frozen record is assigned or deleted.  Another test checks that every
record compares and hashes through the field getter of its class, and
a last one that importing bqkit loads neither ``dataclasses`` nor
``inspect``.

The file needs no pytest, so it also runs as a script:
``PYTHONPATH=src python tests/test_records.py``.
"""

import dataclasses
import inspect
import operator
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import bqkit
from bqkit import cover, dsl, fields, gamma, homotopy, ideal, quiver, transform
from bqkit.records import FrozenRecord, Record


# -- the references: the dataclasses as they were declared in src/bqkit -----

@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    name: str
    vertices: tuple
    arrows: tuple


@dataclass(frozen=True)
class Path:
    source: str
    target: str
    arrows: tuple


@dataclass(frozen=True)
class Walk:
    source: str
    target: str
    letters: tuple


@dataclass(frozen=True)
class Bypass:
    arrow: str
    path: object


@dataclass(frozen=True)
class Field:
    char: int = 0


@dataclass(frozen=True)
class Relation:
    source: str
    target: str
    terms: tuple


@dataclass(frozen=True)
class Transvection:
    bypass: object
    tau: object


@dataclass(frozen=True)
class Dilatation:
    scales: tuple


@dataclass(frozen=True)
class MoveStep:
    kind: str
    position: int
    data: tuple
    result: object


@dataclass(frozen=True)
class Decision:
    status: str
    chain: tuple = ()
    certificate: dict = None
    cap: str = None
    coset_cap: int = None


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


@dataclass
class RawTerm:
    sign: int
    numerator: int
    denominator: int
    path_tokens: tuple
    token: object


@dataclass
class IdealDecl:
    name: str
    quiver_name: str
    char: int
    relations: list


@dataclass
class Workspace:
    quivers: dict = field(default_factory=dict)
    ideal_decls: dict = field(default_factory=dict)
    projections: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple
    table: tuple


@dataclass(frozen=True)
class Grading:
    group: object
    degrees: tuple


@dataclass
class DeckMap:
    name: str
    vertex_map: dict


@dataclass
class CoverReport:
    ok: bool
    violations: list
    rim_lifts: int


@dataclass
class GaloisResult:
    status: str
    group_order: int
    automorphisms: list
    witness: object = None


@dataclass
class CoverMorphism:
    source: object
    target: object
    vertex_map: dict
    arrow_images: dict
    base_label: str
    checks: dict = field(default_factory=dict)


@dataclass
class PipelineResult:
    chain: list
    morphisms: list
    composite: object
    group_order: int
    chord_images: dict
    surjective: bool
    kernel_report: dict
    commutes: bool


@dataclass
class ProbeResult:
    hits: list = field(default_factory=list)
    misses: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class GammaVertex:
    index: int
    key: tuple
    ideal: object
    homotopy: object
    representatives: list


@dataclass
class GammaEdge:
    source: int
    target: int
    transvection: object
    source_rep: object
    target_rep: object


@dataclass
class GammaQuiver:
    vertices: list
    edges: list
    bypass_count: int
    diagnostics: list


@dataclass
class SurjectionResult:
    status: str
    witness: tuple
    source_invariants: tuple
    target_invariants: tuple


# -- the cases: (record, reference, arguments, other arguments) --------------

ARROW = quiver.Arrow("a", "x", "y")
PATH = quiver.Path("x", "y", ("a",))
LONG_PATH = quiver.Path("x", "y", ("b", "c"))
WALK = quiver.Walk("x", "y", (("a", 1),))
BYPASS = quiver.Bypass("a", LONG_PATH)
TOKEN = dsl.Token("name", "a", 1, 1)
GROUP = cover.FiniteGroup.cyclic(2)

CASES = [
    (quiver.Arrow, Arrow, ("a", "x", "y"), ("b", "x", "y")),
    (quiver.Quiver, Quiver, ("Q", ("x", "y"), (ARROW,)), ("Q", ("x", "y"), ())),
    (quiver.Path, Path, ("x", "y", ("a",)), ("x", "x", ())),
    (quiver.Walk, Walk, ("x", "y", (("a", 1),)), ("y", "x", (("a", -1),))),
    (quiver.Bypass, Bypass, ("a", LONG_PATH), ("a", PATH)),
    (fields.Field, Field, (0,), (2,)),
    (ideal.Relation, Relation, ("x", "y", ((PATH, 1),)),
     ("x", "y", ((PATH, Fraction(1, 2)),))),
    (transform.Transvection, Transvection, (BYPASS, 1), (BYPASS, 2)),
    (transform.Dilatation, Dilatation, ((("a", 2),),), ((("a", 3),),)),
    (homotopy.MoveStep, MoveStep, ("delete", 0, (), WALK),
     ("insert", 1, (("a", 1), ("a", -1)), WALK)),
    (homotopy.Decision, Decision, ("homotopic",),
     ("unknown", None, None, "max_states", 10_000)),
    (homotopy.GroupPresentation, GroupPresentation,
     (("g",), ((1, 1),)), (("g",), ())),
    (dsl.Token, Token, ("name", "a", 1, 1), ("sym", "*", 1, 2)),
    (dsl.RawTerm, RawTerm, (1, 1, 1, ("a",), TOKEN), (-1, 1, 2, ("a",), TOKEN)),
    (dsl.IdealDecl, IdealDecl, ("I", "Q", None, []), ("I", "Q", 2, [[]])),
    (dsl.Workspace, Workspace, (), ({"Q": 1},)),
    (cover.FiniteGroup, FiniteGroup, ("Z/2", ("0", "1"), ((0, 1), (1, 0))),
     ("1", ("e",), ((0,),))),
    (cover.Grading, Grading, (GROUP, (("a", "1"),)), (GROUP, ())),
    (cover.DeckMap, DeckMap, ("g", {"x": "x"}), ("g", {"x": "y"})),
    (cover.CoverReport, CoverReport, (True, [], 0), (False, ["v"], 1)),
    (cover.GaloisResult, GaloisResult, ("galois", 2, []),
     ("not-galois", None, [], ("x", "y"))),
    (cover.CoverMorphism, CoverMorphism, ("src", "tgt", {}, {}, "label"),
     ("src", "tgt", {}, {}, "label", {"ok": True})),
    (cover.PipelineResult, PipelineResult, ([], [], None, 2, {}, True, {}, True),
     ([], [], None, 2, {}, False, {}, True)),
    (gamma.ProbeResult, ProbeResult, (), ([1],)),
    (gamma.GammaVertex, GammaVertex, (0, ("k",), None, None, []),
     (1, ("k",), None, None, [])),
    (gamma.GammaEdge, GammaEdge, (0, 1, None, None, None),
     (1, 0, None, None, None)),
    (gamma.GammaQuiver, GammaQuiver, ([], [], 0, []), ([], [], 1, [])),
    (gamma.SurjectionResult, SurjectionResult, ("confirmed", None, (0, ()), (0, ())),
     ("refuted", ("g",), (1, ()), (0, ()))),
]


def outcome(fn, *args):
    """("value", result) or ("raises", the builtin class of the error)."""
    try:
        return ("value", fn(*args))
    except (AttributeError, TypeError) as exc:
        return ("raises", AttributeError if isinstance(exc, AttributeError)
                else TypeError)


def frozen(ref):
    return ref.__dataclass_params__.frozen


def test_every_record_has_a_reference():
    records = {value for module in (cover, dsl, fields, gamma, homotopy, ideal,
                                    quiver, transform)
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Record)
               and value not in (Record, FrozenRecord)}
    assert records == {record for record, _, _, _ in CASES}
    assert len(CASES) == 28
    for record, ref, _, _ in CASES:
        assert record.__qualname__ == ref.__qualname__
        assert issubclass(record, FrozenRecord) == frozen(ref)


def test_constructor_parameters_match():
    for record, ref, _, _ in CASES:
        params = list(inspect.signature(record).parameters.values())
        assert [p.name for p in params] == [f.name for f in dataclasses.fields(ref)]
        for p, f in zip(params, dataclasses.fields(ref)):
            assert p.kind == p.POSITIONAL_OR_KEYWORD
            if f.default is not dataclasses.MISSING:
                assert p.default == f.default, (record, p.name)
            elif f.default_factory is dataclasses.MISSING:
                assert p.default is p.empty, (record, p.name)


def test_repr_matches_positionally_and_by_keyword():
    for record, ref, a, b in CASES:
        names = [f.name for f in dataclasses.fields(ref)]
        for args in (a, b):
            assert repr(record(*args)) == repr(ref(*args))
            kwargs = dict(zip(names, args))
            assert repr(record(**kwargs)) == repr(ref(**kwargs))


def test_equality_matches():
    for record, ref, a, b in CASES:
        x, y, z = record(*a), record(*a), record(*b)
        rx, ry, rz = ref(*a), ref(*a), ref(*b)
        assert (x == y, x != y, x == z, x != z) == (rx == ry, rx != ry, rx == rz, rx != rz)
        assert (x == y, x == z) == (True, False)
        # a record never equals a value of another class
        assert x != rx and not x == rx
        assert x.__eq__(rx) is NotImplemented


def test_records_of_different_classes_with_equal_fields_differ():
    shared = {1: (0,), 2: ("a", PATH), 3: ("x", "y", ()), 4: ("k", 1, (), None)}
    for n, args in shared.items():
        group = [(record, ref) for record, ref, _, _ in CASES
                 if len(dataclasses.fields(ref)) == n]
        assert len(group) >= 2
        for record, ref in group:
            for other, other_ref in group:
                if other is record:
                    continue
                x, y = record(*args), other(*args)
                rx, ry = ref(*args), other_ref(*args)
                assert (x == y, x != y) == (rx == ry, rx != ry) == (False, True)


def test_hash_matches_or_is_refused():
    for record, ref, a, b in CASES:
        for args in (a, b):
            assert outcome(hash, record(*args)) == outcome(hash, ref(*args))
        if frozen(ref):
            assert hash(record(*a)) == hash(ref(*a))
        else:
            assert outcome(hash, record(*a)) == ("raises", TypeError)
    # a frozen record that holds a dict is unhashable too
    args = ("not-homotopic", None, {"kind": "free"})
    assert outcome(hash, homotopy.Decision(*args)) == outcome(hash, Decision(*args)) \
        == ("raises", TypeError)


def test_records_compare_and_hash_through_their_field_getter():
    """No record class writes its own ``__eq__``, and only ``Path`` and
    ``Quiver`` their own ``__hash__``, which returns the hash of the
    field tuple stored at construction."""
    for record, _, a, b in CASES:
        assert "__eq__" not in vars(record), record
        assert ("__hash__" in vars(record)) == (record in (quiver.Path,
                                                           quiver.Quiver)), record
        assert "_values" in vars(record), record
        if len(record._fields) > 1:
            assert isinstance(record._values, operator.attrgetter), record
        for args in (a, b):
            x = record(*args)
            assert record._values(x) == tuple(getattr(x, name)
                                              for name in record._fields)


def test_default_containers_are_fresh():
    checked = 0
    for record, ref, a, _ in CASES:
        factories = [f.name for f in dataclasses.fields(ref)
                     if f.default_factory is not dataclasses.MISSING]
        if not factories:
            continue
        x, y, rx = record(*a), record(*a), ref(*a)
        for name in factories:
            assert getattr(x, name) == getattr(rx, name)
            assert getattr(x, name) is not getattr(y, name)
        checked += 1
    assert checked == 3  # Workspace, CoverMorphism, ProbeResult


def test_frozen_fields_refuse_assignment_and_deletion():
    for record, ref, a, _ in CASES:
        for name in [f.name for f in dataclasses.fields(ref)] + ["other"]:
            x, rx = record(*a), ref(*a)
            assign = outcome(setattr, x, name, 1)
            assert assign == outcome(setattr, rx, name, 1)
            assert repr(x) == repr(rx)
            delete = outcome(delattr, x, name)
            assert delete == outcome(delattr, rx, name)
            if frozen(ref):
                assert assign == delete == ("raises", AttributeError)
                assert repr(x) == repr(ref(*a))


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bqkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, bqkit, bqkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.strip() == "[]"


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok  ", name)
