"""Every value class against a dataclass twin built here from the same
annotations and defaults: construction, its TypeErrors, repr, ==, hash,
the frozen refusals, the __post_init__ refusals and cached_property."""

import copy
import dataclasses
import math
import pickle

import pytest

import renorm.cli  # noqa: F401  every module holding a value class, loaded
import renorm.verify  # noqa: F401
from renorm.extension import CurvePiece, GraphTransform, SampledCurve
from renorm.horseshoe import BranchSystem, Coding, Word
from renorm.pwa import PiecewiseAffineMap, PWABranch, RenormResidual
from renorm.scaling import Combinatorics, FeasibleDomain, Period, ScalingFactor
from renorm.solver import FixedPointReport
from renorm.tower import Affine, HorBoundReport, LevelData, RatioReport, ScalingSequence, Tower
from renorm.value import FrozenInstanceError, Value
from values import replace

P3 = Period.THREE
AFF = Affine(2.0, -0.5)
LV = LevelData(0.4, 1.01)
SEQ = ScalingSequence(P3, (LV,), True)
REP = FixedPointReport(P3, 0.41, 1e-16, 2.5, True, (0.4, 0.42), 1.01)
# tuples, not arrays, so that == on a piece has one truth value
PIECE = CurvePiece((0.0, 0.5), (0.1, 0.2), (1.0, 1.0), 2, "affine")

# every value class: whether it is frozen, and the arguments of one instance
SAMPLES = {
    Combinatorics: (True, ((2, 3, 1),)),
    ScalingFactor: (True, (P3, (0.1, 0.2, 0.3))),
    FeasibleDomain: (True, (P3, [(0.1, 0.2)], [(0.1, "S1")], [])),
    FixedPointReport: (True, (P3, 0.41, 1e-16, 2.5, True, (0.4, 0.42), 1.01)),
    Affine: (True, (2.0, -0.5)),
    LevelData: (True, (0.4, 1.01)),
    ScalingSequence: (True, (P3, (LV,), True)),
    Tower: (False, (P3, 1, SEQ, [LV], [ScalingFactor(P3, (0.1, 0.2, 0.3))], [AFF], [AFF, AFF],
                    [{1: (0.1, 0.2)}], [{1: (0.1, 0.2)}], {"y": [0.5]}, 2)),
    RatioReport: (True, (P3, (0.1, 0.2, 0.3), 0.0, True)),
    HorBoundReport: (True, (2.0, True, (1.1, 0.9))),
    PWABranch: (True, (1, 1, 0.1, 0.2, AFF)),
    RenormResidual: (True, (1e-12, 40)),
    PiecewiseAffineMap: (False, (P3, None, SEQ, [PWABranch(1, 3, 0.6, 0.7, AFF), PWABranch(1, 1, 0.1, 0.2, AFF)], 0.4)),
    GraphTransform: (True, (AFF, Affine(0.5, 0.5))),
    CurvePiece: (True, ((0.0, 0.5), (0.1, 0.2), (1.0, 1.0), 2, "affine")),
    SampledCurve: (False, ([PIECE], 0.41, (0.3, 0.5))),
    Word: (True, ((0, 1, 2), 3)),
    Coding: (True, (0.41, 1e-15)),
    BranchSystem: (True, ((1.01, 0.99), (REP, REP), ((0.4, 0.41), (0.42, 0.43)))),
}
CLASSES = list(SAMPLES)


def twin(cls):
    """A dataclass of cls's qualified name, annotations, defaults, frozenness
    and __post_init__."""
    ns = {"__qualname__": cls.__qualname__, "__module__": __name__,
          "__annotations__": dict(vars(cls)["__annotations__"])}
    for name in ns["__annotations__"]:
        if name in vars(cls):
            ns[name] = vars(cls)[name]
    if "__post_init__" in vars(cls):
        ns["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=SAMPLES[cls][0])(type(cls.__name__, (), ns))


def outcome(call):
    """The repr of what call() returns, or the class name and message of
    what it raises."""
    try:
        return "returned", repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_sample():
    assert {c for c in _subclasses(Value) if c.__module__.startswith("renorm.")} == set(SAMPLES)
    assert len(SAMPLES) == 19


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin(cls)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_and_repr_match_the_twin(cls):
    twin_cls, args = twin(cls), SAMPLES[cls][1]
    names = cls._fields
    value = cls(*args)
    assert repr(value) == repr(twin_cls(*args))
    assert vars(value) == vars(twin_cls(*args))
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
    assert repr(by_keyword) == repr(mixed) == repr(value)
    required = len(names) - len(cls._defaults)
    assert repr(cls(*args[:required])) == repr(twin_cls(*args[:required]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_the_twins_type_errors(cls):
    twin_cls, args = twin(cls), SAMPLES[cls][1]
    first = cls._fields[0]
    calls = [
        lambda c: c(),  # every required argument missing
        lambda c: c(*args[1:2]),  # all but one or two missing
        lambda c: c(*args, 0),  # one too many
        lambda c: c(*args, *args),
        lambda c: c(*args, bogus=1),
        lambda c: c(*args, **{first: args[0]}),  # doubled
        lambda c: c(**{first: args[0]}, bogus=1),
    ]
    got = [outcome(lambda: call(cls)) for call in calls]
    want = [outcome(lambda: call(twin_cls)) for call in calls]
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    # the twin's own text, or, from Value's binder, one naming the class
    for (kind, text), (_, twin_text) in zip(got, want):
        assert text == twin_text or (kind == "TypeError" and text.startswith(cls.__qualname__ + "("))
    assert [kind for kind, _ in got[2:]] == ["TypeError"] * 5


def test_the_refusal_names_the_class_its_fields_and_the_arguments():
    with pytest.raises(TypeError) as err:
        LevelData(0.4, bogus=1)
    assert str(err.value) == ("LevelData(c, eps) cannot bind 1 positional argument(s) "
                              "and the keywords ['bogus']")
    with pytest.raises(TypeError, match="'bogus'"):
        replace(LV, bogus=1)


def test_no_default_is_a_mutable_container():
    # every instance shares its class's default object
    for cls in CLASSES:
        assert not any(isinstance(d, (list, dict, set)) for d in cls._defaults.values()), cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_matches_the_twin(cls):
    twin_cls, args = twin(cls), SAMPLES[cls][1]
    value, same, twin_value = cls(*args), cls(*args), twin_cls(*args)
    assert (value == same, value != same) == (True, False)
    assert (value == twin_value, twin_value == value) == (False, False)  # one class only
    assert value.__eq__(args[0]) is NotImplemented
    for name in cls._fields:  # every field is compared
        changed, twin_changed = copy.copy(value), copy.copy(twin_value)
        vars(changed)[name] = vars(twin_changed)[name] = object()
        assert (value == changed) is (twin_value == twin_changed) is False


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_matches_the_twin(cls):
    frozen, args = SAMPLES[cls]
    twin_cls = twin(cls)
    assert outcome(lambda: hash(cls(*args))) == outcome(lambda: hash(twin_cls(*args)))
    assert (cls.__hash__ is None) is (twin_cls.__hash__ is None) is (not frozen)
    if frozen and outcome(lambda: hash(cls(*args)))[0] == "returned":
        assert len({cls(*args), cls(*args)}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment_and_deletion(cls):
    frozen, args = SAMPLES[cls]
    value, twin_value = cls(*args), twin(cls)(*args)
    for name in (cls._fields[-1], "not_a_field"):
        for act in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            got, want = outcome(lambda: act(value)), outcome(lambda: act(twin_value))
            if frozen:
                assert got == ("FrozenInstanceError", want[1])
            else:
                assert got[0] == want[0]
    if frozen:
        assert issubclass(FrozenInstanceError, AttributeError)
        assert vars(value) == vars(cls(*args))
    else:
        setattr(value, cls._fields[0], 7)
        assert getattr(value, cls._fields[0]) == 7


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = cls(*SAMPLES[cls][1])
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and repr(other) == repr(value)


def test_post_init_refusals():
    for bad in [((0, 3), 3), ((0, -1), 3), ((0,), 1)]:
        with pytest.raises(ValueError):
            Word(*bad)
    with pytest.raises(ValueError, match="alphabet size must be >= 2"):
        Word(symbols=(), alphabet=1)
    for c in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="critical point must lie in"):
            LevelData(c)
    with pytest.raises(ValueError, match="critical point must lie in"):
        LevelData(eps=1.0, c=1.5)
    for cycle in [(1, 2, 3), (3, 2, 1), (2, 3, 1, 4), (2, 5, 1, 4, 3)]:
        with pytest.raises(ValueError, match="is not the visiting cycle of a unimodal map"):
            Combinatorics(cycle)
    with pytest.raises(ValueError):
        replace(Word((0, 1), 3), alphabet=1)


def test_post_init_runs_on_mutable_classes():
    sample = SAMPLES[PiecewiseAffineMap][1]
    pwa = PiecewiseAffineMap(*sample)
    assert [b.lo for b in pwa.branches] == [0.1, 0.6] and pwa._los == [0.1, 0.6]
    curve = SampledCurve([PIECE, CurvePiece((-1.0, -0.5), (0.0, 0.1), (1.0, 1.0), 1, "tip")], 0.4, (0.3, 0.5))
    assert [p.lo for p in curve.pieces] == [-1.0, 0.0]


def test_cached_property_caches_on_frozen_values(bsys):
    comb = Combinatorics((2, 5, 1, 3, 4))
    for name in ("intervals", "names", "central", "reverses", "pairs", "eps_free"):
        first = getattr(comb, name)
        assert getattr(comb, name) is first and vars(comb)[name] is first
    b = replace(bsys)
    assert "slopes" not in vars(b) and "_proof" not in vars(b)
    slopes, proof = b.slopes, b._proof
    assert b.slopes is slopes and b._proof is proof and vars(b)["slopes"] is slopes
    assert repr(slopes) == repr(bsys.slopes) and b == bsys


def test_replace_copies_through_init():
    assert replace(AFF, b=1.5) == Affine(2.0, 1.5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
        replace(AFF, c=1.0)


def test_a_required_field_after_a_default_is_refused_as_dataclass_refuses_it():
    ns = {"__annotations__": {"a": "int", "b": "int"}, "a": 1}
    want = outcome(lambda: dataclasses.dataclass(type("Bad", (), dict(ns))))
    assert outcome(lambda: type("Bad", (Value,), dict(ns))) == want
