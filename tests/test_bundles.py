import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import alternating_rank_sum, relabel_to_x, tensor_det, terms_at

from grwin.autoequiv import twist_on_generator
from grwin.bundles import BundleLabel, GradedComplex, from_nondual, normalize, rank
from grwin.cli import complex_to_json, label_to_json
from grwin.partitions import partitions_in_box
from grwin.schur import schur_dimension


def test_normalize_folds_full_column():
    lb = normalize((1, 1), 0, 2)
    assert lb == BundleLabel((), 2, 1)


def test_normalize_repeated_fold():
    assert normalize((3, 1), -1, 2) == BundleLabel((2,), 2, 0)
    assert normalize((2, 2), -1, 2) == BundleLabel((), 2, 1)


def test_normalize_rejects_vanishing():
    with pytest.raises(ValueError):
        normalize((1, 1, 1), 0, 2)


def test_normalize_idempotent_and_rank_preserving():
    rng = random.Random(59)
    for _ in range(500):
        r = rng.randint(1, 3)
        schur = rng.choice(partitions_in_box(4, r))
        twist = rng.randint(-3, 3)
        lb = normalize(schur, twist, r)
        assert normalize(lb.schur, lb.det_twist, lb.taut_rank) == lb
        assert schur_dimension(lb.schur, r) == schur_dimension(schur, r)
        assert rank(lb, 5) == schur_dimension(schur, r)


def test_dual_conversion_example():
    lb = from_nondual((2, 1), 2)
    assert lb == BundleLabel((1,), 2, -2)
    # ranks agree on both presentations
    assert schur_dimension((2, 1), 2) == schur_dimension((1,), 2) == 2


@pytest.mark.parametrize("side,bracket_twist", [("S", 0), ("S", 2), ("H", 0)])
def test_dual_conversion_on_a_rank_zero_side_is_the_trivial_label(side, bracket_twist):
    for extra_twist in (-2, 0, 3):
        for wedge in (0, 2):
            lb = from_nondual((), 0, side, wedge, bracket_twist, extra_twist)
            assert lb == BundleLabel((), 0, 0, side, wedge, bracket_twist)
            assert lb == normalize((), extra_twist, 0, side, wedge, bracket_twist)


def test_dual_conversion_refuses_a_vanishing_power():
    # S^(1,1,1) of a rank-2 bundle is zero: its complement cannot be taken
    with pytest.raises(ValueError, match=r"^\(1, 1, 1\) does not fit in a 1x2 rectangle$"):
        from_nondual((1, 1, 1), 2)


def test_dual_conversion_round_trip():
    from grwin.partitions import complement, width
    for gamma in partitions_in_box(3, 3):
        lb = from_nondual(gamma, 3)
        w = width(gamma)
        assert (complement(lb.schur, w, 3), lb.det_twist + w) == (gamma, 0)


def test_rank_examples():
    assert rank(BundleLabel((1,), 2, 0, wedge=3), 4) == 8
    assert rank(BundleLabel((), 2, 5), 4) == 1
    assert rank(BundleLabel((2,), 2, -1), 4) == 3


# d is the dimension of V: a float d used to raise TypeError from math.comb and a
# negative one math.comb's own message, and True read as 1
@pytest.mark.parametrize("d, message", [(2.5, "alphabet size must be an int, got 2.5"),
                                        (True, "alphabet size must be an int, got True"),
                                        (-1, "alphabet size must be >= 0")])
@pytest.mark.parametrize("call", [
    lambda d: rank(BundleLabel((), 2, 0), d),
    lambda d: GradedComplex.from_items([(0, BundleLabel((1,), 2, 0, wedge=1), 1)])
    .expand_multiplicities(d),
    lambda d: GradedComplex().expand_multiplicities(d),
], ids=["rank", "expand_multiplicities", "expand_multiplicities_empty"])
def test_rank_and_expand_multiplicities_refuse_a_bad_dimension_of_v(call, d, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        call(d)


def test_relabel_to_x():
    assert relabel_to_x(BundleLabel((1,), 2, -1, side="H")) == \
        BundleLabel((1,), 2, -1, side="S")
    assert relabel_to_x(BundleLabel((), 2, 0, side="H")) == BundleLabel((), 2, 0)
    assert relabel_to_x(normalize((2, 2), -1, 2, side="H")) == \
        BundleLabel((), 2, 1, side="S")
    with pytest.raises(ValueError):
        relabel_to_x(BundleLabel((), 2, 0, side="S"))


def fields(lb):
    return (lb.schur, lb.taut_rank, lb.det_twist, lb.side, lb.wedge, lb.bracket_twist)


def test_label_repr_names_every_field():
    assert repr(BundleLabel((2, 1), 3, -1, side="H", wedge=2)) == (
        "BundleLabel(schur=(2, 1), taut_rank=3, det_twist=-1, side='H', "
        "wedge=2, bracket_twist=0)")
    assert repr(BundleLabel((), 0, 0, bracket_twist=2)) == (
        "BundleLabel(schur=(), taut_rank=0, det_twist=0, side='S', "
        "wedge=0, bracket_twist=2)")


def test_label_hashes_and_sorts_as_its_field_tuple():
    labels = [BundleLabel((1,), 2, 0), BundleLabel((), 2, 1), BundleLabel((), 2, 0, "H"),
              BundleLabel((), 2, 0, wedge=1), BundleLabel((), 2, 0, wedge=2),
              BundleLabel((), 2, 0, bracket_twist=-1),
              BundleLabel((2,), 3, -4), BundleLabel((1, 1), 3, 0), BundleLabel((), 0, 0)]
    for lb in labels:
        assert hash(lb) == hash(fields(lb))
        assert lb == BundleLabel(*fields(lb)) == pickle.loads(pickle.dumps(lb))
    assert sorted(labels) == sorted(labels, key=fields)
    assert sorted(labels, reverse=True) == sorted(labels, key=fields, reverse=True)


@pytest.mark.parametrize("args, message", [
    (((), 2, 0, "X"), "side must be"),
    (((), -1, 0), "taut_rank must be non-negative"),
    (((1, 1), 2, 0), "not canonical"),
    (((1,), 0, 0), "rank-0 side"),
    (((), 0, 3), "rank-0 side"),
    (((), 2, 0, "H", 0, 1), "bracket twist is redundant"),
    (((0,), 3, 0), "not canonical"),
    (((1, 2), 3, 0), "not canonical"),
    (((), 3, 0, "S", -1), "wedge must be a non-negative int"),
    (((), 3, 0, "S", (1,)), "wedge must be a non-negative int"),
])
def test_every_label_construction_validates(args, message):
    for build in (lambda: BundleLabel(*args), lambda: BundleLabel._make(args),
                  lambda: BundleLabel((), 2, 0)._replace(**dict(zip(BundleLabel._fields, args)))):
        with pytest.raises(ValueError, match=message):
            build()


def test_tensor_det_validates_the_shifted_labels():
    trivial = GradedComplex.from_items([(0, BundleLabel((), 0, 0), 1)])
    assert tensor_det(trivial, 0) == trivial
    with pytest.raises(ValueError, match="rank-0 side"):
        tensor_det(trivial, 1)


def test_graded_complex_value_semantics():
    cx = GradedComplex.from_items([(1, BundleLabel((), 2, 0), 1),
                                   (0, BundleLabel((1,), 2, 0), 2)])
    same = GradedComplex(cx.terms)
    assert cx == same and hash(cx) == hash(same) == hash((cx.terms,))
    assert cx != tensor_det(cx, 1) and cx != cx.terms and cx != GradedComplex()
    assert len(cx.terms) == 2 and len(GradedComplex().terms) == 0
    assert repr(GradedComplex()) == "GradedComplex(terms=())"
    assert repr(GradedComplex.from_items([(0, BundleLabel((), 1, 2), 3)])) == (
        "GradedComplex(terms=((0, ((BundleLabel(schur=(), taut_rank=1, det_twist=2, "
        "side='S', wedge=0, bracket_twist=0), 3),)),))")
    with pytest.raises(AttributeError):
        cx.terms = ()
    with pytest.raises(AttributeError):
        del cx.terms
    assert cx == same == copy.copy(cx) == pickle.loads(pickle.dumps(cx))


def test_graded_complex_replace_keeps_its_degree_count():
    # a plain one-field namedtuple: `len` counts its field, and namedtuple's
    # own `_make` and `_replace` round-trip a complex
    assert not {"__len__", "_make", "_replace"} & set(vars(GradedComplex))
    cx = GradedComplex.from_items([(1, BundleLabel((), 2, 0), 1),
                                   (0, BundleLabel((1,), 2, 0), 2)])
    assert len(cx) == len(GradedComplex()) == 1
    assert cx._replace(terms=cx.terms) == GradedComplex._make([cx.terms]) == cx
    assert GradedComplex._make(cx) == cx and cx._replace(terms=()) == GradedComplex()


def test_graded_complex_insertion_order_invariance():
    a = GradedComplex.from_items([
        (0, BundleLabel((1,), 2, 0), 1),
        (1, BundleLabel((), 2, 0), 2),
        (0, BundleLabel((1,), 2, 0), 1),
    ])
    b = GradedComplex.from_items([
        (1, BundleLabel((), 2, 0), 1),
        (0, BundleLabel((1,), 2, 0), 2),
        (1, BundleLabel((), 2, 0), 1),
    ])
    assert a == b
    assert terms_at(a, 0)[BundleLabel((1,), 2, 0)] == 2


def test_graded_complex_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        GradedComplex.from_items([
            (0, BundleLabel((), 2, 0), 1),
            (0, BundleLabel((), 3, 0), 1),
        ])


def test_graded_complex_drops_empty_degrees():
    cx = GradedComplex.from_items([(0, BundleLabel((), 2, 0), 1),
                                   (5, BundleLabel((), 2, 1), 0)])
    assert [deg for deg, _ in cx.terms] == [0]


def test_label_json_names_every_field():
    # "bracket" only when nonzero (never on the H side), "multiplicity" only
    # when given; the key order is the order the CLI prints
    lb = BundleLabel((2, 1), 3, -1, side="H", wedge=2)
    assert label_to_json(lb) == {"schur": [2, 1], "twist": -1, "side": "H",
                                 "v_shape": [1, 1], "rank": 3}
    zlabel = BundleLabel((1,), 2, -2, bracket_twist=1, wedge=1)
    doc = label_to_json(zlabel, 4)
    assert list(doc) == ["schur", "twist", "side", "v_shape", "rank", "bracket", "multiplicity"]
    assert doc == {"schur": [1], "twist": -2, "side": "S", "v_shape": [1], "rank": 2,
                   "bracket": 1, "multiplicity": 4}
    assert label_to_json(zlabel._replace(bracket_twist=0), 1) == {
        "schur": [1], "twist": -2, "side": "S", "v_shape": [1], "rank": 2, "multiplicity": 1}


@st.composite
def complexes(draw):
    """Random complexes over one tautological rank: canonical S- and H-side
    labels, with V factors and bracket twists, in degrees -3..3."""
    rank = draw(st.integers(0, 4))

    def label():
        side = draw(st.sampled_from("SH"))
        rows = draw(st.lists(st.integers(1, 4), max_size=max(rank - 1, 0)))
        return BundleLabel(schur=tuple(sorted(rows, reverse=True)), taut_rank=rank,
                           det_twist=draw(st.integers(-3, 3)) if rank else 0, side=side,
                           wedge=draw(st.integers(0, 3)),
                           bracket_twist=draw(st.integers(-2, 2)) if side == "S" else 0)

    return GradedComplex.from_items(
        [(draw(st.integers(-3, 3)), label(), draw(st.integers(1, 3)))
         for _ in range(draw(st.integers(0, 6)))])


def _json_text(cx):
    return json.dumps(complex_to_json(cx), separators=(",", ":"))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(complexes(), complexes())
def test_complex_json_is_equal_exactly_when_complexes_are(cx, other):
    # the JSON names every degree, label field and multiplicity: it tells two
    # complexes apart, one more copy of a term included, and reads a rebuilt
    # copy the same
    assert (_json_text(cx) == _json_text(other)) == (cx == other)
    assert _json_text(GradedComplex.from_items(cx.items())) == _json_text(cx)
    if len(cx.terms):
        degree, label, _ = next(cx.items())
        more = GradedComplex.from_items([*cx.items(), (degree, label, 1)])
        assert _json_text(more) != _json_text(cx)


def test_tensor_det_and_shift():
    cx = GradedComplex.from_items([(0, BundleLabel((1,), 2, 0), 1)])
    assert terms_at(tensor_det(cx, 2), 0) == {BundleLabel((1,), 2, 2): 1}


def test_tensor_det_composes():
    cx = twist_on_generator((3, 1), 5, 2)
    for a, b in [(1, 2), (-3, 1), (0, 4), (2, -2)]:
        assert tensor_det(tensor_det(cx, a), b) == tensor_det(cx, a + b)
    assert tensor_det(cx, 0) == cx


@pytest.mark.parametrize("delta", [(2,), (2, 1), (2, 2)])
def test_expanding_v_factors_keeps_the_alternating_rank_sum(delta):
    cx = twist_on_generator(delta, 4, 2)
    assert any(label.wedge for _, label, _ in cx.items())
    assert alternating_rank_sum(cx, 4) == alternating_rank_sum(cx.expand_multiplicities(4), 4)


def test_expand_multiplicities():
    cx = GradedComplex.from_items([
        (0, BundleLabel((1,), 2, 0, wedge=3), 1),
        (1, BundleLabel((), 2, 0), 1),
    ])
    flat = cx.expand_multiplicities(4)
    assert terms_at(flat, 0) == {BundleLabel((1,), 2, 0): 4}
    assert [terms_at(flat, 1), terms_at(flat, 2)] == [{BundleLabel((), 2, 0): 1}, {}]  # 2 is absent
    # wedge^3 of a 2-dimensional V is zero, so that term goes
    assert cx.expand_multiplicities(2) == GradedComplex.from_items([(1, BundleLabel((), 2, 0), 1)])

