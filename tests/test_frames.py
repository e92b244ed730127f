import pytest
from hypothesis import example, given, settings, strategies as st

from mmarg.frames import (
    DUNG,
    EMPTY_FRAME,
    INTERSECTION,
    PRE_DUNG,
    UNION,
    ArgumentationFrame,
    combine,
    restrict,
)


def f(args, attacks=(), kind=DUNG):
    return ArgumentationFrame.of(args, attacks, kind)


def test_dung_frame_rejects_dangling_attack():
    with pytest.raises(ValueError):
        f(["a1"], [("a1", "a2")])


def test_pre_dung_allows_one_dangling_endpoint():
    frame = f(["a5"], [("a5", "a2")], kind=PRE_DUNG)
    assert frame.attacks == {("a5", "a2")}


def test_pre_dung_rejects_fully_dangling_attack():
    with pytest.raises(ValueError):
        f(["a5"], [("a1", "a2")], kind=PRE_DUNG)


def test_empty_argument_id_rejected():
    with pytest.raises(ValueError):
        f([""])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        f(["a1"], kind="other")


def test_restrict_drops_cut_attacks():
    assert restrict(f(["a1", "a2"], [("a1", "a2")]), {"a1"}) == f(["a1"])


def test_restrict_with_full_argument_set_is_identity():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert restrict(frame, frame.args) == frame


def test_union_keeps_attack_once_endpoint_appears():
    payload = f(["a5"], [("a5", "a2")], kind=PRE_DUNG)
    pub = f(["a2", "a3", "a4", "a5", "a9"], [("a4", "a9"), ("a3", "a4"), ("a3", "a5")])
    merged = combine(payload, pub, UNION)
    assert merged.kind == DUNG
    assert ("a5", "a2") in merged.attacks


def test_union_drops_attack_still_dangling():
    payload = f(["a5"], [("a5", "a2")], kind=PRE_DUNG)
    merged = combine(payload, EMPTY_FRAME, UNION)
    assert merged == f(["a5"])


def test_intersection_with_empty_is_empty():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert combine(frame, EMPTY_FRAME, INTERSECTION) == EMPTY_FRAME


def test_combine_rejects_unknown_op():
    with pytest.raises(ValueError):
        combine(EMPTY_FRAME, EMPTY_FRAME, "xor")


def test_contains_is_subframe_test():
    big = f(["a1", "a2"], [("a1", "a2")])
    assert big.contains(f(["a1"]))
    assert not f(["a1"]).contains(big)


@st.composite
def frames(draw, max_args=5):
    n = draw(st.integers(0, max_args))
    args = [f"b{i}" for i in range(n)]
    if n == 0:
        return EMPTY_FRAME
    attacks = draw(st.sets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=12))
    return ArgumentationFrame.of(args, attacks)


@given(frames())
def test_restrict_idempotent(frame):
    keep = set(list(frame.args)[: len(frame.args) // 2])
    once = restrict(frame, keep)
    assert restrict(once, keep) == once


@given(frames())
def test_union_idempotent(frame):
    assert combine(frame, frame, UNION) == frame
    assert combine(frame, frame, INTERSECTION) == frame


def reference_check(args, attacks, kind):
    """The frame invariants read literally off the definition, one member at a time."""
    if kind not in (DUNG, PRE_DUNG):
        raise ValueError(kind)
    for a in args:
        if not isinstance(a, str) or a == "":
            raise ValueError(a)
    for attack in attacks:
        if len(attack) != 2:
            raise ValueError(attack)
    for s, t in attacks:
        inside = (s in args) + (t in args)
        if inside < (2 if kind == DUNG else 1):
            raise ValueError((s, t))


def _outcome(build, *inputs):
    try:
        build(*inputs)
    except Exception as exc:  # compared by type below
        return type(exc)
    return None


IDS = st.sampled_from(["a", "b", "c", "", 7])
ENDS = st.sampled_from(["a", "b", "c", "z"])
PAIRS = st.tuples(ENDS, ENDS)
# Mostly pairs, so that frames with several attacks reach the closure checks.
ATTACKS = st.one_of(PAIRS, PAIRS, PAIRS, st.tuples(ENDS), st.tuples(ENDS, ENDS, ENDS))


@given(
    st.frozensets(IDS, max_size=4),
    st.frozensets(ATTACKS, max_size=4),
    st.sampled_from([DUNG, PRE_DUNG, "other"]),
)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(frozenset({"a", 7}), frozenset(), DUNG)
@example(frozenset({"a", ""}), frozenset(), DUNG)
@example(frozenset({"a"}), frozenset({("z", "a")}), DUNG)
@example(frozenset({"a"}), frozenset({("a", "z")}), DUNG)
@example(frozenset({"a"}), frozenset({("y", "z")}), PRE_DUNG)
@example(frozenset({"a"}), frozenset({("a", "z"), ("y", "z")}), PRE_DUNG)
@example(frozenset({"a", "b", "c"}), frozenset({("a", "b", "c")}), DUNG)
@example(frozenset({"a", "b", "c"}), frozenset({("a", "b", "c")}), PRE_DUNG)
def test_frame_accepts_and_rejects_what_the_definition_does(args, attacks, kind):
    got = _outcome(ArgumentationFrame, args, attacks, kind)
    assert got == _outcome(reference_check, args, attacks, kind)
    assert got in (None, ValueError)


@pytest.mark.parametrize(
    "args, attacks, kind, message",
    [
        ({"a", 7}, [], DUNG, "argument ids must be nonempty strings, got 7"),
        ({"a", ""}, [], DUNG, "argument ids must be nonempty strings, got ''"),
        ({"a"}, [("z", "a")], DUNG, "attack (z,a) dangles outside a closed frame"),
        ({"a"}, [("a", "z")], DUNG, "attack (a,z) dangles outside a closed frame"),
        ({"a"}, [("y", "z")], PRE_DUNG, "attack (y,z) touches no argument of the frame"),
        ({"a"}, [], "other", "unknown frame kind: 'other'"),
    ],
)
def test_frame_names_the_offender(args, attacks, kind, message):
    with pytest.raises(ValueError) as info:
        ArgumentationFrame(frozenset(args), frozenset(attacks), kind)
    assert str(info.value) == message


def reference_combine(f1, f2, op):
    """Combine, then cut every attack that leaves the combined argument set."""
    args = f1.args | f2.args if op == UNION else f1.args & f2.args
    attacks = f1.attacks | f2.attacks if op == UNION else f1.attacks & f2.attacks
    return ArgumentationFrame(args, frozenset((s, t) for s, t in attacks if s in args and t in args))


@st.composite
def any_frames(draw, pool=("b0", "b1", "b2", "b3", "b4")):
    """Closed frames over part of ``pool``, or pre-dung frames whose attacks reach outside it."""
    args = draw(st.frozensets(st.sampled_from(pool), max_size=len(pool)))
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    attacks = draw(st.frozensets(pairs, max_size=10))
    if draw(st.booleans()):
        return ArgumentationFrame(args, frozenset((s, t) for s, t in attacks if s in args and t in args))
    return ArgumentationFrame(args, frozenset(a for a in attacks if not args.isdisjoint(a)), PRE_DUNG)


@given(any_frames(), any_frames(), st.sampled_from([UNION, INTERSECTION]))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_combine_is_the_cut_definition(f1, f2, op):
    assert combine(f1, f2, op) == reference_combine(f1, f2, op)


def test_pre_dung_payload_is_cut_on_intersection():
    payload = f(["a5"], [("a5", "a2")], kind=PRE_DUNG)
    pub = f(["a2", "a5"], [("a5", "a2")])
    assert combine(payload, pub, INTERSECTION) == f(["a5"])


def _returns_input(f1, f2, op):
    """The input ``combine`` may hand back: a closed frame the result equals (union: it contains the other)."""
    def fits(a, b):
        return a.kind == DUNG and (a.contains(b) if op == UNION else b.contains(a))
    return fits(f1, f2), fits(f2, f1)


@given(any_frames(), any_frames(), st.sampled_from([UNION, INTERSECTION]))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(f(["b0", "b1"], [("b0", "b1")]), f(["b0"], [("b0", "b1")], PRE_DUNG), UNION)
@example(f(["b0"], [("b0", "b1")], PRE_DUNG), f(["b0", "b1"], [("b0", "b1")]), UNION)
@example(f(["b0"]), f(["b0", "b1"], [("b0", "b1")], PRE_DUNG), INTERSECTION)
@example(f(["b0", "b1"], [("b0", "b1")], PRE_DUNG), f(["b0"]), INTERSECTION)
@example(f(["b0"]), f(["b0"]), UNION)
def test_combine_returns_an_input_exactly_when_it_is_closed_and_the_result(f1, f2, op):
    out = combine(f1, f2, op)
    assert out == reference_combine(f1, f2, op)
    assert out.kind == DUNG
    first, second = _returns_input(f1, f2, op)
    if out is f1:
        assert first
    if out is f2:
        assert second
    assert (out is f1 or out is f2) == (first or second)


@given(any_frames(), st.sampled_from([UNION, INTERSECTION]))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_pre_dung_input_inside_a_closed_frame_gives_a_closed_result(payload, op):
    if payload.kind != PRE_DUNG:
        payload = ArgumentationFrame(payload.args, payload.attacks, PRE_DUNG)
    ends = payload.args.union(*payload.attacks)
    closed = ArgumentationFrame(ends, payload.attacks)
    assert closed.contains(payload)
    for out in (combine(closed, payload, op), combine(payload, closed, op)):
        assert out.kind == DUNG
        assert all(s in out.args and t in out.args for s, t in out.attacks)
        assert out == reference_combine(closed, payload, op)
