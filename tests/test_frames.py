import pytest
from hypothesis import given, strategies as st

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
