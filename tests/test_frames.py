import pytest
from hypothesis import example, given, settings, strategies as st

from mmarg.frames import AnnouncementEvent, ArgumentationFrame, combine, restrict

from conftest import f


EMPTY = f([])


def test_dung_frame_rejects_dangling_attack():
    with pytest.raises(ValueError):
        f(["a1"], [("a1", "a2")])


def test_event_attack_may_dangle_on_one_endpoint():
    event = AnnouncementEvent.of(["a5"], [("a5", "a2")], ["e2"])
    assert event.attacks == {("a5", "a2")}


def test_event_rejects_attack_touching_none_of_its_arguments():
    with pytest.raises(ValueError):
        AnnouncementEvent.of(["a5"], [("a1", "a2")], ["e2"])


def test_empty_argument_id_rejected():
    with pytest.raises(ValueError):
        f([""])


def test_restrict_drops_cut_attacks():
    assert restrict(f(["a1", "a2"], [("a1", "a2")]), {"a1"}) == f(["a1"])


def test_restrict_with_full_argument_set_is_identity():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert restrict(frame, frame.args) == frame


def test_contains_is_subframe_test():
    big = f(["a1", "a2"], [("a1", "a2")])
    assert big.contains(f(["a1"]))
    assert not f(["a1"]).contains(big)


@st.composite
def frames(draw, max_args=5):
    n = draw(st.integers(0, max_args))
    args = [f"b{i}" for i in range(n)]
    if n == 0:
        return EMPTY
    attacks = draw(st.sets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=12))
    return ArgumentationFrame.of(args, attacks)


@given(frames())
def test_restrict_idempotent(frame):
    keep = set(list(frame.args)[: len(frame.args) // 2])
    once = restrict(frame, keep)
    assert restrict(once, keep) == once


@given(frames())
def test_union_idempotent(frame):
    assert combine(frame, frame) is frame


def reference_check(args, attacks, inside_needed=2):
    """The frame invariants read literally off the definition, one member at a time;
    an announcement's attacks need only one endpoint among its arguments."""
    for a in args:
        if not isinstance(a, str) or a == "":
            raise ValueError(a)
    for attack in attacks:
        if len(attack) != 2:
            raise ValueError(attack)
    for s, t in attacks:
        inside = (s in args) + (t in args)
        if inside < inside_needed:
            raise ValueError((s, t))


def reference_event_check(args, attacks, announcers):
    """The announcement invariants: a frame's, one endpoint per attack, and some announcer."""
    reference_check(args, attacks, inside_needed=1)
    if not announcers:
        raise ValueError(announcers)


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


@given(st.frozensets(IDS, max_size=4), st.frozensets(ATTACKS, max_size=4))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(frozenset({"a", 7}), frozenset())
@example(frozenset({"a", ""}), frozenset())
@example(frozenset({"a"}), frozenset({("z", "a")}))
@example(frozenset({"a"}), frozenset({("a", "z")}))
@example(frozenset({"a", "b", "c"}), frozenset({("a", "b", "c")}))
def test_frame_accepts_and_rejects_what_the_definition_does(args, attacks):
    got = _outcome(ArgumentationFrame, args, attacks)
    assert got == _outcome(reference_check, args, attacks)
    assert got in (None, ValueError)


@given(st.frozensets(IDS, max_size=4), st.frozensets(ATTACKS, max_size=4), st.frozensets(st.sampled_from(["e1", "e2"])))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(frozenset({"a", 7}), frozenset(), frozenset({"e1"}))
@example(frozenset({"a", ""}), frozenset(), frozenset({"e1"}))
@example(frozenset({"a"}), frozenset({("a", "z")}), frozenset({"e1"}))
@example(frozenset({"a"}), frozenset({("y", "z")}), frozenset({"e1"}))
@example(frozenset({"a"}), frozenset({("a", "z"), ("y", "z")}), frozenset({"e1"}))
@example(frozenset({"a", "b", "c"}), frozenset({("a", "b", "c")}), frozenset({"e1"}))
@example(frozenset({"a"}), frozenset(), frozenset())
def test_event_accepts_and_rejects_what_the_definition_does(args, attacks, announcers):
    got = _outcome(AnnouncementEvent, args, attacks, announcers)
    assert got == _outcome(reference_event_check, args, attacks, announcers)
    assert got in (None, ValueError)


# What each case builds: a Dung frame, or an announcement by one announcer or by none.
BUILD = {
    "dung": lambda args, attacks: ArgumentationFrame(frozenset(args), frozenset(attacks)),
    "event": lambda args, attacks: AnnouncementEvent(frozenset(args), frozenset(attacks), frozenset({"e1"})),
    "unannounced": lambda args, attacks: AnnouncementEvent(frozenset(args), frozenset(attacks), frozenset()),
}


@pytest.mark.parametrize(
    "args, attacks, built, message",
    [
        ({"a", 7}, [], "dung", "argument ids must be nonempty strings, got 7"),
        ({"a", ""}, [], "dung", "argument ids must be nonempty strings, got ''"),
        ({"a"}, [("z", "a")], "dung", "attack (z,a) dangles outside a closed frame"),
        ({"a"}, [("a", "z")], "dung", "attack (a,z) dangles outside a closed frame"),
        ({"a"}, [("y", "z")], "event", "attack (y,z) touches no argument of the frame"),
        ({"a", 7}, [], "event", "argument ids must be nonempty strings, got 7"),
        ({"a", ""}, [], "event", "argument ids must be nonempty strings, got ''"),
        ({"a"}, [("a", "z")], "unannounced", "an announcement needs at least one announcer"),
        # Several offenders: the least by repr is named, whatever the set order.
        ({"a1"}, [("a1", "a3"), ("a1", "a4"), ("a5", "a1"), ("a2", "a1")], "dung",
         "attack (a1,a3) dangles outside a closed frame"),
        ({"a", None, 7, "", 3.5}, [], "dung", "argument ids must be nonempty strings, got ''"),
        ({"a"}, [("y", "z"), ("x", "w"), ("b", "c"), ("b", "a")], "event", "attack (b,c) touches no argument of the frame"),
        ({"a", None, 7, 3.5}, [], "event", "argument ids must be nonempty strings, got 3.5"),
    ],
)
def test_frame_names_the_offender(args, attacks, built, message):
    with pytest.raises(ValueError) as info:
        BUILD[built](args, attacks)
    assert str(info.value) == message


def reference_combine(f1, f2):
    """Unite, then cut every attack that leaves the united argument set."""
    args = f1.args | f2.args
    return ArgumentationFrame(args, frozenset((s, t) for s, t in f1.attacks | f2.attacks if s in args and t in args))


@st.composite
def any_frames(draw, pool=("b0", "b1", "b2", "b3", "b4")):
    """Frames over part of ``pool``."""
    args = draw(st.frozensets(st.sampled_from(pool), max_size=len(pool)))
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    attacks = draw(st.frozensets(pairs, max_size=10))
    return ArgumentationFrame(args, frozenset((s, t) for s, t in attacks if s in args and t in args))


@given(any_frames(), any_frames())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_combine_is_the_cut_definition(f1, f2):
    assert combine(f1, f2) == reference_combine(f1, f2)


@given(any_frames(), any_frames())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(f(["b0", "b1"], [("b0", "b1")]), f(["b0"]))
@example(f(["b0"]), f(["b0", "b1"], [("b0", "b1")]))
@example(f(["b0"]), f(["b0"]))
@example(EMPTY, EMPTY)
def test_combine_returns_an_input_exactly_when_it_is_closed_and_the_result(f1, f2):
    # The identity is one-sided: only the first input comes back, exactly
    # when it already holds the second; a second input that holds the first
    # is equal to the union, but a new frame is built.
    out = combine(f1, f2)
    assert out == reference_combine(f1, f2)
    assert (out is f1) == f1.contains(f2)
    assert out is not f2 or f1 is f2


def test_combine_grows_a_frame_by_an_event_whose_attack_lands_in_the_frame():
    frame = f(["a1", "a2"], [("a1", "a2")])
    event = AnnouncementEvent.of(["a5"], [("a5", "a2")], ["e2"])
    grown = combine(frame, event)
    assert grown == f(["a1", "a2", "a5"], [("a1", "a2"), ("a5", "a2")])
    assert combine(grown, event) is grown
    with pytest.raises(ValueError, match=r"attack \(a5,a2\) dangles"):
        combine(f(["a1"]), event)

