import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mmarg.frames import ArgumentationFrame
from mmarg.oracle import _conflict_free, _defends, oracle_semantics, random_frame
from mmarg.semantics import SemanticsKind, semantics, sorted_extensions

from conftest import ext, f


SINGLE_ATTACK = f(["a1", "a2"], [("a1", "a2")])
MUTUAL = f(["a1", "a2"], [("a1", "a2"), ("a2", "a1")])
CHAIN = f(["a1", "a2", "a3"], [("a1", "a2"), ("a2", "a3")])
EMPTY = f([])


# The clause tests are the oracle's: the library states each of them once.

def test_conflict_free_detects_internal_attack():
    assert not _conflict_free(frozenset({"a1", "a2"}), SINGLE_ATTACK.attacks)
    assert _conflict_free(frozenset({"a1"}), SINGLE_ATTACK.attacks)
    assert _conflict_free(frozenset(), SINGLE_ATTACK.attacks)


def test_conflict_free_counts_self_attack():
    loop = f(["a1"], [("a1", "a1")])
    assert not _conflict_free(frozenset({"a1"}), loop.attacks)


def test_defends_via_counter_attack():
    frame = f(["a1", "a2", "a3"], [("a1", "a2"), ("a3", "a1")])
    assert _defends(frozenset({"a3"}), "a2", frame.attacks)


def test_defends_unattacked_argument_vacuously():
    frame = f(["a1", "a2"], [("a1", "a2")])
    assert _defends(frozenset(), "a1", frame.attacks)
    assert not _defends(frozenset(), "a2", frame.attacks)


def test_complete_single_attack():
    assert semantics(SemanticsKind.COMPLETE, SINGLE_ATTACK) == ext({"a1"})


def test_complete_mutual_attack():
    assert semantics(SemanticsKind.COMPLETE, MUTUAL) == ext(set(), {"a1"}, {"a2"})


def test_complete_empty_frame():
    assert semantics(SemanticsKind.COMPLETE, EMPTY) == ext(set())


def test_preferred_mutual_attack():
    assert semantics(SemanticsKind.PREFERRED, MUTUAL) == ext({"a1"}, {"a2"})


def test_preferred_empty_frame():
    assert semantics(SemanticsKind.PREFERRED, EMPTY) == ext(set())


def test_grounded_single_attack():
    assert semantics(SemanticsKind.GROUNDED, SINGLE_ATTACK) == ext({"a1"})


def test_grounded_mutual_attack_is_empty_set():
    assert semantics(SemanticsKind.GROUNDED, MUTUAL) == ext(set())


def test_grounded_chain():
    assert semantics(SemanticsKind.GROUNDED, CHAIN) == ext({"a1", "a3"})


def test_self_attacker_never_accepted():
    loop = f(["a1"], [("a1", "a1")])
    assert semantics(SemanticsKind.COMPLETE, loop) == ext(set())


def test_semantics_dispatch():
    assert semantics("complete", MUTUAL) == ext(set(), {"a1"}, {"a2"})
    assert semantics("preferred", MUTUAL) == ext({"a1"}, {"a2"})
    assert semantics("grounded", CHAIN) == ext({"a1", "a3"})
    with pytest.raises(ValueError):
        semantics("stable", MUTUAL)


def test_sorted_extensions_orders_lexicographically():
    assert sorted_extensions(ext({"a2", "a10"}, {"a1"})) == [["a1"], ["a10", "a2"]]


@st.composite
def frames(draw, max_args=6):
    n = draw(st.integers(0, max_args))
    args = [f"c{i}" for i in range(n)]
    if n == 0:
        return EMPTY
    attacks = draw(st.sets(st.tuples(st.sampled_from(args), st.sampled_from(args)), max_size=15))
    return ArgumentationFrame.of(args, attacks)


@given(frames())
@settings(max_examples=150, deadline=None)
def test_lattice_properties(frame):
    complete = semantics(SemanticsKind.COMPLETE, frame)
    preferred = semantics(SemanticsKind.PREFERRED, frame)
    (grounded,) = semantics(SemanticsKind.GROUNDED, frame)
    assert complete, "every frame has at least one complete extension"
    assert preferred <= complete
    for p in preferred:
        assert grounded <= p
    intersection = frozenset.intersection(*complete)
    assert grounded == intersection
    for x in complete:
        assert _conflict_free(x, frame.attacks)
        assert all(_defends(x, a, frame.attacks) for a in x)


@given(frames())
@settings(max_examples=100, deadline=None)
def test_matches_brute_force_oracle(frame):
    for kind in SemanticsKind:
        assert semantics(kind, frame) == oracle_semantics(kind, frame)


def _chain(n, prefix="x"):
    args = [f"{prefix}{i}" for i in range(n)]
    return args, list(zip(args, args[1:]))


def _cycle(n, prefix="y"):
    args = [f"{prefix}{i}" for i in range(n)]
    return args, [(args[i], args[(i + 1) % n]) for i in range(n)]


def _join(*parts, links=()):
    return f([a for args, _ in parts for a in args], [x for _, atts in parts for x in atts] + list(links))


# Frames named by how much of them the grounded labelling decides: all,
# none, or part; the search only runs over what it leaves undecided.
GROUNDED_FAMILIES = {
    "chain": (_join(_chain(5)), "all"),
    "self-attack": (f(["s"], [("s", "s")]), "none"),
    "self-attack into a chain": (_join((["s"], [("s", "s")]), _chain(2), links=[("s", "x0")]), "none"),
    "unattacked beside a self-attack": (f(["u", "s"], [("s", "s")]), "part"),
    "odd cycle": (_join(_cycle(3)), "none"),
    "even cycle": (_join(_cycle(4)), "none"),
    "chain feeding an odd cycle": (_join(_chain(2), _cycle(3), links=[("x1", "y0")]), "part"),
    "chain feeding an even cycle": (_join(_chain(2), _cycle(4), links=[("x1", "y0")]), "part"),
    "unattacked into an odd cycle": (_join(_chain(1), _cycle(3), links=[("x0", "y0")]), "all"),
    "unattacked into an even cycle": (_join(_chain(1), _cycle(4), links=[("x0", "y0")]), "all"),
    "even cycle feeding an odd cycle": (_join(_cycle(2, "x"), _cycle(3), links=[("x1", "y0")]), "none"),
    # x0 is searched before z, its only attacker, which attacks itself and so
    # can never be accepted: rejecting x0 is pruned at once.
    "self-attack after its target": (_join((["z"], [("z", "z")]), _chain(2), links=[("z", "x0")]), "none"),
    # a is searched first with c as its only attacker; once b is accepted and
    # c rejected, a can be neither undecided nor rejected any more.
    "undecided before its last attacker": (f(["a", "b", "c"], [("c", "a"), ("b", "c"), ("c", "b")]), "none"),
}


def _decided_by_grounded(frame):
    (g,) = semantics(SemanticsKind.GROUNDED, frame)
    decided = g | {t for s, t in frame.attacks if s in g}
    if decided == frame.args:
        return "all"
    return "part" if decided else "none"


@pytest.mark.parametrize("name", sorted(GROUNDED_FAMILIES))
def test_grounded_seeded_search_matches_oracle_on_families(name):
    frame, decided = GROUNDED_FAMILIES[name]
    assert _decided_by_grounded(frame) == decided
    for kind in SemanticsKind:
        assert semantics(kind, frame) == oracle_semantics(kind, frame)


def test_grounded_seeded_search_matches_oracle_on_random_frames():
    rng = random.Random(7)
    seen = set()
    for density in (0.05, 0.1, 0.2, 0.3, 0.5):
        for _ in range(24):
            args = [f"r{i}" for i in range(rng.randint(1, 10))]
            attacks = [(a, b) for a in args for b in args if rng.random() < density]
            frame = f(args, attacks)
            seen.add(_decided_by_grounded(frame))
            for kind in SemanticsKind:
                assert semantics(kind, frame) == oracle_semantics(kind, frame)
    assert seen == {"all", "none", "part"}


def test_a_frame_too_deep_for_the_search_is_refused_with_a_value_error():
    # An even cycle leaves every argument undecided, so the search would recurse 3000 deep;
    # the grounded extension takes no search.
    frame = _join(_cycle(3000))
    assert semantics(SemanticsKind.GROUNDED, frame) == {frozenset()}
    for kind in (SemanticsKind.COMPLETE, SemanticsKind.PREFERRED):
        with pytest.raises(ValueError, match="^frame too deep to solve: 3000 undecided arguments"):
            semantics(kind, frame)


def test_the_seeded_30_argument_frame_at_density_0_3_solves_within_3_cpu_seconds():
    # Branching on the most-attacking argument first takes about 0.4 s here; index order took 7-9 s.
    frame = random_frame(random.Random(30 * 100 + 30), 30, 0.3)
    start = time.process_time()
    semantics(SemanticsKind.COMPLETE, frame)
    assert time.process_time() - start < 3.0


def test_matches_oracle_on_frames_shaped_like_solve_dense():
    """13 arguments, with exactly 30% of the 169 ordered pairs attacking, self-pairs included."""
    rng = random.Random(13)
    args = [f"d{i:02d}" for i in range(13)]
    pairs = [(a, b) for a in args for b in args]
    for _ in range(20):
        frame = f(args, rng.sample(pairs, round(0.3 * len(pairs))))
        for kind in SemanticsKind:
            assert semantics(kind, frame) == oracle_semantics(kind, frame)
