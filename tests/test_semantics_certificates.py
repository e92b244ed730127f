"""Solver checks past the oracle's reach, stated from the definitions alone.

Dung (AIJ 77, 1995): a complete extension is conflict-free, defends each of
its members and contains every argument it defends; a preferred extension is
a maximal complete one; the grounded extension is the least complete one,
the intersection of them all.  Each of these is checked in polynomial time
on frames of 14-25 arguments, too large to enumerate subsets of cheaply, and
on the seeded 30- and 40-argument frames of :func:`mmarg.random_frame`.
Exact references for 20 arguments come from disjoint unions of two
oracle-checked halves, whose extensions are exactly the unions of one
extension of each half.  Renaming the arguments must rename the extensions.
All three kinds are directional (Baroni and Giacomin, AIJ 171, 2007): on a
set that no attack from outside enters, the extensions cut to the set are
exactly the extensions of the frame restricted to it.

Only :func:`mmarg.semantics` and :func:`mmarg.oracle_semantics` are called;
:func:`mmarg.random_frame` only draws frames.
"""

import itertools
import random

import pytest

from mmarg import ArgumentationFrame, SemanticsKind, oracle_semantics, random_frame as seeded_frame, semantics


def random_frame(rng, ids, density, mutual):
    """Each pair of ids attacks both ways with chance ``mutual``, else one way with chance ``density``;
    mutual attacks make frames with many extensions."""
    attacks = [(a, a) for a in ids if rng.random() < 0.05]
    for a, b in itertools.combinations(ids, 2):
        r = rng.random()
        if r < mutual:
            attacks += [(a, b), (b, a)]
        elif r < mutual + density:
            attacks.append((a, b) if rng.random() < 0.5 else (b, a))
    return ArgumentationFrame.of(ids, attacks)


def mixed_ids(rng, n):
    """``n`` distinct ids of unequal lengths, so sorted order is not numeric order."""
    return [f"{rng.choice('abxy')}{i}" for i in rng.sample(range(1, 120), n)]


def attacked_by(s, f):
    return {t for a, t in f.attacks if a in s}


def defended_by(s, f):
    """Every argument each of whose attackers some member of ``s`` attacks."""
    hit = attacked_by(s, f)
    return {a for a in f.args if all(x in hit for x, t in f.attacks if t == a)}


def assert_complete(ext, f):
    assert ext <= f.args
    assert not ext & attacked_by(ext, f), f"{sorted(ext)} is not conflict-free"
    assert defended_by(ext, f) == ext, f"{sorted(ext)} does not defend exactly its members"


def assert_certified(f):
    """Check the extensions of each kind of ``f`` against the definitions, and return them."""
    complete, preferred, grounded = exts = tuple(semantics(kind, f) for kind in SemanticsKind)
    assert complete
    for ext in complete:
        assert_complete(ext, f)
    maximal = {e for e in complete if not any(e < other for other in complete)}
    for ext in preferred:
        assert_complete(ext, f)
    assert preferred == maximal
    (g,) = grounded
    assert g == frozenset.intersection(*complete)
    assert g in complete
    return exts


CERTIFIED = [(seed, *shape) for seed, shape in enumerate(itertools.product((14, 17, 20, 22, 25), (0.05, 0.1, 0.2), (0.03, 0.08)))]


@pytest.mark.parametrize("seed, n, density, mutual", CERTIFIED)
def test_extensions_carry_their_certificates(seed, n, density, mutual):
    rng = random.Random(seed)
    assert_certified(random_frame(rng, mixed_ids(rng, n), density, mutual))


@pytest.mark.parametrize("n, density", [(30, 0.3), (40, 0.1)])
def test_seeded_frames_past_25_arguments_carry_their_certificates_under_any_names(n, density):
    f = seeded_frame(random.Random(n * 100 + int(density * 100)), n, density)
    complete, _, grounded = assert_certified(f)
    # Sorted mixed ids put the arguments in another index order, so the search breaks its ties differently.
    # Preferred is the same search's maximal sets, so complete and grounded cover the renaming.
    name = dict(zip(sorted(f.args), mixed_ids(random.Random(n), n)))
    renamed = ArgumentationFrame.of(name.values(), [(name[a], name[b]) for a, b in f.attacks])
    for kind, found in ((SemanticsKind.COMPLETE, complete), (SemanticsKind.GROUNDED, grounded)):
        assert semantics(kind, renamed) == frozenset(frozenset(name[a] for a in e) for e in found)


@pytest.mark.parametrize("seed", range(4))
def test_disjoint_union_of_oracle_checked_halves_is_exact(seed):
    rng = random.Random(100 + seed)
    ids = mixed_ids(rng, 20)
    density = (0.05, 0.1, 0.15, 0.2)[seed]
    left, right = (random_frame(rng, half, density, 0.1) for half in (ids[:10], ids[10:]))
    union = ArgumentationFrame.of(left.args | right.args, left.attacks | right.attacks)
    for kind in SemanticsKind:
        exact = [oracle_semantics(kind, half) for half in (left, right)]
        assert [semantics(kind, half) for half in (left, right)] == exact
        assert semantics(kind, union) == frozenset(a | b for a in exact[0] for b in exact[1])


@pytest.mark.parametrize("seed", range(6))
def test_renaming_arguments_renames_extensions(seed):
    rng = random.Random(200 + seed)
    ids = mixed_ids(rng, rng.randint(8, 16))
    f = random_frame(rng, ids, rng.choice((0.05, 0.1, 0.2)), 0.08)
    fresh = mixed_ids(rng, len(ids))
    name = dict(zip(ids, fresh))
    renamed = ArgumentationFrame.of(fresh, [(name[a], name[b]) for a, b in f.attacks])
    for kind in SemanticsKind:
        assert semantics(kind, renamed) == frozenset(frozenset(name[a] for a in e) for e in semantics(kind, f))


@pytest.mark.parametrize("seed", range(6))
def test_extensions_cut_to_an_unattacked_set_are_those_of_its_restriction(seed):
    rng = random.Random(300 + seed)
    ids = mixed_ids(rng, rng.randint(14, 20))
    unattacked = set(rng.sample(ids, rng.randint(4, len(ids) - 4)))
    drawn = random_frame(rng, ids, rng.choice((0.05, 0.1, 0.2)), 0.08)
    # Drop every attack that enters the set from outside it.
    f = ArgumentationFrame.of(ids, [(a, b) for a, b in drawn.attacks if a in unattacked or b not in unattacked])
    restricted = ArgumentationFrame.of(unattacked, [(a, b) for a, b in f.attacks if a in unattacked and b in unattacked])
    assert restricted.attacks < f.attacks
    for kind in SemanticsKind:
        assert frozenset(e & unattacked for e in semantics(kind, f)) == semantics(kind, restricted)
