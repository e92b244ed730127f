import random

import pytest

from mmarg.frames import ArgumentationFrame
from mmarg.oracle import MAX_ORACLE_ARGS, oracle_semantics, random_frame
from mmarg.semantics import SemanticsKind, semantics

from conftest import ext


def test_oracle_on_single_attack():
    frame = ArgumentationFrame.of(["a1", "a2"], [("a1", "a2")])
    assert oracle_semantics(SemanticsKind.COMPLETE, frame) == ext({"a1"})
    assert oracle_semantics(SemanticsKind.PREFERRED, frame) == ext({"a1"})
    assert oracle_semantics(SemanticsKind.GROUNDED, frame) == ext({"a1"})


def test_oracle_grounded_is_intersection_of_its_complete_extensions():
    rng = random.Random(7)
    for _ in range(25):
        frame = random_frame(rng, rng.randint(1, 7), 0.3)
        complete = oracle_semantics(SemanticsKind.COMPLETE, frame)
        (grounded,) = oracle_semantics(SemanticsKind.GROUNDED, frame)
        assert grounded == frozenset.intersection(*complete)


def test_oracle_guard_rejects_large_frames():
    frame = ArgumentationFrame.of([f"z{i}" for i in range(MAX_ORACLE_ARGS + 1)])
    with pytest.raises(ValueError):
        oracle_semantics(SemanticsKind.COMPLETE, frame)


def test_random_frame_density_zero_and_one():
    rng = random.Random(1)
    assert not random_frame(rng, 5, 0.0).attacks
    assert len(random_frame(rng, 3, 1.0).attacks) == 9


def test_solver_agrees_on_seeded_random_frames():
    rng = random.Random(12345)
    for _ in range(50):
        frame = random_frame(rng, rng.randint(1, 8), rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        for kind in SemanticsKind:
            assert semantics(kind, frame) == oracle_semantics(kind, frame)
