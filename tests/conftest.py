import sys

import pytest

from courantlab.anchored import AnchoredPoint


@pytest.fixture
def point_builds(monkeypatch):
    """The (point, key) of each value a point builds to keep.  A key is
    (kind, value): ("image", S) for anchor_image, ("lm", F) for
    drinfeld_lagrangian, and ("pi", s), ("rank", s), ("leaf", s) for
    bivector_at, rank_formula and leaf_condition at a splitting s.
    Holding the points keeps their ids distinct for the whole test."""
    builds = []
    keep = AnchoredPoint._keep

    def counted(self, key, build):
        def counted_build():
            builds.append((self, key))
            return build()

        return keep(self, key, counted_build)

    monkeypatch.setattr(AnchoredPoint, "_keep", counted)
    return builds


@pytest.fixture
def calls(monkeypatch):
    """spy(owner, name) wraps ``owner.name`` and returns the list of the
    positional arguments of each call.  A method is wrapped on its class;
    a function on every loaded courantlab module that binds it, so a call
    through any module's import counts."""

    def spy(owner, name):
        original = getattr(owner, name)
        seen = []

        def counted(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
            return seen
        for module in list(sys.modules.values()):
            if (module and module.__name__.startswith("courantlab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
        return seen

    return spy
