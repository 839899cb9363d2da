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
