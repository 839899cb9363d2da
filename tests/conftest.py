import pytest

from courantlab.anchored import AnchoredPoint


@pytest.fixture
def point_builds(monkeypatch):
    """The (point, key) of each value a point builds to keep: a Splitting
    key for bivector_at, a subspace F for drinfeld_lagrangian.  Holding
    the points keeps their ids distinct for the whole test."""
    builds = []
    keep = AnchoredPoint._keep

    def counted(self, key, build):
        def counted_build():
            builds.append((self, key))
            return build()

        return keep(self, key, counted_build)

    monkeypatch.setattr(AnchoredPoint, "_keep", counted)
    return builds
