import pytest

from cliquebounds import enumerate_levels


@pytest.fixture(scope="session")
def corpus():
    """All non-isomorphic graphs up to 7 vertices, keyed by vertex count."""
    return dict(zip(range(1, 8), enumerate_levels(range(1, 8))))


@pytest.fixture(scope="session")
def corpus6(corpus):
    return [g for n in range(1, 7) for g in corpus[n]]
