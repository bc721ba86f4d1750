import pytest

from xidist.zeros import find_zeros, load_cache, save_cache


@pytest.fixture(scope="session")
def small_zeros():
    """Zeros below t = 120 (38 ordinates); cheap enough for unit tests."""
    return find_zeros(120.0)


@pytest.fixture(scope="session")
def big_zeros_found():
    """The zeros below t = 10020 (>10^4 ordinates) as find_zeros returns them."""
    return find_zeros(10020.0)


@pytest.fixture(scope="session")
def big_zeros_path(tmp_path_factory, big_zeros_found):
    """Cache file holding the zeros below t = 10020."""
    path = tmp_path_factory.mktemp("zeros") / "xidist_zeros_10k.txt"
    save_cache(big_zeros_found, path)
    return path


@pytest.fixture(scope="session")
def big_zeros(big_zeros_path):
    """The 10^4-zero table, exercised through a cache round trip."""
    return load_cache(big_zeros_path)
