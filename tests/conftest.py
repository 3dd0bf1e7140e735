import pytest

from martlab.machine import BudgetPoly

from machine_v1 import pairing_budget


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("martlab-cache")


@pytest.fixture(scope="session")
def budget():
    return BudgetPoly(4, 1, 16)


@pytest.fixture(scope="session")
def kt_table_10(budget, cache_dir):
    from martlab.kolmogorov import cached_kt_table

    return cached_kt_table(budget, 10, cache_dir)


@pytest.fixture(scope="session")
def kt_table_pairing_10(budget, cache_dir):
    from martlab.kolmogorov import cached_kt_table

    return cached_kt_table(pairing_budget(budget), 10, cache_dir)


@pytest.fixture(scope="session")
def census2(cache_dir):
    from martlab.circuits import cached_census

    return cached_census(2, 6, cache_dir)


@pytest.fixture(scope="session")
def census3(cache_dir):
    from martlab.circuits import cached_census

    return cached_census(3, 6, cache_dir)


@pytest.fixture(scope="session")
def census4(cache_dir):
    from martlab.circuits import cached_census

    return cached_census(4, 5, cache_dir)


def pytest_addoption(parser):
    parser.addoption(
        "--write-corpus",
        action="store_true",
        help="rewrite tests/error_corpus.json from the current CLI's behaviour",
    )
