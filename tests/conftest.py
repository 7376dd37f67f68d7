import pytest

from heckepieces.coxeter import coxeter_group
from heckepieces.hecke import kl_table
from heckepieces.charsheaf_b4 import build_context


@pytest.fixture(scope="session")
def b2():
    return coxeter_group("B2")


@pytest.fixture(scope="session")
def b3():
    return coxeter_group("B3")


@pytest.fixture(scope="session")
def b4():
    return coxeter_group("B4")


@pytest.fixture(scope="session")
def b4_kl(b4):
    return kl_table(b4)


@pytest.fixture(scope="session")
def b5_kl():
    return kl_table(coxeter_group("B5"))


@pytest.fixture(scope="session")
def ctx(b4_kl):
    return build_context(kl=b4_kl)
