import pytest

from prism25d.graph import DYNAMIC, STATIC, ClassEntry, ClassRegistry


@pytest.fixture
def registry():
    return ClassRegistry(
        {
            1: ClassEntry("table", STATIC),
            2: ClassEntry("shelf", STATIC),
            101: ClassEntry("person", DYNAMIC),
            102: ClassEntry("cart", DYNAMIC),
        }
    )
