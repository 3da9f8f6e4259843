from functools import lru_cache

import pytest

from uzeta.kernelalg import KernelContext
from uzeta.rootdata import convex_order, default_w0_word
from uzeta.scalars import make_field


@lru_cache(maxsize=None)
def get_context(label: str, ell: int, p=None, r: int = 0, w0=None) -> KernelContext:
    order = convex_order(label, w0 or default_w0_word(label))
    return KernelContext(order, make_field(ell, p), r=r)


@pytest.fixture(scope="session")
def ctxmaker():
    return get_context


@pytest.fixture(scope="session")
def freshctx():
    """A new context per call, for tests that read what a context keeps."""
    return get_context.__wrapped__
