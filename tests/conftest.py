"""Checks that every test runs under."""

import pytest

import fedhar.tensor as T

# the real getter, not one a test puts in place with monkeypatch
_get_blas_threads = T._openblas[1] if T._openblas is not None else None


@pytest.fixture(autouse=True)
def blas_pool_given_back():
    """Fail a test that leaves a BLAS share held or the pool resized, as a
    client thread that outlives its test or a leaked lifetime share would."""
    yield
    assert T._blas_share._active == 0, f"{T._blas_share._active} BLAS share(s) still held"
    if _get_blas_threads is not None:
        assert _get_blas_threads() == T._blas_start, (
            f"OpenBLAS pool left at {_get_blas_threads()} threads, "
            f"not the {T._blas_start} the process started with")
