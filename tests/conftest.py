import pytest

from catgeo import geometry


@pytest.fixture
def count_kernel_calls(monkeypatch):
    """Wrap the pair kernel from here on; the returned list gets (f, g) of each call."""

    def install():
        calls = []
        kernel = geometry._product

        def counting(f, g, *rest):
            calls.append((f, g))
            return kernel(f, g, *rest)

        monkeypatch.setattr(geometry, "_product", counting)
        return calls

    return install
