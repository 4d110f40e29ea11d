import pytest

from srbflow import flow


@pytest.fixture
def workers(monkeypatch):
    """workers(k): flow's pool replaced by the one _pool builds on k cores,
    shut down when the test ends, so each test sees a pool of its own size."""
    build, pools = flow._pool.__wrapped__, []

    def use(k):
        monkeypatch.setattr(flow, "_cores", lambda: k)
        pools.append(build())
        monkeypatch.setattr(flow, "_pool", lambda: pools[-1])
        return pools[-1]

    yield use
    for pool in pools:
        pool.shutdown()
