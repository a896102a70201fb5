import numpy as np
import pytest


def fd_grad(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over an array.

    Independent oracle: never reuses any analytic machinery from the
    package, just perturbs entries one at a time.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = func(x)
        flat[i] = keep - h
        down = func(x)
        flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm disagreement relative to gradient scale, floored at 1."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def partition_shapes(monkeypatch) -> list:
    """The shape of every score block that top_k_indices partitions."""
    from hublab import hubness

    shapes = []
    partition = hubness._partition_top_k

    def spy(scores, k, scratch=None):
        shapes.append(scores.shape)
        return partition(scores, k, scratch)

    monkeypatch.setattr(hubness, "_partition_top_k", spy)
    return shapes


def random_unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
