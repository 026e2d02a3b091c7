import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_datasets", Path(__file__).resolve().parent.parent / "scripts" / "make_datasets.py")
make_datasets = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_datasets)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Edge files for the bundled real networks, written once per session
    by the same writers as ``scripts/make_datasets.py``."""
    out = tmp_path_factory.mktemp("networks")
    make_datasets.write_karate(out)
    make_datasets.write_lesmis(out)
    return out


def polblogs_path():
    """User-provided political-weblogs file; tests skip when absent."""
    candidates = [
        os.environ.get("SPECTRALMIX_POLBLOGS"),
        "data/polblogs.gml",
        str(Path(__file__).resolve().parent.parent / "data" / "polblogs.gml"),
    ]
    for c in candidates:
        if c and Path(c).exists():
            return Path(c)
    return None


def random_ground_truth(rng, n, K, pure_frac_min=0.4, p_low=-0.3, p_high=0.5):
    """A random valid parameter set: pure blocks plus Dirichlet mixed rows,
    a well-conditioned unit-diagonal block matrix, positive node scales."""
    n_pure = max(K, int(np.ceil(pure_frac_min * n)))
    n0 = max(1, n_pure // K)
    n_mixed = n - K * n0
    Pi = np.zeros((n, K))
    for k in range(K):
        Pi[k * n0:(k + 1) * n0, k] = 1.0
    if n_mixed:
        Pi[K * n0:] = rng.dirichlet(np.ones(K), size=n_mixed)
    while True:
        off = rng.uniform(p_low, p_high, size=(K, K))
        off = (off + off.T) / 2
        P = np.eye(K) + off - np.diag(np.diag(off))
        sv = np.linalg.svd(P, compute_uv=False)
        if sv[-1] > 0.1:
            break
    theta = rng.uniform(0.5, 1.5, size=n)
    return P, Pi, theta
