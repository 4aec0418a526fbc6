"""Session-wide test isolation for the sweep result cache.

Anything that touches the :mod:`repro.sweep` engine with default
settings (``run_specs(..., cache="default")``, the figure and ablation
functions) would otherwise write to ``results/.sweep-cache`` in the
working directory; point it at a per-session temp dir instead.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_sweep_cache(tmp_path_factory):
    import os

    from repro.sweep.cache import CACHE_DIR_ENV

    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("sweep-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
