import contextlib
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def padded():
    """Lays a view's packed frames out on its (B, M, N) grid, zeros past each
    length: the padded frames ``FrameBatchView.from_lengths`` packs."""
    def lay_out(view):
        b, m = len(view.lengths), view.max_frames
        grid = np.zeros((b, m, view.feature_dim), view.frames.dtype)
        grid[np.arange(m) < view.lengths[:, None]] = view.frames.data
        return grid
    return lay_out


class HalfWriter:
    """A file whose first write stores half of its bytes, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.f, name)


@pytest.fixture
def failing_write(monkeypatch):
    """``failing_write(module, name)``: from then on, the file that ``module``'s
    ``atomic_write`` opens for a path named ``name`` is a ``HalfWriter``."""
    def patch(module, name):
        real = module.atomic_write

        @contextlib.contextmanager
        def failing(path, *args, **kwargs):
            with real(path, *args, **kwargs) as f:
                yield HalfWriter(f) if Path(path).name == name else f
        monkeypatch.setattr(module, "atomic_write", failing)
    return patch
