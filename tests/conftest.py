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
