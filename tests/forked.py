"""Row shares at test sizes: every step that splits its rows between
processes does so from one row, as on a host with three usable CPUs."""

import contextlib
from unittest import mock

from facedct import matching, pipeline, shares


@contextlib.contextmanager
def forked_shares():
    """Split the rows of the score file, the score tensor and featurizing
    between processes: one share per row, up to three."""
    with mock.patch.object(matching, "_SHARE_FLOOR", 1), \
            mock.patch.object(matching, "_TENSOR_FLOOR", 1), \
            mock.patch.object(pipeline, "_FEATURIZE_FLOOR", 1), \
            mock.patch.object(shares, "usable_cpus", lambda: 3):
        yield
