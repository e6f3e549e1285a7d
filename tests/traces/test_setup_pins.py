"""Byte-identity of the set-up path: trace generation, binding, placement.

The synthetic records, the bound request stream and the placement catalog
of each synthetic trace at paper scale must match the ``setup <trace> ...``
lines of the pin registry (``tests/test_pins.py``), so any change that
moves one record, one request or one replica location fails here.
"""

import pytest

from tests.test_pins import SETUP_TRACES, assert_pinned, setup_digests


@pytest.mark.parametrize("trace", list(SETUP_TRACES))
def test_setup_matches_pin(trace, tmp_path):
    assert_pinned(f"setup {trace}", setup_digests(tmp_path, traces=(trace,)))
