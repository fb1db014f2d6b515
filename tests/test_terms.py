from __future__ import annotations

import pytest

from capstation.core.terms import Xor


def test_empty_xor_rejected():
    with pytest.raises(ValueError):
        Xor(())
