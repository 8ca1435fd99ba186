"""Package surface: the names ``kssp`` exports."""
from __future__ import annotations

import kssp


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from kssp import *", namespace)  # raises on a stale __all__ entry
    missing = [name for name in kssp.__all__ if name not in namespace]
    assert missing == []
    assert len(set(kssp.__all__)) == len(kssp.__all__)
