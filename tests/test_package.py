"""Package surface: the names ``kssp`` exports."""
from __future__ import annotations

import kssp


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from kssp import *", namespace)  # raises on a stale __all__ entry
    missing = [name for name in kssp.__all__ if name not in namespace]
    assert missing == []
    assert len(set(kssp.__all__)) == len(kssp.__all__)


def test_engine_keeps_the_names_the_benchmark_traces():
    # perfbench/spans.py looks these names of kssp.engine up on import, traced
    # or not; drop this test with the engine's unused reverse_distances import
    # once the benchmark looks them up only when tracing
    import kssp.engine

    for name in (
        "k_shortest_paths",
        "find_best_deviation",
        "shortest_path",
        "reverse_distances",
        "Workspace",
        "build_query",
    ):
        assert callable(getattr(kssp.engine, name, None)), name
