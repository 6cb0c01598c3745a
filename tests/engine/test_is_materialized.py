"""``RDD.is_materialized`` is set once at construction; it must equal the
recursive definition over the lineage for every RDD the catalog builds."""

import pytest

from repro.engine.rdd import (
    RDD,
    HadoopRDD,
    MapLikeRDD,
    ParallelizedRDD,
    ShuffledRDD,
)
from repro.harness.runner import build_context
from repro.workloads import Workload, get_workload, workload_names


def recursive_is_materialized(rdd):
    """The definition the attribute caches, recomputed through the lineage."""
    if isinstance(rdd, HadoopRDD):
        return rdd._dataset.records_available
    if isinstance(rdd, ParallelizedRDD):
        return True
    if isinstance(rdd, MapLikeRDD):
        return recursive_is_materialized(rdd.parent)
    if isinstance(rdd, ShuffledRDD):
        return recursive_is_materialized(rdd.dep.rdd)
    # CoGroupedRDD and UnionRDD: every parent must be materialised.
    return all(recursive_is_materialized(parent) for parent in rdd.parents)


def _built_rdds(monkeypatch, name, scale, small):
    """Every RDD one run of ``name`` constructs."""
    built = []
    init = RDD.__init__

    def recording(rdd, *args, **kwargs):
        init(rdd, *args, **kwargs)
        built.append(rdd)

    monkeypatch.setattr(RDD, "__init__", recording)
    workload = get_workload(name, scale=scale)
    ctx = build_context(num_nodes=2, cores=4)
    if small:
        workload.run_small(ctx)
    else:
        workload.run(ctx)
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("scale", [0.01, 0.02])
@pytest.mark.parametrize("name", workload_names())
def test_attribute_matches_recursive_definition(monkeypatch, name, scale):
    # Synthetic inputs, plus the materialised variant where there is one.
    variants = [False]
    if type(get_workload(name)).prepare_small is not Workload.prepare_small:
        variants.append(True)
    for small in variants:
        rdds = _built_rdds(monkeypatch, name, scale, small)
        assert rdds
        for rdd in rdds:
            assert rdd.is_materialized == recursive_is_materialized(rdd), rdd
        if small:
            assert any(rdd.is_materialized for rdd in rdds)
        else:
            assert not any(rdd.is_materialized for rdd in rdds)
