"""Structural checks of the synthetic workloads (cheap, scaled-down runs)."""

import math

import pytest

from repro.workloads import WORKLOADS, Workload, get_workload
from repro.workloads.catalog import (
    TABLE2_WORKLOADS,
    TABLE3_WORKLOADS,
    workload_names,
)
from tests.engine.conftest import make_context

GiB = 1024.0**3


def run_scaled(name, scale=0.02, **kwargs):
    ctx = make_context(num_nodes=2, cores=4)
    workload = get_workload(name, scale=scale, **kwargs)
    return workload, workload.run(ctx)


class TestCatalog:
    def test_registry_contains_all_table2_apps(self):
        for name in TABLE2_WORKLOADS:
            assert name in WORKLOADS

    def test_table3_subset_of_table2(self):
        assert set(TABLE3_WORKLOADS) <= set(TABLE2_WORKLOADS)

    def test_names_sorted(self):
        names = workload_names()
        assert names == sorted(names)

    def test_get_workload_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("mapreduce")

    def test_get_workload_passes_kwargs(self):
        assert get_workload("pagerank", iterations=2).iterations == 2

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            get_workload("terasort", scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_rejected(self, scale):
        # An infinite scale once reached DistributedFileSystem.create,
        # which appended blocks forever; NaN failed later, mid-run.
        with pytest.raises(ValueError, match="finite"):
            get_workload("terasort", scale=scale)

    def test_paper_amplification_ratios(self):
        # Table 2's reported ratios, sanity-encoded on the classes.
        assert get_workload("join").paper_amplification == pytest.approx(
            21.06 / 17.87, rel=1e-3
        )
        assert get_workload("nweight").paper_amplification > 30


class TestScaledRuns:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_runs_and_moves_bytes(self, name):
        workload, run = run_scaled(name)
        assert run.runtime > 0
        assert run.num_stages >= 1
        assert run.cluster_io_bytes > workload.scaled_input_size

    def test_terasort_has_three_stages(self):
        _w, run = run_scaled("terasort")
        assert run.num_stages == 3

    def test_pagerank_stage_count_follows_iterations(self):
        ctx = make_context(num_nodes=2, cores=4)
        workload = get_workload("pagerank", scale=0.02, iterations=2)
        run = workload.run(ctx)
        assert run.num_stages == 2 + 2

    def test_aggregation_two_stages(self):
        _w, run = run_scaled("aggregation")
        assert run.num_stages == 2

    def test_join_three_stages(self):
        _w, run = run_scaled("join")
        assert run.num_stages == 3

    def test_amplification_in_paper_band(self):
        # Spot-check two contrasting workloads at small scale.
        for name, lo, hi in (("join", 1.0, 2.2), ("lda", 3.0, 11.0)):
            workload, run = run_scaled(name)
            amplification = run.cluster_io_bytes / workload.scaled_input_size
            assert lo < amplification < hi, (name, amplification)

    def test_scale_changes_input_size(self):
        big = get_workload("terasort", scale=1.0)
        small = get_workload("terasort", scale=0.1)
        assert small.scaled_input_size == pytest.approx(big.scaled_input_size * 0.1)


class TestWorkloadValidation:
    def test_pagerank_requires_iterations(self):
        with pytest.raises(ValueError):
            get_workload("pagerank", iterations=0)

    def test_lda_requires_iterations(self):
        with pytest.raises(ValueError):
            get_workload("lda", iterations=0)

    def test_nweight_requires_hops(self):
        with pytest.raises(ValueError):
            get_workload("nweight", hops=0)

    def test_base_class_requires_overrides(self):
        workload = Workload()
        with pytest.raises(NotImplementedError):
            workload.prepare(None)
        with pytest.raises(NotImplementedError):
            workload.prepare_small(None)
