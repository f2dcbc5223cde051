"""Tests for query templates and workload generation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chain.datagen import Universe
from repro.db.sql.parser import parse_statement
from repro.workloads.generator import Workload, WorkloadGenerator
from repro.workloads.queries import QUERY_TEMPLATES, operations_matrix


@pytest.fixture(scope="module")
def generator():
    universe = Universe(seed=5)
    return WorkloadGenerator(
        universe, data_start=1_000_000, data_end=1_172_800,
        queries_per_workload=5,
    )


class TestTemplates:
    def test_eight_templates(self):
        assert sorted(QUERY_TEMPLATES) == [
            f"Q{i}" for i in range(1, 9)
        ]

    @pytest.mark.parametrize("name", sorted(QUERY_TEMPLATES))
    def test_templates_parse(self, name, generator):
        workload = generator.workload(name, window_hours=6)
        for sql in workload.queries:
            parse_statement(sql)  # must be valid SQL

    def test_operations_matrix_matches_paper(self):
        from repro.experiments.table2 import PAPER_MATRIX

        assert operations_matrix() == PAPER_MATRIX

    def test_q6_is_nested(self, generator):
        sql = generator.workload("Q6", 6).queries[0]
        assert "IN (SELECT" in sql


class TestGenerator:
    def test_workload_size(self, generator):
        assert len(generator.workload("Q1", 6)) == 5
        assert len(generator.workload("Q1", 6, count=3)) == 3

    def test_mixed_composition(self, generator):
        mixed = generator.mixed(6, per_type=2)
        assert mixed.name == "Mixed"
        assert len(mixed) == 16  # 2 x 8 types

    def test_deterministic(self):
        universe = Universe(seed=5)
        g1 = WorkloadGenerator(universe, 0, 100_000, seed=9)
        g2 = WorkloadGenerator(universe, 0, 100_000, seed=9)
        assert g1.workload("Q3", 6).queries == g2.workload("Q3", 6).queries

    def test_windows_respect_length(self, generator):
        workload = generator.workload("Q2", window_hours=3)
        for sql in workload.queries:
            # extract the BETWEEN bounds
            fragment = sql.split("BETWEEN ")[1]
            low, rest = fragment.split(" AND ", 1)
            high = rest.split(" ")[0].rstrip(")")
            assert int(high) - int(low) == 3 * 3600

    def test_windows_inside_data_range(self, generator):
        workload = generator.workload("Q2", window_hours=12)
        for sql in workload.queries:
            fragment = sql.split("BETWEEN ")[1]
            low, rest = fragment.split(" AND ", 1)
            high = rest.split(" ")[0].rstrip(")")
            assert int(low) >= generator.data_start - 12 * 3600
            assert int(high) <= generator.data_end

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(Universe(seed=1), 100, 100)

    def test_workload_dataclass(self):
        workload = Workload(name="x", queries=["SELECT 1"])
        assert len(workload) == 1


#: Builds a small system and renders every template once; prints the
#: certified ADS root and the SQL text.
SEEDED_RUN = """
import json
from repro.experiments.harness import build_env
from repro.workloads.queries import QUERY_TEMPLATES

env = build_env(hours=2, txs_per_block=3, queries_per_workload=2,
                use_cache=False)
print(json.dumps({
    "ads_root": env.system.isp.get_certificate().ads_root.hex(),
    "sql": [sql for name in sorted(QUERY_TEMPLATES)
            for hours in (1, 1.5)
            for sql in env.generator.workload(name, hours).queries],
}))
"""


class TestHashSeedIndependence:
    def test_data_and_queries_do_not_depend_on_the_hash_seed(self):
        """Generated history and workloads are seeded by value: a
        process's string-hash salt changes neither the certified root
        nor a query's text."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for hash_seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", SEEDED_RUN], env=env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            runs.append(json.loads(done.stdout))
        assert runs[0]["ads_root"] == runs[1]["ads_root"]
        assert runs[0]["sql"] == runs[1]["sql"]
