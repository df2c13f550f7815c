"""Extension X3: structure of the migration ego networks.

Builds the followee-sample graph from the edge columns and reports its
structural statistics: how strongly edges point into the migrant set,
reciprocity among sampled migrants, and the instance co-occurrence graph.
"""

from __future__ import annotations

from repro.analysis.network_structure import network_structure
from repro.collection.dataset import MigrationDataset
from repro.experiments.registry import ExperimentResult

EXP_ID = "X3"
TITLE = "Ego-network structure of the migration (extension)"


def run(dataset: MigrationDataset) -> ExperimentResult:
    result = network_structure(dataset)
    rows = [
        ("sampled-graph nodes", result.nodes),
        ("sampled-graph edges", result.edges),
        ("migrated nodes", result.migrated_nodes),
        ("% edges into migrants", result.pct_edges_into_migrants),
        ("% migrated among nodes", result.pct_expected_at_random),
        ("reciprocity among sampled users (%)", result.reciprocity_pct),
        ("instance co-occurrence nodes", result.instance_graph_nodes),
        ("instance co-occurrence edges", result.instance_graph_edges),
        ("largest component (% of subgraph)", result.largest_component_pct),
    ]
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["statistic", "value"],
        rows=rows,
        notes={
            "pct_edges_into_migrants": result.pct_edges_into_migrants,
            "reciprocity_pct": result.reciprocity_pct,
        },
    )
