"""Tests for repro.analysis.network_structure and its networkx oracle."""

import networkx as nx
import pytest

from repro.analysis.network_structure import network_structure
from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from tests.oracles.analysis import build_sample_graph, instance_cooccurrence_graph


class TestBuildSampleGraph:
    def test_nodes_and_edges(self, tiny_dataset):
        graph = build_sample_graph(tiny_dataset)
        assert graph.has_edge(1, 2)
        assert graph.has_edge(1, 100)
        assert graph.has_edge(2, 1)

    def test_migrated_attribute(self, tiny_dataset):
        graph = build_sample_graph(tiny_dataset)
        assert graph.nodes[2]["migrated"]
        assert not graph.nodes[100]["migrated"]

    def test_instance_attribute(self, tiny_dataset):
        graph = build_sample_graph(tiny_dataset)
        assert graph.nodes[5]["instance"] == "art.school"
        assert graph.nodes[101]["instance"] is None

    def test_empty_sample_rejected(self):
        with pytest.raises(AnalysisError):
            build_sample_graph(MigrationDataset())


class TestInstanceCooccurrence:
    def test_cross_instance_edges(self, tiny_dataset):
        graph = instance_cooccurrence_graph(tiny_dataset)
        # user 2 (mastodon.social) follows user 5 (art.school)
        assert graph.has_edge("mastodon.social", "art.school")

    def test_same_instance_edges_excluded(self, tiny_dataset):
        graph = instance_cooccurrence_graph(tiny_dataset)
        assert not graph.has_edge("mastodon.social", "mastodon.social")

    def test_weights_accumulate(self, tiny_dataset):
        graph = instance_cooccurrence_graph(tiny_dataset)
        assert graph["mastodon.social"]["art.school"]["weight"] >= 1


class TestNetworkStructure:
    def test_tiny_dataset_statistics(self, tiny_dataset):
        result = network_structure(tiny_dataset)
        assert result.nodes == graph_nodes(tiny_dataset)
        assert result.edges == 11
        # edges into migrants: 1->2, 1->3, 2->1, 2->3, 2->5 = 5 of 11
        assert result.pct_edges_into_migrants == pytest.approx(100 * 5 / 11)

    def test_reciprocity(self, tiny_dataset):
        result = network_structure(tiny_dataset)
        # sampled users are {1, 2, 4}; inner edges: 1->2 and 2->1 (both
        # reciprocated)
        assert result.reciprocity_pct == pytest.approx(100.0)

    def test_edge_and_node_shares_in_band(self, small_dataset):
        """The edge share into migrants tracks Fig. 8's followee-migration
        fraction; the node share is the same quantity unweighted by degree.
        They must be in the same ballpark (popular non-migrating hubs pull
        the edge share slightly below the node share)."""
        result = network_structure(small_dataset)
        assert 0.0 < result.pct_edges_into_migrants < 30.0
        assert 0.0 < result.pct_expected_at_random < 30.0
        ratio = result.pct_edges_into_migrants / result.pct_expected_at_random
        assert 0.3 < ratio < 3.0

    def test_instance_graph_nontrivial(self, small_dataset):
        result = network_structure(small_dataset)
        assert result.instance_graph_nodes >= 2
        assert result.instance_graph_edges >= 1

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            network_structure(MigrationDataset())


def graph_nodes(dataset) -> int:
    return build_sample_graph(dataset).number_of_nodes()


class TestFollowGraphExport:
    def test_to_networkx_roundtrip(self):
        from repro.twitter.graph import FollowGraph

        graph = FollowGraph()
        graph.follow(1, 2)
        graph.follow(2, 3)
        graph.add_user(9)
        nxg = graph.to_networkx()
        assert isinstance(nxg, nx.DiGraph)
        assert set(nxg.nodes) == {1, 2, 3, 9}
        assert set(nxg.edges) == {(1, 2), (2, 3)}
