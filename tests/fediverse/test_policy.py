"""Tests for repro.fediverse.policy (MRF-style federation moderation)."""

import datetime as dt

import pytest

from repro.errors import FederationError
from repro.fediverse.models import Status
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.policy import ContentPolicy

WHEN = dt.datetime(2022, 10, 28, 12, 0)


def status(text: str, acct: str = "alice@remote.site", sid: int = 1) -> Status:
    return Status(status_id=sid, account_acct=acct, created_at=WHEN, text=text)


class TestContentPolicy:
    def test_open_by_default(self):
        policy = ContentPolicy()
        assert policy.is_open
        assert policy.admits(status("anything at all"))

    def test_domain_block(self):
        policy = ContentPolicy()
        policy.block_domain("Remote.Site")
        assert not policy.admits(status("hi"))
        assert policy.rejected_by_domain == 1
        assert policy.admits(status("hi", acct="bob@elsewhere.org", sid=2))

    def test_keyword_block(self):
        policy = ContentPolicy()
        policy.block_keyword("casino")
        assert not policy.admits(status("free CASINO spins"))
        assert policy.admits(status("free cinema tickets", sid=2))
        assert policy.rejected_by_keyword == 1

    def test_keyword_matches_tokens_not_substrings(self):
        policy = ContentPolicy()
        policy.block_keyword("cat")
        assert policy.admits(status("concatenation is fine"))
        assert not policy.admits(status("my cat agrees", sid=2))

    def test_empty_keyword_rejected(self):
        with pytest.raises(ValueError):
            ContentPolicy().block_keyword("  ")

    def test_total_rejected(self):
        policy = ContentPolicy()
        policy.block_domain("remote.site")
        policy.block_keyword("spam")
        policy.admits(status("x"))
        policy.admits(status("spam", acct="bob@ok.org", sid=2))
        assert policy.total_rejected == 2


class TestPolicyInFederation:
    @pytest.fixture
    def network(self):
        net = FediverseNetwork()
        home = net.create_instance("home.social")
        away = net.create_instance("away.town")
        home.register("alice", when=WHEN)
        away.register("bob", when=WHEN)
        return net

    def test_keyword_policy_filters_federated_statuses(self, network):
        home = network.get_instance("home.social")
        home.policy.block_keyword("casino")
        network.follow("alice@home.social", "bob@away.town", WHEN)
        network.post_status("bob@away.town", "come to the casino", WHEN)
        network.post_status("bob@away.town", "a lovely walk", WHEN)
        texts = [s.text for s in home.federated_timeline()]
        assert texts == ["a lovely walk"]
        assert [s.text for s in home.home_timeline("alice")] == ["a lovely walk"]
        assert home.policy.rejected_by_keyword == 1

    def test_defederation_blocks_new_follows(self, network):
        home = network.get_instance("home.social")
        home.policy.block_domain("away.town")
        with pytest.raises(FederationError):
            network.follow("alice@home.social", "bob@away.town", WHEN)

    def test_defederation_is_mutual_for_follows(self, network):
        away = network.get_instance("away.town")
        away.policy.block_domain("home.social")
        with pytest.raises(FederationError):
            network.follow("alice@home.social", "bob@away.town", WHEN)

    def test_existing_subscription_filtered_after_defederation(self, network):
        """An instance that defederates later stops accepting pushes."""
        home = network.get_instance("home.social")
        network.follow("alice@home.social", "bob@away.town", WHEN)
        network.post_status("bob@away.town", "before the block", WHEN)
        home.policy.block_domain("away.town")
        network.post_status("bob@away.town", "after the block", WHEN)
        texts = [s.text for s in home.federated_timeline()]
        assert texts == ["before the block"]

    def test_local_posts_never_filtered(self, network):
        home = network.get_instance("home.social")
        home.policy.block_keyword("casino")
        network.post_status("alice@home.social", "local casino talk", WHEN)
        assert [s.text for s in home.local_timeline()] == ["local casino talk"]
