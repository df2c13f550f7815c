"""Tests for repro.fediverse.network: federation and account migration."""

import datetime as dt

import pytest

from repro.errors import FederationError, InstanceNotFoundError
from repro.fediverse.activitypub import Accept, Create, Follow, Move
from repro.fediverse.network import FediverseNetwork

WHEN = dt.datetime(2022, 10, 28, 12, 0)


@pytest.fixture
def network():
    net = FediverseNetwork(keep_activity_log=True)
    home = net.create_instance("home.social")
    away = net.create_instance("away.town")
    home.register("alice", when=WHEN)
    away.register("bob", when=WHEN)
    away.register("carol", when=WHEN)
    return net


class TestRegistry:
    def test_duplicate_instance_rejected(self, network):
        with pytest.raises(ValueError):
            network.create_instance("home.social")

    def test_missing_instance(self, network):
        with pytest.raises(InstanceNotFoundError):
            network.get_instance("nowhere.net")

    def test_resolve(self, network):
        instance, account = network.resolve("bob@away.town")
        assert instance.domain == "away.town"
        assert account.username == "bob"

    def test_instance_count(self, network):
        assert network.instance_count == 2


class TestCrossInstanceFollow:
    def test_follow_records_both_sides(self, network):
        assert network.follow("alice@home.social", "bob@away.town", WHEN)
        home = network.get_instance("home.social")
        away = network.get_instance("away.town")
        assert "bob@away.town" in home.following_of("alice@home.social")
        assert "alice@home.social" in away.followers_of("bob@away.town")

    def test_duplicate_follow_noop(self, network):
        network.follow("alice@home.social", "bob@away.town", WHEN)
        assert not network.follow("alice@home.social", "bob@away.town", WHEN)

    def test_follow_emits_follow_accept(self, network):
        network.follow("alice@home.social", "bob@away.town", WHEN)
        kinds = [type(a) for a in network.activity_log]
        assert kinds == [Follow, Accept]

    def test_unfollow(self, network):
        network.follow("alice@home.social", "bob@away.town", WHEN)
        network.unfollow("alice@home.social", "bob@away.town")
        home = network.get_instance("home.social")
        assert home.following_of("alice@home.social") == frozenset()


class TestFederatedDelivery:
    def test_status_pushed_to_subscriber_instance(self, network):
        network.follow("alice@home.social", "bob@away.town", WHEN)
        network.post_status("bob@away.town", "hello federation", WHEN)
        home = network.get_instance("home.social")
        assert [s.text for s in home.federated_timeline()] == ["hello federation"]
        assert [s.text for s in home.home_timeline("alice")] == ["hello federation"]

    def test_no_subscription_no_delivery(self, network):
        network.post_status("bob@away.town", "nobody listens", WHEN)
        home = network.get_instance("home.social")
        assert home.federated_timeline() == []

    def test_federated_timeline_is_union_for_all_locals(self, network):
        """Section 2: the federated timeline is not limited to one user's
        follows — it is the union of remote statuses retrieved for all."""
        home = network.get_instance("home.social")
        home.register("zoe", when=WHEN)
        network.follow("zoe@home.social", "carol@away.town", WHEN)
        network.post_status("carol@away.town", "carol speaking", WHEN)
        # alice follows nobody remote, yet sees carol on the federated TL
        assert [s.text for s in home.federated_timeline()] == ["carol speaking"]
        assert home.home_timeline("alice") == []

    def test_create_activity_logged(self, network):
        network.post_status("bob@away.town", "x", WHEN)
        assert any(isinstance(a, Create) for a in network.activity_log)

    def test_boost_federates(self, network):
        network.follow("alice@home.social", "bob@away.town", WHEN)
        original = network.post_status("carol@away.town", "original", WHEN)
        boost = network.boost("bob@away.town", original, WHEN)
        assert boost.is_boost
        assert boost.reblog_of_id == original.status_id
        home = network.get_instance("home.social")
        assert "original" in [s.text for s in home.federated_timeline()]

    def test_record_login(self, network):
        network.record_login("bob@away.town", dt.date(2022, 10, 28))
        away = network.get_instance("away.town")
        assert sum(r.logins for r in away.weekly_activity()) == 1


class TestAccountMove:
    def prepare_move(self, network):
        """bob@away.town moves to bob@home.social; alice follows bob."""
        network.follow("alice@home.social", "bob@away.town", WHEN)
        network.follow("bob@away.town", "carol@away.town", WHEN)
        network.get_instance("home.social").register("bob", when=WHEN)
        return network.move_account(
            "bob@away.town", "bob@home.social", WHEN + dt.timedelta(days=1)
        )

    def test_move_sets_moved_to(self, network):
        self.prepare_move(network)
        old = network.get_instance("away.town").get_account("bob")
        assert old.moved_to == "bob@home.social"
        assert old.has_moved

    def test_followers_transferred(self, network):
        self.prepare_move(network)
        home = network.get_instance("home.social")
        assert "alice@home.social" in home.followers_of("bob@home.social")
        assert "bob@home.social" in home.following_of("alice@home.social")
        away = network.get_instance("away.town")
        assert away.followers_of("bob@away.town") == frozenset()

    def test_followees_reimported(self, network):
        self.prepare_move(network)
        home = network.get_instance("home.social")
        assert "carol@away.town" in home.following_of("bob@home.social")
        away = network.get_instance("away.town")
        assert "bob@home.social" in away.followers_of("carol@away.town")
        assert away.following_of("bob@away.town") == frozenset()

    def test_move_emits_activity(self, network):
        self.prepare_move(network)
        assert any(isinstance(a, Move) for a in network.activity_log)

    def test_double_move_rejected(self, network):
        self.prepare_move(network)
        network.get_instance("home.social").register("bob2", when=WHEN)
        with pytest.raises(FederationError):
            network.move_account("bob@away.town", "bob2@home.social", WHEN)

    def test_move_onto_self_rejected(self, network):
        with pytest.raises(FederationError):
            network.move_account("bob@away.town", "bob@away.town", WHEN)

    def test_follow_of_moved_account_rejected(self, network):
        self.prepare_move(network)
        home = network.get_instance("home.social")
        home.register("newbie", when=WHEN)
        with pytest.raises(FederationError):
            network.follow("newbie@home.social", "bob@away.town", WHEN)

    def test_new_statuses_flow_to_transferred_followers(self, network):
        self.prepare_move(network)
        network.post_status("bob@home.social", "back online", WHEN + dt.timedelta(days=2))
        home = network.get_instance("home.social")
        assert "back online" in [s.text for s in home.home_timeline("alice")]
