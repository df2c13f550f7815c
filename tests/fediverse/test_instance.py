"""Tests for repro.fediverse.instance (single-instance semantics)."""

import datetime as dt

import pytest

from repro.errors import AccountNotFoundError, DuplicateAccountError
from repro.fediverse.instance import MastodonInstance
from repro.fediverse.models import Status

WHEN = dt.datetime(2022, 10, 28, 12, 0)


@pytest.fixture
def instance():
    inst = MastodonInstance("example.social", topic="tech")
    inst.register("alice", when=WHEN)
    inst.register("bob", when=WHEN)
    return inst


class TestRegistration:
    def test_register_creates_account(self, instance):
        account = instance.get_account("alice")
        assert account.acct == "alice@example.social"
        assert account.domain == "example.social"

    def test_duplicate_username_rejected_case_insensitive(self, instance):
        with pytest.raises(DuplicateAccountError):
            instance.register("ALICE")

    def test_registration_counts_in_weekly_activity(self, instance):
        rows = instance.weekly_activity()
        assert sum(r.registrations for r in rows) == 2

    def test_missing_account(self, instance):
        with pytest.raises(AccountNotFoundError):
            instance.get_account("ghost")

    def test_user_count(self, instance):
        assert instance.user_count == 2
        assert instance.active_user_count() == 2

    def test_info(self, instance):
        info = instance.info()
        assert info.domain == "example.social"
        assert info.topic == "tech"


class TestLocalFollowsAndStatuses:
    def test_post_status_lands_on_local_timeline(self, instance):
        status = instance.post_status("alice", "hello world", WHEN)
        assert [s.status_id for s in instance.local_timeline()] == [status.status_id]

    def test_status_counts_in_weekly_activity(self, instance):
        instance.post_status("alice", "hello", WHEN)
        assert sum(r.statuses for r in instance.weekly_activity()) == 1

    def test_home_timeline_includes_own_and_followed(self, instance):
        instance.record_following("bob@example.social", "alice@example.social")
        instance.record_follower("alice@example.social", "bob@example.social")
        instance.post_status("alice", "from alice", WHEN)
        instance.post_status("bob", "from bob", WHEN)
        bob_home = [s.text for s in instance.home_timeline("bob")]
        assert bob_home == ["from alice", "from bob"]
        alice_home = [s.text for s in instance.home_timeline("alice")]
        assert alice_home == ["from alice"]

    def test_statuses_of_account(self, instance):
        instance.post_status("alice", "one", WHEN)
        instance.post_status("alice", "two", WHEN + dt.timedelta(minutes=1))
        texts = [s.text for s in instance.statuses_of("alice")]
        assert texts == ["one", "two"]
        assert instance.status_count("alice") == 2

    def test_last_status_at_updated(self, instance):
        instance.post_status("alice", "x", WHEN)
        assert instance.get_account("alice").last_status_at == WHEN

    def test_self_follow_rejected(self, instance):
        with pytest.raises(ValueError):
            instance.record_following("alice@example.social", "alice@example.social")

    def test_follow_bookkeeping(self, instance):
        assert instance.record_following("alice@example.social", "bob@example.social")
        assert not instance.record_following("alice@example.social", "bob@example.social")
        assert instance.following_of("alice@example.social") == {"bob@example.social"}

    def test_follow_requires_local_account(self, instance):
        with pytest.raises(AccountNotFoundError):
            instance.record_following("ghost@example.social", "bob@example.social")
        with pytest.raises(AccountNotFoundError):
            instance.record_following("alice@other.social", "bob@example.social")


class TestRemoteStatuses:
    def remote_status(self, sid: int = 900) -> Status:
        return Status(
            status_id=sid,
            account_acct="carol@far.away",
            created_at=WHEN,
            text="hello from afar",
        )

    def test_federated_timeline_receives_remote(self, instance):
        instance.receive_remote_status(self.remote_status())
        assert [s.account_acct for s in instance.federated_timeline()] == [
            "carol@far.away"
        ]

    def test_duplicate_remote_status_not_duplicated(self, instance):
        status = self.remote_status()
        instance.receive_remote_status(status)
        instance.receive_remote_status(status)
        assert len(instance.federated_timeline()) == 1

    def test_remote_status_reaches_local_followers_home(self, instance):
        instance.record_following("alice@example.social", "carol@far.away")
        instance.receive_remote_status(self.remote_status())
        assert [s.text for s in instance.home_timeline("alice")] == ["hello from afar"]
        assert instance.home_timeline("bob") == []

    def test_remote_follower_domains(self, instance):
        instance.record_follower("alice@example.social", "dan@other.place")
        instance.record_follower("alice@example.social", "bob@example.social")
        assert instance.remote_follower_domains("alice@example.social") == {
            "other.place"
        }


class TestActivityCounters:
    def test_record_login(self, instance):
        instance.record_login(dt.date(2022, 10, 28))
        rows = {r.week: r for r in instance.weekly_activity()}
        assert rows["2022-W43"].logins == 1

    def test_aggregate_activity(self, instance):
        instance.record_aggregate_activity(
            dt.date(2022, 11, 2), statuses=10, logins=5, registrations=2
        )
        rows = {r.week: r for r in instance.weekly_activity()}
        assert rows["2022-W44"].statuses == 10
        assert rows["2022-W44"].logins == 5
        assert rows["2022-W44"].registrations == 2

    def test_aggregate_activity_rejects_negative(self, instance):
        with pytest.raises(ValueError):
            instance.record_aggregate_activity(dt.date(2022, 11, 2), statuses=-1)

    def test_weeks_sorted(self, instance):
        instance.record_login(dt.date(2022, 11, 20))
        instance.record_login(dt.date(2022, 10, 3))
        weeks = [r.week for r in instance.weekly_activity()]
        assert weeks == sorted(weeks)
