"""Tests for repro.twitter.store."""

import datetime as dt

import pytest

from repro.errors import NotFoundError
from repro.twitter.models import Tweet, TwitterUser
from repro.twitter.store import TwitterStore


def user(uid: int, username: str) -> TwitterUser:
    return TwitterUser(
        user_id=uid,
        username=username,
        display_name=username.title(),
        created_at=dt.datetime(2015, 1, 1),
    )


def tweet(tid: int, author: int, text: str = "hello") -> Tweet:
    return Tweet(
        tweet_id=tid,
        author_id=author,
        created_at=dt.datetime(2022, 10, 28, 12, 0),
        text=text,
        source="Twitter Web App",
    )


class TestUsers:
    def test_add_and_get(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        assert store.get_user(1).username == "alice"
        assert store.get_user_by_username("ALICE").user_id == 1

    def test_duplicate_id_rejected(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        with pytest.raises(ValueError):
            store.add_user(user(1, "bob"))

    def test_duplicate_username_rejected_case_insensitive(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        with pytest.raises(ValueError):
            store.add_user(user(2, "Alice"))

    def test_missing_user(self):
        store = TwitterStore()
        with pytest.raises(NotFoundError):
            store.get_user(404)
        with pytest.raises(NotFoundError):
            store.get_user_by_username("ghost")

    def test_counts_and_iteration(self):
        store = TwitterStore()
        store.add_user(user(1, "a"))
        store.add_user(user(2, "b"))
        assert store.user_count == 2
        assert {u.user_id for u in store.users()} == {1, 2}


class TestTweets:
    def test_add_requires_known_author(self):
        store = TwitterStore()
        with pytest.raises(NotFoundError):
            store.add_tweet(tweet(1, author=99))

    def test_duplicate_tweet_id_rejected(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        store.add_tweet(tweet(5, 1))
        with pytest.raises(ValueError):
            store.add_tweet(tweet(5, 1))

    def test_tweets_iterate_in_id_order(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        for tid in (30, 10, 20):
            store.add_tweet(tweet(tid, 1))
        assert [t.tweet_id for t in store.tweets()] == [10, 20, 30]
        assert store.tweet_ids_sorted == [10, 20, 30]

    def test_tweets_by_author_chronological(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        store.add_user(user(2, "bob"))
        store.add_tweet(tweet(3, 1))
        store.add_tweet(tweet(1, 2))
        store.add_tweet(tweet(2, 1))
        assert [t.tweet_id for t in store.tweets_by_author(1)] == [2, 3]

    def test_get_tweet(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        store.add_tweet(tweet(5, 1, "text"))
        assert store.get_tweet(5).text == "text"
        with pytest.raises(NotFoundError):
            store.get_tweet(6)

    def test_extend_tweets(self):
        store = TwitterStore()
        store.add_user(user(1, "alice"))
        store.extend_tweets([tweet(1, 1), tweet(2, 1)])
        assert store.tweet_count == 2
