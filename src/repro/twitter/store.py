"""In-memory storage and indexes backing the simulated Twitter APIs."""

from __future__ import annotations

import bisect
import datetime as _dt
from collections.abc import Iterable, Iterator

from repro.errors import NotFoundError
from repro.twitter.index import TweetIndex
from repro.twitter.models import Tweet, TwitterUser


class TwitterStore:
    """Users, tweets and the indexes the Search API needs.

    Tweets are kept in a single id-ordered list (snowflake ids sort
    chronologically) plus a per-author index and the full-archive inverted
    indexes of :class:`~repro.twitter.index.TweetIndex`.  The id list keeps
    an *appended-run* invariant: ids arrive near-chronologically, appends
    that break ordering mark the list dirty and it is re-sorted lazily on
    first read — O(n log n) for a bulk load instead of the O(n²) memmove
    cost of per-insert ``bisect.insort``.
    """

    def __init__(self) -> None:
        self._users_by_id: dict[int, TwitterUser] = {}
        self._users_by_username: dict[str, int] = {}
        self._tweets_by_id: dict[int, Tweet] = {}
        self._tweet_ids: list[int] = []
        self._tweet_ids_dirty = False
        self._tweets_by_author: dict[int, list[int]] = {}
        self._index = TweetIndex()

    # -- users ------------------------------------------------------------

    def add_user(self, user: TwitterUser) -> None:
        if user.user_id in self._users_by_id:
            raise ValueError(f"duplicate user id {user.user_id}")
        key = user.username.lower()
        if key in self._users_by_username:
            raise ValueError(f"duplicate username {user.username!r}")
        self._users_by_id[user.user_id] = user
        self._users_by_username[key] = user.user_id

    def get_user(self, user_id: int) -> TwitterUser:
        try:
            return self._users_by_id[user_id]
        except KeyError:
            raise NotFoundError(f"no such user id {user_id}") from None

    def get_user_by_username(self, username: str) -> TwitterUser:
        try:
            return self._users_by_id[self._users_by_username[username.lower()]]
        except KeyError:
            raise NotFoundError(f"no such username {username!r}") from None

    def users(self) -> Iterator[TwitterUser]:
        return iter(self._users_by_id.values())

    @property
    def user_count(self) -> int:
        return len(self._users_by_id)

    # -- tweets -----------------------------------------------------------

    def add_tweet(self, tweet: Tweet) -> None:
        if tweet.tweet_id in self._tweets_by_id:
            raise ValueError(f"duplicate tweet id {tweet.tweet_id}")
        if tweet.author_id not in self._users_by_id:
            raise NotFoundError(f"tweet author {tweet.author_id} is not a known user")
        self._tweets_by_id[tweet.tweet_id] = tweet
        ids = self._tweet_ids
        ids.append(tweet.tweet_id)
        if len(ids) > 1 and ids[-2] > tweet.tweet_id:
            self._tweet_ids_dirty = True
        by_author = self._tweets_by_author.setdefault(tweet.author_id, [])
        # per-author ids arrive mostly in order; keep the list sorted on
        # insert so reads never re-sort
        if by_author and by_author[-1] > tweet.tweet_id:
            bisect.insort(by_author, tweet.tweet_id)
        else:
            by_author.append(tweet.tweet_id)
        self._index.add(tweet)

    def get_tweet(self, tweet_id: int) -> Tweet:
        try:
            return self._tweets_by_id[tweet_id]
        except KeyError:
            raise NotFoundError(f"no such tweet id {tweet_id}") from None

    def tweets(self) -> Iterator[Tweet]:
        """All tweets in chronological (id) order."""
        for tweet_id in self.tweet_ids_sorted:
            yield self._tweets_by_id[tweet_id]

    @property
    def tweet_ids_sorted(self) -> list[int]:
        """Chronologically sorted tweet ids (the Search API's scan order)."""
        if self._tweet_ids_dirty:
            self._tweet_ids.sort()
            self._tweet_ids_dirty = False
        return self._tweet_ids

    @property
    def index(self) -> TweetIndex:
        """The full-archive inverted indexes (maintained incrementally)."""
        return self._index

    def tweets_by_author(self, author_id: int) -> list[Tweet]:
        """An author's tweets in chronological order."""
        ids = self._tweets_by_author.get(author_id, [])
        return [self._tweets_by_id[i] for i in ids]

    def tweets_by_author_window(
        self, author_id: int, since: _dt.date, until: _dt.date
    ) -> list[Tweet]:
        """An author's tweets with ``since <= created_date <= until``.

        Ids sort chronologically (the snowflake contract), so the
        id-sorted per-author list is also date-sorted and the inclusive
        window bisects to a slice — the timeline API answers a one-day
        suffix window without materialising the author's full history.
        """
        ids = self._tweets_by_author.get(author_id, [])
        key = lambda i: self._tweets_by_id[i].created_date  # noqa: E731
        lo = bisect.bisect_left(ids, since, key=key)
        hi = bisect.bisect_right(ids, until, key=key)
        return [self._tweets_by_id[i] for i in ids[lo:hi]]

    def author_tweet_ids(self, author_id: int) -> list[int]:
        """An author's tweet ids in chronological order (a copy)."""
        return list(self._tweets_by_author.get(author_id, ()))

    @property
    def tweet_count(self) -> int:
        return len(self._tweets_by_id)

    def extend_tweets(self, tweets: Iterable[Tweet]) -> None:
        """Bulk insertion; the sorted-order invariant is restored lazily
        once afterwards rather than per tweet."""
        for tweet in tweets:
            self.add_tweet(tweet)

    def add_author_tweets(
        self,
        author_id: int,
        tweets: list[Tweet],
        token_sets: list[frozenset[str] | None] | None = None,
    ) -> None:
        """Bulk-insert one author's tweets (the materialiser's write path).

        Validates the author once and hoists the per-tweet attribute hops
        of :meth:`add_tweet`; state after the call is identical to adding
        each tweet individually.  ``token_sets[i]``, when not ``None``, is
        the precomputed token set handed to
        :meth:`TweetIndex.add_precomputed` (same exactness contract);
        ``None`` entries take the regex path.
        """
        if author_id not in self._users_by_id:
            raise NotFoundError(f"tweet author {author_id} is not a known user")
        by_id = self._tweets_by_id
        ids_append = self._tweet_ids.append
        by_author = self._tweets_by_author.setdefault(author_id, [])
        author_append = by_author.append
        last = by_author[-1] if by_author else -1
        for tweet in tweets:
            tweet_id = tweet.tweet_id
            if tweet_id in by_id:
                raise ValueError(f"duplicate tweet id {tweet_id}")
            by_id[tweet_id] = tweet
            ids_append(tweet_id)
            if tweet_id > last:
                author_append(tweet_id)
                last = tweet_id
            else:
                bisect.insort(by_author, tweet_id)
        if tweets:
            # over-marking is safe: the lazy sort of an already-sorted id
            # list is timsort's O(n) fast path
            self._tweet_ids_dirty = True
        self._index.add_many(tweets, token_sets)
