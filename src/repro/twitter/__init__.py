"""An in-memory Twitter service.

The substrate mirrors the surface area the paper's collection pipeline used:

- a user directory with profile metadata (bio, location, URL, pinned tweet),
  legacy verification and account states (active/suspended/deactivated/protected);
- a tweet store with client ``source`` attribution;
- a directed follower graph;
- a Search API with the query features Section 3.1 relies on (keyword
  phrases, hashtags, URL-domain matches, date windows) plus pagination;
- a Follows API behind a rate limiter whose budget forces the paper's
  10% followee subsample.
"""

from repro.errors import (
    NotFoundError,
    ProtectedAccountError,
    RateLimitExceeded,
    SuspendedAccountError,
    TwitterError,
)
from repro.twitter.api import TwitterAPI
from repro.twitter.clients import CROSSPOSTER_SOURCES, OFFICIAL_SOURCES, TweetSource
from repro.twitter.graph import FollowGraph
from repro.twitter.models import AccountState, Tweet, TwitterUser
from repro.twitter.ratelimit import RateLimiter
from repro.twitter.search import SearchQuery
from repro.twitter.store import TwitterStore

__all__ = [
    "TwitterAPI",
    "TweetSource",
    "OFFICIAL_SOURCES",
    "CROSSPOSTER_SOURCES",
    "TwitterError",
    "NotFoundError",
    "SuspendedAccountError",
    "ProtectedAccountError",
    "RateLimitExceeded",
    "FollowGraph",
    "AccountState",
    "Tweet",
    "TwitterUser",
    "RateLimiter",
    "SearchQuery",
    "TwitterStore",
]
