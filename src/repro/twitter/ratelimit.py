"""Request accounting for the simulated Twitter APIs.

The paper's followee crawl was constrained by the Follows API rate limit
(15 requests / 15 minutes per app at the time), which is why only a 10%
subsample of migrated users could be crawled (Section 3.3).  The simulator
reproduces that constraint as a *request budget*: each endpoint has a
per-window quota, the limiter tracks virtual time, and a crawl that would
exceed the total budget available in the study window must sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import RateLimitExceeded


@dataclass
class EndpointLimit:
    """Quota for one endpoint: ``requests`` per ``window_seconds``."""

    requests: int
    window_seconds: int

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("quota must allow at least one request")
        if self.window_seconds < 1:
            raise ValueError("window must be at least one second")


#: Historical quotas for the endpoints the pipeline uses.
DEFAULT_LIMITS: dict[str, EndpointLimit] = {
    "search": EndpointLimit(requests=300, window_seconds=900),
    "following": EndpointLimit(requests=15, window_seconds=900),
    "users": EndpointLimit(requests=900, window_seconds=900),
}


@dataclass
class _WindowState:
    window_start: int = 0
    used: int = 0


class RateLimiter:
    """Sliding-window request limiter over virtual time.

    ``clock_seconds`` is virtual: callers either let :meth:`acquire` raise
    :class:`RateLimitExceeded` and advance time themselves, or call
    :meth:`acquire` with ``wait=True`` to auto-advance to the next window
    (accumulating :attr:`waited_seconds`, the crawl's simulated wall time).
    """

    def __init__(self, limits: dict[str, EndpointLimit] | None = None) -> None:
        self._limits = dict(DEFAULT_LIMITS if limits is None else limits)
        self._state: dict[str, _WindowState] = {}
        self.clock_seconds = 0
        self.waited_seconds = 0
        self.request_counts: dict[str, int] = {}

    def limit_for(self, endpoint: str) -> EndpointLimit:
        try:
            return self._limits[endpoint]
        except KeyError:
            raise KeyError(f"unknown endpoint {endpoint!r}") from None

    def advance(self, seconds: int) -> None:
        """Move virtual time forward."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self.clock_seconds += seconds

    def acquire(self, endpoint: str, wait: bool = False) -> None:
        """Consume one request from ``endpoint``'s current window.

        With ``wait=False`` a depleted window raises :class:`RateLimitExceeded`
        carrying the seconds until reset.  With ``wait=True`` virtual time
        jumps to the next window instead and the wait is recorded.
        """
        registry = obs.current()
        limit = self.limit_for(endpoint)
        state = self._state.setdefault(endpoint, _WindowState())
        if self.clock_seconds - state.window_start >= limit.window_seconds:
            state.window_start = self.clock_seconds
            state.used = 0
            registry.counter(
                "twitter.ratelimit.window_rollovers", endpoint=endpoint
            ).inc()
        if state.used >= limit.requests:
            retry_after = state.window_start + limit.window_seconds - self.clock_seconds
            if not wait:
                raise RateLimitExceeded(endpoint, retry_after)
            self.advance(retry_after)
            self.waited_seconds += retry_after
            state.window_start = self.clock_seconds
            state.used = 0
            registry.counter(
                "twitter.ratelimit.wait_seconds", endpoint=endpoint
            ).inc(retry_after)
            registry.counter(
                "twitter.ratelimit.window_rollovers", endpoint=endpoint
            ).inc()
        state.used += 1
        self.request_counts[endpoint] = self.request_counts.get(endpoint, 0) + 1
        registry.counter("twitter.ratelimit.requests", endpoint=endpoint).inc()

    def max_requests_within(self, endpoint: str, seconds: int) -> int:
        """How many requests the quota allows inside ``seconds`` of wall time.

        This is what a crawler uses to size a sample before starting: e.g.
        the following endpoint allows 15 requests / 900s, so a 14-day crawl
        supports at most ``15 * (14*86400 / 900)`` requests.
        """
        limit = self.limit_for(endpoint)
        windows = max(1, seconds // limit.window_seconds)
        return limit.requests * windows
