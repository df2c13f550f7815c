"""The unified exception hierarchy of the ``repro`` package.

Every error raised by this package derives from :class:`ReproError`, so a
caller can catch everything with a single ``except`` clause.  The subsystem
branches (:class:`TwitterError`, :class:`FediverseError`) live here too;
the :mod:`repro.twitter` and :mod:`repro.fediverse` packages re-export their
own branch.

Two attributes unify the *retry* surface across subsystems:

- :attr:`ReproError.retriable` — whether the failure is transient and a
  resilient caller (see :class:`repro.transport.ClientTransport`) may retry
  the call.  Permanent outcomes — a suspended account, a protected timeline,
  an unknown instance — are ``retriable = False`` and must surface to the
  crawler's coverage accounting instead.
- :attr:`ReproError.retry_after` — when the failing side knows its own
  schedule (a rate-limit window reset, an instance flap with a published
  outage window), the seconds of *virtual* time until the call is worth
  repeating.  ``None`` means "unknown; use backoff".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Whether a resilient caller may retry the failed call.
    retriable: bool = False
    #: Virtual seconds until a retry can succeed, when the failure knows.
    retry_after: float | None = None


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The world simulator was driven into an invalid state."""


class CollectionError(ReproError):
    """The data-collection pipeline failed in an unrecoverable way."""


class ResumeError(CollectionError):
    """A resume/advance was refused before touching any data.

    Raised when a crawl cursor or checkpoint does not match the snapshot it
    is asked to extend: format-version or world-stamp mismatch, a config
    digest that differs in a determinism-relevant knob, a clock that does
    not move forward, or an active fault plan on the incremental path.
    Refusing loudly beats silently appending onto the wrong dataset.
    """


class AnalysisError(ReproError):
    """An analysis was asked to operate on unusable inputs."""


# -- transient failures (the fault plane's injectables) ------------------------


class TransientError(ReproError):
    """A failure that a retry can plausibly recover from.

    This is what the fault plane (:mod:`repro.faults`) injects to model the
    timeouts, 5xx responses and truncated payloads a real crawl eats daily.
    """

    retriable = True

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestTimeout(TransientError):
    """The (simulated) request timed out before a response arrived."""


class ServerError(TransientError):
    """The (simulated) server answered with a 5xx-style failure."""


class TruncatedPageError(TransientError):
    """A paginated response arrived incomplete; refetch the page."""


# -- Twitter ------------------------------------------------------------------


class TwitterError(ReproError):
    """Base class for Twitter API errors."""


class NotFoundError(TwitterError):
    """The user or tweet does not exist (deleted/deactivated accounts)."""


class SuspendedAccountError(TwitterError):
    """The account was suspended by the platform."""


class ProtectedAccountError(TwitterError):
    """The account's tweets are protected and invisible to the crawler."""


class RateLimitExceeded(TwitterError):
    """The caller exhausted its request budget for an endpoint window."""

    retriable = True

    def __init__(self, endpoint: str, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded for {endpoint}; retry after {retry_after}s"
        )
        self.endpoint = endpoint
        self.retry_after = retry_after


# -- Fediverse ----------------------------------------------------------------


class FediverseError(ReproError):
    """Base class for fediverse errors."""


class InstanceNotFoundError(FediverseError):
    """No instance is registered under the given domain."""


class InstanceDownError(FediverseError):
    """The instance is unreachable (the 11.58% crawl failures of §3.2).

    Unreachability is *presumed transient* — real instances flap under load
    and come back — so the error is retriable; only retry exhaustion makes
    the outage permanent from the crawler's point of view.  When the outage
    has a known end (an injected flap), ``retry_after`` carries the virtual
    seconds until the instance is back.
    """

    retriable = True

    def __init__(self, domain: str, retry_after: float | None = None) -> None:
        super().__init__(f"instance {domain} is down")
        self.domain = domain
        self.retry_after = retry_after


class CircuitOpenError(InstanceDownError):
    """The caller's circuit breaker is open for this domain (fail-fast).

    Subclasses :class:`InstanceDownError` so existing coverage accounting
    treats a tripped breaker exactly like an unreachable instance, but it is
    *not* retriable: the breaker already decided the domain is not worth
    hammering until its recovery window elapses.
    """

    retriable = False

    def __init__(self, domain: str, retry_after: float | None = None) -> None:
        super().__init__(domain, retry_after=retry_after)
        # Overwrite the base message with the breaker-specific one.
        self.args = (f"circuit open for {domain}",)


class AccountNotFoundError(FediverseError):
    """No account with the given username exists on the instance."""


class DuplicateAccountError(FediverseError):
    """The username is already taken on the instance."""


class FederationError(FediverseError):
    """An activity could not be delivered or processed."""


__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "CollectionError",
    "ResumeError",
    "AnalysisError",
    "TransientError",
    "RequestTimeout",
    "ServerError",
    "TruncatedPageError",
    "TwitterError",
    "NotFoundError",
    "SuspendedAccountError",
    "ProtectedAccountError",
    "RateLimitExceeded",
    "FediverseError",
    "InstanceNotFoundError",
    "InstanceDownError",
    "CircuitOpenError",
    "AccountNotFoundError",
    "DuplicateAccountError",
    "FederationError",
]
