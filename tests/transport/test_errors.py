"""Tests for the unified error surface (repro.errors) and its re-exports."""

import pytest

import repro.errors as errors
import repro.fediverse as fediverse
import repro.twitter as twitter


class TestRetriableSurface:
    def test_base_is_not_retriable(self):
        assert errors.ReproError.retriable is False
        assert errors.ReproError.retry_after is None

    @pytest.mark.parametrize(
        "cls",
        [
            errors.ConfigError,
            errors.CollectionError,
            errors.TwitterError,
            errors.NotFoundError,
            errors.SuspendedAccountError,
            errors.ProtectedAccountError,
            errors.FediverseError,
            errors.InstanceNotFoundError,
            errors.AccountNotFoundError,
            errors.DuplicateAccountError,
            errors.FederationError,
        ],
    )
    def test_permanent_outcomes_are_not_retriable(self, cls):
        assert cls.retriable is False

    @pytest.mark.parametrize(
        "cls",
        [
            errors.TransientError,
            errors.RequestTimeout,
            errors.ServerError,
            errors.TruncatedPageError,
            errors.RateLimitExceeded,
            errors.InstanceDownError,
        ],
    )
    def test_transient_outcomes_are_retriable(self, cls):
        assert cls.retriable is True

    def test_circuit_open_fails_fast(self):
        # A breaker trip is InstanceDownError for the coverage buckets but
        # must NOT be retried — that would defeat the fast-fail.
        assert issubclass(errors.CircuitOpenError, errors.InstanceDownError)
        assert errors.CircuitOpenError.retriable is False


class TestRetryAfter:
    def test_transient_carries_optional_retry_after(self):
        assert errors.RequestTimeout("slow").retry_after is None
        assert errors.ServerError("5xx", retry_after=30.0).retry_after == 30.0

    def test_rate_limit_carries_window_reset(self):
        err = errors.RateLimitExceeded("search", 42.0)
        assert err.retry_after == 42.0
        assert err.endpoint == "search"

    def test_instance_down_carries_optional_outage_window(self):
        assert errors.InstanceDownError("a.net").retry_after is None
        err = errors.InstanceDownError("a.net", retry_after=90.0)
        assert err.retry_after == 90.0

    def test_circuit_open_message_names_domain(self):
        assert "a.net" in str(errors.CircuitOpenError("a.net"))


class TestShims:
    """The subsystem packages re-export their branch of the hierarchy."""

    @pytest.mark.parametrize(
        "name",
        [
            "TwitterError",
            "NotFoundError",
            "SuspendedAccountError",
            "ProtectedAccountError",
            "RateLimitExceeded",
        ],
    )
    def test_twitter_shim_identity(self, name):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.TwitterError)
        assert getattr(twitter, name) is cls

    @pytest.mark.parametrize(
        "name",
        [
            "FediverseError",
            "InstanceNotFoundError",
            "InstanceDownError",
            "CircuitOpenError",
            "AccountNotFoundError",
            "DuplicateAccountError",
            "FederationError",
        ],
    )
    def test_fediverse_shim_identity(self, name):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.FediverseError)
        # the package re-exports the common ones; any it does must be these
        assert getattr(fediverse, name, cls) is cls

    def test_everything_reexported_is_a_repro_error(self):
        for name in errors.__all__:
            obj = getattr(errors, name)
            assert issubclass(obj, errors.ReproError)
