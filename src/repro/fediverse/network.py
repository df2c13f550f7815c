"""The federated network: instance registry plus activity routing.

All cross-instance interactions flow through here, following the ActivityPub
subscription semantics the paper's Section 2 explains: a follow across
instances is a ``Follow``/``Accept`` exchange, after which the followee's
instance *pushes* each new status (``Create``) or boost (``Announce``) to
every subscribed instance, where it joins the federated timeline and local
followers' home timelines.
"""

from __future__ import annotations

import datetime as _dt
from collections.abc import Iterator

from repro.errors import FederationError, InstanceNotFoundError
from repro.fediverse.activitypub import (
    Accept,
    Activity,
    Announce,
    Create,
    Follow,
    Move,
    parse_acct,
)
from repro.fediverse.instance import MastodonInstance
from repro.fediverse.models import Account, Status


class FediverseNetwork:
    """Registry and router for a set of federated instances."""

    def __init__(self, keep_activity_log: bool = False) -> None:
        self._instances: dict[str, MastodonInstance] = {}
        self._keep_log = keep_activity_log
        self.activity_log: list[Activity] = []

    # -- registry ------------------------------------------------------------

    def create_instance(
        self,
        domain: str,
        title: str = "",
        topic: str = "general",
        created_at: _dt.date = _dt.date(2016, 10, 6),
        open_registrations: bool = True,
        software: str = "mastodon",
    ) -> MastodonInstance:
        """Register a new server; ``software`` picks the implementation.

        Mastodon and Pleroma servers interoperate through the same activity
        exchange — ActivityPub is the compatibility layer (paper, Section 2).
        """
        domain = domain.lower()
        if domain in self._instances:
            raise ValueError(f"instance {domain} already exists")
        if software == "mastodon":
            instance = MastodonInstance(
                domain,
                title=title,
                topic=topic,
                created_at=created_at,
                open_registrations=open_registrations,
            )
        elif software == "pleroma":
            from repro.fediverse.pleroma import PleromaInstance

            instance = PleromaInstance(
                domain,
                title=title,
                topic=topic,
                created_at=created_at,
                open_registrations=open_registrations,
            )
        else:
            raise ValueError(f"unknown fediverse software {software!r}")
        self._instances[domain] = instance
        return instance

    def get_instance(self, domain: str) -> MastodonInstance:
        try:
            return self._instances[domain.lower()]
        except KeyError:
            raise InstanceNotFoundError(f"no instance at {domain}") from None

    def has_instance(self, domain: str) -> bool:
        return domain.lower() in self._instances

    def instances(self) -> Iterator[MastodonInstance]:
        return iter(self._instances.values())

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    def resolve(self, acct: str) -> tuple[MastodonInstance, Account]:
        """Webfinger-style resolution of ``user@domain``."""
        username, domain = parse_acct(acct)
        instance = self.get_instance(domain)
        return instance, instance.get_account(username)

    # -- federation ----------------------------------------------------------

    def follow(self, follower_acct: str, target_acct: str, when: _dt.datetime) -> bool:
        """Make ``follower_acct`` follow ``target_acct``.

        Local follows are recorded directly; cross-instance follows run the
        Follow/Accept exchange.  Returns False when the edge already existed.
        """
        follower_instance, follower = self.resolve(follower_acct)
        target_instance, target = self.resolve(target_acct)
        if target.has_moved:
            raise FederationError(f"{target_acct} has moved to {target.moved_to}")
        # defederation severs the relationship in both directions
        if target_instance.domain in follower_instance.policy.blocked_domains:
            raise FederationError(
                f"{follower_instance.domain} defederated {target_instance.domain}"
            )
        if follower_instance.domain in target_instance.policy.blocked_domains:
            raise FederationError(
                f"{target_instance.domain} defederated {follower_instance.domain}"
            )
        added = follower_instance.record_following(follower.acct, target.acct)
        if not added:
            return False
        if self._keep_log:  # skip the Activity construction too, not just the append
            self._log(Follow(actor=follower.acct, published=when, target=target.acct))
        target_instance.record_follower(target.acct, follower.acct)
        if self._keep_log:
            self._log(Accept(actor=target.acct, published=when, follower=follower.acct))
        return True

    def unfollow(self, follower_acct: str, target_acct: str) -> None:
        follower_instance, follower = self.resolve(follower_acct)
        target_instance, target = self.resolve(target_acct)
        follower_instance.drop_following(follower.acct, target.acct)
        target_instance.drop_follower(target.acct, follower.acct)

    def post_status(
        self,
        acct: str,
        text: str,
        when: _dt.datetime,
        application: str = "Web",
    ) -> Status:
        """Publish a status and push it to every subscribed remote instance."""
        instance, account = self.resolve(acct)
        status = instance.post_status(
            account.username, text, when, application=application
        )
        self._log(Create(actor=account.acct, published=when, status_id=status.status_id))
        self._federate(instance, account.acct, status)
        return status

    def boost(self, acct: str, original: Status, when: _dt.datetime) -> Status:
        """Boost (reblog) an existing status."""
        instance, account = self.resolve(acct)
        boost = instance.post_status(
            account.username,
            text=original.text,
            when=when,
            application="Web",
            reblog_of_id=original.status_id,
        )
        __, origin_domain = parse_acct(original.account_acct)
        self._log(
            Announce(
                actor=account.acct,
                published=when,
                status_id=original.status_id,
                origin_domain=origin_domain,
            )
        )
        self._federate(instance, account.acct, boost)
        return boost

    def record_login(self, acct: str, day: _dt.date) -> None:
        instance, __ = self.resolve(acct)
        instance.record_login(day)

    # -- account migration (instance switching) -------------------------------

    def move_account(
        self, old_acct: str, new_acct: str, when: _dt.datetime
    ) -> Account:
        """Run Mastodon's account migration from ``old_acct`` to ``new_acct``.

        The new account must already exist (Mastodon requires creating it and
        setting an alias first).  The Move activity makes every follower's
        instance transparently re-follow the new account, and the mover's
        followee list is re-imported, mirroring the real migration flow.
        """
        old_instance, old_account = self.resolve(old_acct)
        new_instance, new_account = self.resolve(new_acct)
        if old_account.acct == new_account.acct:
            raise FederationError("cannot move an account onto itself")
        if old_account.has_moved:
            raise FederationError(f"{old_acct} has already moved")
        old_account.moved_to = new_account.acct
        self._log(Move(actor=old_account.acct, published=when, target=new_account.acct))

        # Followers' instances re-follow the new account.
        for follower_acct in old_instance.followers_of(old_account.acct):
            follower_instance, follower = self.resolve(follower_acct)
            follower_instance.drop_following(follower.acct, old_account.acct)
            if follower.acct != new_account.acct:
                follower_instance.record_following(follower.acct, new_account.acct)
                new_instance.record_follower(new_account.acct, follower.acct)
            old_instance.drop_follower(old_account.acct, follower.acct)

        # The mover re-imports their followee list on the new instance.
        for target_acct in old_instance.following_of(old_account.acct):
            if target_acct == new_account.acct:
                continue
            target_instance, target = self.resolve(target_acct)
            new_instance.record_following(new_account.acct, target.acct)
            target_instance.record_follower(target.acct, new_account.acct)
            target_instance.drop_follower(target.acct, old_account.acct)
            old_instance.drop_following(old_account.acct, target.acct)
        return new_account

    def federate_statuses(
        self,
        origin: MastodonInstance,
        author_acct: str,
        statuses: list[Status],
    ) -> None:
        """Push a batch of one author's statuses to every subscriber.

        Equivalent to federating each status as it is posted: deliveries
        are independent per subscriber instance, and each subscriber still
        receives the author's statuses in chronological order — only the
        subscriber lookup is hoisted out of the per-status loop.
        """
        instances = self._instances
        for domain in origin._remote_domains[author_acct]:
            subscriber = instances.get(domain)
            if subscriber is not None:
                subscriber.receive_remote_statuses(author_acct, statuses)

    # -- internals -------------------------------------------------------------

    def _federate(
        self, origin: MastodonInstance, author_acct: str, status: Status
    ) -> None:
        # reads the incremental domain counts directly (one delivery per
        # posted status) instead of copying them into a set per call
        instances = self._instances
        for domain in origin._remote_domains[author_acct]:
            subscriber = instances.get(domain)
            if subscriber is not None:
                subscriber.receive_remote_status(status)

    def _log(self, activity: Activity) -> None:
        if self._keep_log:
            self.activity_log.append(activity)
