"""A multi-instance Mastodon network.

The substrate implements the Mastodon semantics described in Section 2 of
the paper:

- independent **instances** where users register local accounts and post
  statuses / boosts;
- **federation**: a local account can follow a remote account, implemented as
  an ActivityPub-style ``Follow``/``Accept`` exchange after which the remote
  instance pushes ``Create``/``Announce`` activities to the subscriber;
- three **timelines** per user: home, local and federated (the federated
  timeline is the union of remote statuses retrieved by *all* local users);
- account **migration** between instances (the ``Move`` activity), which the
  paper analyses as "instance switching" (Section 5.3);
- per-instance client APIs (account statuses, following, weekly activity)
  with downtime injection, plus an ``instances.social``-style directory.
"""

from repro.errors import (
    AccountNotFoundError,
    FediverseError,
    InstanceDownError,
    InstanceNotFoundError,
)
from repro.fediverse.activitypub import (
    Accept,
    Activity,
    Announce,
    Create,
    Follow,
    Move,
    parse_acct,
)
from repro.fediverse.api import MastodonClient
from repro.fediverse.directory import InstanceDirectory
from repro.fediverse.instance import MastodonInstance
from repro.fediverse.models import Account, InstanceInfo, Status
from repro.fediverse.network import FediverseNetwork
from repro.fediverse.pleroma import PleromaInstance
from repro.fediverse.policy import ContentPolicy

__all__ = [
    "Activity",
    "Follow",
    "Accept",
    "Create",
    "Announce",
    "Move",
    "parse_acct",
    "MastodonClient",
    "InstanceDirectory",
    "FediverseError",
    "InstanceDownError",
    "InstanceNotFoundError",
    "AccountNotFoundError",
    "MastodonInstance",
    "Account",
    "Status",
    "InstanceInfo",
    "FediverseNetwork",
    "ContentPolicy",
    "PleromaInstance",
]
