"""Sharded, columnar content materialisation.

The old world generated every migrant's timeline with one scalar RNG call
per draw, one object per post, in one serial loop.  This module splits the
phase at the dataset boundary:

**Stage A — plan (sharded, pure).**  :func:`plan_shard` and
:func:`chatter_shard` run on :func:`repro.parallel.map_world_stage`
shards with per-(stage, shard) derived seeds.  Each shard batches every
draw per *column* (per-day poisson counts, topic indices, toxicity and
decision uniforms) via :mod:`repro.util.rngcompat`-style vector kernels,
generates all post texts per (platform, topic) group through
:meth:`PostGenerator.generate_batch`, and returns post accumulator columns
(:class:`repro.simulation.state.AgentPlan`).  Shards only *read* the world
— the payload is a pure function of (world, stage, shard, seed), which is
what makes the result independent of the shard execution order.

**Stage B — apply (serial, at the dataset boundary).**  :func:`apply_plans`
walks the payloads in shard order (= canonical migration order) and only
then creates ``Tweet``/``Status`` objects: bulk tweet insertion with
precomputed token sets, bulk per-instance status posting, bulk federation
fan-out, and boost-slot resolution against the already-materialised
statuses of earlier migrants (its own serial ``"boosts"`` stream).

Draw-order contract changes vs. the scalar loop are documented in
DESIGN.md §5; the seed-7 goldens were re-recorded accordingly.
"""

from __future__ import annotations

import datetime as _dt
import time

import numpy as np

from repro.nlp.generator import PostGenerator
from repro.simulation.behavior import (
    CROSSPOSTER_SHUTOFF,
    chatter_volume_multiplier,
    crossposter_success_rates,
    mastodon_daily_rates,
    paraphrase,
    twitter_daily_rates,
)
from repro.simulation.state import (
    STATUS_BOOST_SLOT,
    STATUS_CROSSPOST,
    STATUS_GENERATED,
    STATUS_PARAPHRASE,
    AgentPlan,
    ChatterPlan,
)
from repro.twitter.models import Tweet
from repro.util.clock import date_range
from repro.util.ids import SNOWFLAKE_EPOCH
from repro.util.rngcompat import build_cdf

_TIME_8 = _dt.time(8, 0)
_TIME_9 = _dt.time(9, 0)
_FEDIVERSE_SPIKE_STEADY_DAYS = 21

#: materialisation heartbeat cadence (one event per this many migrants)
HEARTBEAT_EVERY = 256

_EMPTY_I32 = np.zeros(0, dtype=np.int32)


def _searchsorted_rows(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-row ``searchsorted(cdf, u, side="right")`` over a cdf matrix."""
    idx = (cdfs <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdfs.shape[1] - 1)


def _day_seqs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(day_index, within_day_seq)`` rows for per-day post counts."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I32, _EMPTY_I32
    day_idx = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    seq = np.arange(total, dtype=np.int32) - np.repeat(starts, counts).astype(np.int32)
    return day_idx, seq


# -- stage A: planning shards --------------------------------------------------


def plan_shard(world, ctx, items: list[int]) -> list[AgentPlan]:
    """Stage A for one shard of migrants (read-only against the world)."""
    rng = ctx.rng()
    generator = PostGenerator(rng, vocabulary=world._generator.vocabulary)
    config = world.config
    day_nums = np.arange((config.end - config.start).days + 1)
    shutoff_idx = (CROSSPOSTER_SHUTOFF - config.start).days
    bridge_ok = crossposter_success_rates(shutoff_idx, day_nums)
    n_topics = len(generator.vocabulary.topics)

    #: (platform, topic index) -> list of (sink, positions, toxic-slice)
    buckets: dict[tuple[int, int], list[tuple]] = {}

    def request(platform: int, topic_idx: np.ndarray, toxic: np.ndarray, sink: list):
        # group one agent's rows by topic (ascending positions within each
        # group, so the fill order below is deterministic)
        order = np.argsort(topic_idx, kind="stable")
        sorted_topics = topic_idx[order]
        boundaries = np.flatnonzero(np.diff(sorted_topics)) + 1
        for group in np.split(order, boundaries):
            key = (platform, int(topic_idx[group[0]]))
            buckets.setdefault(key, []).append((sink, group, toxic[group]))

    pending = []
    for uid in items:
        agent = world.agents[uid]
        mig_idx = (agent.migration_day - config.start).days
        twitter_cdf = build_cdf(agent.topic_mixture)

        # -- per-day counts, one poisson batch per platform ----------------
        n_tw = rng.poisson(twitter_daily_rates(agent.tweet_rate, mig_idx, day_nums))
        n_ms = rng.poisson(mastodon_daily_rates(agent.status_rate, mig_idx, day_nums))

        # -- announcement / bio --------------------------------------------
        announce = agent.announce_via == "tweet" or bool(rng.random() < 0.8)
        announce_text = None
        if announce:
            announce_text = generator.migration_announcement(
                agent.first_acct, agent.announce_style
            )
        bio_text = None
        if agent.announce_via == "bio":
            topic = generator.vocabulary.topic(agent.main_topic)
            bio_text = generator.profile_bio(topic, mastodon_handle=agent.first_acct)

        # -- tweet rows -----------------------------------------------------
        tw_day, tw_seq = _day_seqs(n_tw)
        total_tw = len(tw_day)
        if total_tw:
            tw_topic = np.minimum(
                twitter_cdf.searchsorted(rng.random(total_tw), side="right"),
                n_topics - 1,
            )
            tw_toxic = rng.random(total_tw) < agent.toxicity_twitter
        else:
            tw_topic = _EMPTY_I32
            tw_toxic = np.zeros(0, dtype=bool)
        tw_source = [agent.preferred_source] * total_tw
        if agent.crossposter is not None and agent.pre_takeover_account and total_tw:
            pre = np.flatnonzero(tw_day < mig_idx)
            if len(pre):
                hit = pre[rng.random(len(pre)) < 0.05]
                for row in hit:
                    tw_source[int(row)] = agent.crossposter
        tw_text: list = [None] * total_tw
        tw_tokens: list = [None] * total_tw
        tw_tags: list = [()] * total_tw
        tw_sink = [tw_text, tw_tokens, tw_tags]
        if total_tw:
            request(0, tw_topic, tw_toxic, tw_sink)

        # -- status rows ----------------------------------------------------
        ms_day, ms_seq = _day_seqs(n_ms)
        total_ms = len(ms_day)
        kind = np.full(total_ms, STATUS_GENERATED, dtype=np.int8)
        if total_ms:
            # crosspost decisions (mirror uniform, then post-shutoff decay)
            if agent.crossposter is not None:
                u_mirror = rng.random(total_ms) < config.crosspost_mirror_rate
                need_decay = np.flatnonzero(u_mirror & (ms_day >= shutoff_idx))
                active = u_mirror.copy()
                if len(need_decay):
                    active[need_decay] = (
                        rng.random(len(need_decay)) < bridge_ok[ms_day[need_decay]]
                    )
                kind[u_mirror & active] = STATUS_CROSSPOST
            non_cross = kind != STATUS_CROSSPOST
            # boost slots
            boost = non_cross & (rng.random(total_ms) < config.boost_rate)
            kind[boost] = STATUS_BOOST_SLOT
            # paraphrase decisions (for generated rows, and as the boost
            # fallback — the old loop fell through to this branch when no
            # boostable status existed)
            cum_tw_before = np.concatenate(([0], np.cumsum(n_tw)))[ms_day]
            para_pick = np.full(total_ms, -1, dtype=np.int64)
            para = np.zeros(total_ms, dtype=bool)
            if agent.mirror_rate > 0:
                eligible = np.flatnonzero(non_cross & (cum_tw_before > 0))
                if len(eligible):
                    para_rows = eligible[
                        rng.random(len(eligible)) < agent.mirror_rate
                    ]
                    if len(para_rows):
                        para[para_rows] = True
                        window = np.minimum(30, cum_tw_before[para_rows])
                        start = cum_tw_before[para_rows] - window
                        u = rng.random(len(para_rows))
                        para_pick[para_rows] = start + np.minimum(
                            (u * window).astype(np.int64), window - 1
                        )
            kind[para & (kind == STATUS_GENERATED)] = STATUS_PARAPHRASE

        # generated-text rows: generated statuses, crossposts, and the
        # generate-flavoured boost fallbacks
        ms_text: list = [None] * total_ms
        ms_tokens: list = [None] * total_ms
        ms_tags: list = [None] * total_ms
        ms_sink = [ms_text, ms_tokens, ms_tags]
        if total_ms:
            gen_rows = np.flatnonzero(
                (kind == STATUS_GENERATED)
                | (kind == STATUS_CROSSPOST)
                | ((kind == STATUS_BOOST_SLOT) & ~para)
            )
            if len(gen_rows):
                days_in = np.minimum(
                    ms_day[gen_rows] - mig_idx, _FEDIVERSE_SPIKE_STEADY_DAYS
                )
                cdfs = _mastodon_mixture_cdfs(agent)
                u = rng.random(len(gen_rows))
                ms_topic = _searchsorted_rows(cdfs[days_in], u)
                ms_toxic = rng.random(len(gen_rows)) < agent.toxicity_mastodon
                sub_sink = [[None] * len(gen_rows) for _ in range(3)]
                request(1, ms_topic, ms_toxic, sub_sink)
            else:
                sub_sink = None
        else:
            sub_sink = None

        pending.append(
            (
                agent,
                mig_idx,
                tw_day,
                tw_seq,
                tw_source,
                tw_sink,
                ms_day,
                ms_seq,
                kind if total_ms else np.zeros(0, dtype=np.int8),
                para if total_ms else np.zeros(0, dtype=bool),
                para_pick if total_ms else np.zeros(0, dtype=np.int64),
                gen_rows if total_ms and len(gen_rows) else _EMPTY_I32,
                sub_sink,
                ms_sink,
                announce_text,
                bio_text,
                np.flatnonzero(n_ms).astype(np.int32),
            )
        )

    _run_text_batches(generator, rng, buckets)

    plans = []
    for entry in pending:
        plans.append(_assemble_plan(rng, generator, entry))
    return plans


def _mastodon_mixture_cdfs(agent) -> np.ndarray:
    """Per-days-in topic cdfs (rows 0..21; 21 is the steady state).

    Vectorised :func:`repro.simulation.behavior.mastodon_topic_mixture`
    over every days-in value at once — no RNG involved.
    """
    from repro.simulation.behavior import _FEDIVERSE_INDEX, _MASTODON_TOPIC_WEIGHTS

    base = agent.topic_mixture * _MASTODON_TOPIC_WEIGHTS
    base = base / base.sum()
    d = np.arange(_FEDIVERSE_SPIKE_STEADY_DAYS + 1)
    spike = np.maximum(0.15, 0.65 * (0.93**d))
    mixtures = base[None, :] * (1.0 - spike)[:, None]
    mixtures[:, _FEDIVERSE_INDEX] += spike
    mixtures /= mixtures.sum(axis=1, keepdims=True)
    return np.cumsum(mixtures, axis=1)


def _run_text_batches(generator: PostGenerator, rng, buckets) -> None:
    """Stage A phase 2: one ``generate_batch`` per (platform, topic) group.

    Groups run in (platform, topic-index) order — a fixed schedule, so the
    shard's draw sequence does not depend on how requests interleaved."""
    topics = generator.vocabulary.topics
    for platform, topic_idx in sorted(buckets):
        entries = buckets[(platform, topic_idx)]
        toxic_mask = np.concatenate([toxic for _, _, toxic in entries])
        texts, token_sets, tag_tuples = generator.generate_batch(
            rng,
            topics[topic_idx],
            len(toxic_mask),
            toxic_mask=toxic_mask,
            hashtag_prob=0.45 if platform == 0 else 0.62,
        )
        pos = 0
        for sink, group, _ in entries:
            text_sink, token_sink, tag_sink = sink
            idxs = group.tolist()
            end = pos + len(idxs)
            for p, text, toks, tags in zip(
                idxs, texts[pos:end], token_sets[pos:end], tag_tuples[pos:end]
            ):
                text_sink[p] = text
                token_sink[p] = toks
                tag_sink[p] = tags
            pos = end


def _assemble_plan(rng, generator: PostGenerator, entry) -> AgentPlan:
    """Stage A phase 3: paraphrases, boost fallbacks, row merge."""
    (
        agent,
        mig_idx,
        tw_day,
        tw_seq,
        tw_source,
        tw_sink,
        ms_day,
        ms_seq,
        kind,
        para,
        para_pick,
        gen_rows,
        sub_sink,
        ms_sink,
        announce_text,
        bio_text,
        login_days,
    ) = entry
    tw_text, tw_tokens, tw_tags = tw_sink
    ms_text, ms_tokens, ms_tags = ms_sink
    if sub_sink is not None and len(gen_rows):
        for j, row in enumerate(gen_rows):
            row = int(row)
            ms_text[row] = sub_sink[0][j]
            ms_tokens[row] = sub_sink[1][j]
            # a None token set means the fast path could not certify the
            # text; the tag list inherits the same uncertainty, so let
            # Status re-derive it from the text
            ms_tags[row] = sub_sink[2][j] if sub_sink[1][j] is not None else None

    # paraphrase transforms, in status-row order (needs the tweet texts)
    vocabulary = generator.vocabulary
    fallback: list = [None] * len(ms_day)
    for row in np.flatnonzero(para):
        original = tw_text[int(para_pick[row])]
        text = paraphrase(rng, original, vocabulary)
        if kind[row] == STATUS_BOOST_SLOT:
            fallback[int(row)] = ("para", text, None, None)
        else:
            ms_text[int(row)] = text
            ms_tags[int(row)] = None  # let Status re-derive tags from the text
            ms_tokens[int(row)] = None
    for row in np.flatnonzero((kind == STATUS_BOOST_SLOT) & ~para):
        row = int(row)
        fallback[row] = ("gen", ms_text[row], ms_tags[row], ms_tokens[row])
        ms_text[row] = None
        ms_tags[row] = None
        ms_tokens[row] = None

    # final tweet columns: regular rows + announcement (seq 90) + mirrors
    # (seq 100+k), merged per agent by (day, seq)
    extra_day: list[int] = []
    extra_seq: list[int] = []
    extra_text: list[str] = []
    extra_tokens: list = []
    extra_tags: list[tuple] = []
    extra_source: list[str] = []
    if announce_text is not None:
        extra_day.append(mig_idx)
        extra_seq.append(90)
        extra_text.append(announce_text)
        extra_tokens.append(None)
        extra_tags.append(())
        extra_source.append(agent.preferred_source)
    for row in np.flatnonzero(kind == STATUS_CROSSPOST):
        row = int(row)
        extra_day.append(int(ms_day[row]))
        extra_seq.append(100 + int(ms_seq[row]))
        extra_text.append(ms_text[row])
        extra_tokens.append(ms_tokens[row])
        extra_tags.append(ms_tags[row] if ms_tags[row] is not None else ())
        extra_source.append(agent.crossposter)
    if extra_day:
        all_day = np.concatenate([tw_day, np.asarray(extra_day, dtype=np.int32)])
        all_seq = np.concatenate([tw_seq, np.asarray(extra_seq, dtype=np.int32)])
        order = np.lexsort((all_seq, all_day))
        text_all = tw_text + extra_text
        tokens_all = tw_tokens + extra_tokens
        tags_all = tw_tags + extra_tags
        source_all = tw_source + extra_source
        tweet_day = all_day[order]
        tweet_seq = all_seq[order]
        tweet_text = [text_all[i] for i in order]
        tweet_tokens = [tokens_all[i] for i in order]
        tweet_tags = [tags_all[i] for i in order]
        tweet_source = [source_all[i] for i in order]
    else:
        tweet_day, tweet_seq = tw_day, tw_seq
        tweet_text, tweet_tokens = tw_text, tw_tokens
        tweet_tags, tweet_source = tw_tags, tw_source

    return AgentPlan(
        uid=agent.user_id,
        tweet_day=tweet_day,
        tweet_seq=tweet_seq,
        tweet_text=tweet_text,
        tweet_tokens=tweet_tokens,
        tweet_tags=tweet_tags,
        tweet_source=tweet_source,
        status_day=ms_day,
        status_seq=ms_seq,
        status_kind=kind,
        status_text=ms_text,
        status_tags=ms_tags,
        status_tokens=ms_tokens,
        status_fallback=fallback,
        login_days=login_days,
        bio_text=bio_text,
    )


def chatter_shard(world, ctx, items: list[int]) -> list[ChatterPlan]:
    """Stage A for one shard of never-migrating keyword chatterers."""
    rng = ctx.rng()
    generator = PostGenerator(rng, vocabulary=world._generator.vocabulary)
    config = world.config
    window = (config.end - config.start).days + 1
    volume = np.array(
        [
            chatter_volume_multiplier(config.start + _dt.timedelta(days=d))
            for d in range(window)
        ]
    )
    handles = world._migrant_handles
    specs = world.instance_specs
    fediverse_idx = next(
        i for i, t in enumerate(generator.vocabulary.topics) if t.name == "fediverse"
    )

    buckets: dict[tuple[int, int], list[tuple]] = {}
    pending = []
    for uid in items:
        agent = world.agents[uid]
        n_posts = 1 + int(rng.poisson(1.0))
        offsets = rng.integers(0, window, size=n_posts)
        keep = rng.random(n_posts) <= volume[offsets]
        kept = np.flatnonzero(keep)
        rolls = rng.random(len(kept))
        day_idx: list[int] = []
        seq: list[int] = []
        texts: list = []
        tokens: list = []
        tags: list = []
        gen_positions: list[int] = []
        for j, k in enumerate(kept):
            day_idx.append(int(offsets[k]))
            seq.append(int(k))
            roll = rolls[j]
            if roll < 0.75 or not handles:
                texts.append(None)
                tokens.append(None)
                tags.append(())
                gen_positions.append(len(texts) - 1)
            elif roll < 0.9:
                spec = specs[int(rng.integers(0, len(specs)))]
                texts.append(
                    f"Everyone seems to be joining https://{spec.domain} these days"
                )
                tokens.append(None)
                tags.append(())
            else:
                handle = handles[int(rng.integers(0, len(handles)))]
                username, domain = handle.split("@", 1)
                texts.append(
                    f"You should all follow @{username}@{domain} over on mastodon"
                )
                tokens.append(None)
                tags.append(())
        sink = [texts, tokens, tags]
        if gen_positions:
            buckets.setdefault((1, fediverse_idx), []).append(
                (sink, gen_positions)
            )
        pending.append((uid, agent.preferred_source, day_idx, seq, sink))

    # chatter texts mention the migration and tag heavily (old behaviour)
    topics = generator.vocabulary.topics
    for key in sorted(buckets):
        entries = buckets[key]
        total = sum(len(group) for _, group in entries)
        texts, token_sets, tag_tuples = generator.generate_batch(
            rng,
            topics[key[1]],
            total,
            toxic_mask=None,
            hashtag_prob=0.85,
            mention_migration=True,
        )
        pos = 0
        for sink, group in entries:
            text_sink, token_sink, tag_sink = sink
            for p in group:
                text_sink[p] = texts[pos]
                token_sink[p] = token_sets[pos]
                tag_sink[p] = tag_tuples[pos]
                pos += 1

    return [
        ChatterPlan(
            uid=uid,
            day=np.asarray(day_idx, dtype=np.int32),
            seq=np.asarray(seq, dtype=np.int32),
            text=sink[0],
            tokens=sink[1],
            tags=sink[2],
            source=source,
        )
        for uid, source, day_idx, seq, sink in pending
    ]


# -- stage B: serial apply at the dataset boundary -----------------------------


def apply_plans(world, payloads, chatter_payloads, events) -> None:
    """Materialise every planned post as objects, in canonical order."""
    config = world.config
    days = list(date_range(config.start, config.end))
    # per-day bases as datetime64[s]: post timestamps become one vector
    # add + one C-level ``.tolist()`` per agent instead of a Python
    # ``timedelta`` construction per post (same integer-second arithmetic)
    base8 = np.array(
        [_dt.datetime.combine(day, _TIME_8) for day in days], dtype="datetime64[s]"
    )
    base9 = np.array(
        [_dt.datetime.combine(day, _TIME_9) for day in days], dtype="datetime64[s]"
    )
    boost_rng = world.rng.stream("boosts")
    total = sum(len(p) for p in payloads)
    done = 0
    started = time.perf_counter()
    for payload in payloads:
        for plan in payload:
            _apply_agent(world, plan, days, base8, base9, boost_rng)
            done += 1
            if events.enabled and (done % HEARTBEAT_EVERY == 0 or done == total):
                elapsed = time.perf_counter() - started
                rate = done / elapsed if elapsed > 0 else 0.0
                events.heartbeat(
                    "world.simulate",
                    phase="materialise",
                    tick=done - 1,
                    ticks=total,
                    agents_done=done,
                    posts_total=world.twitter_store.tweet_count,
                    agents_per_s=round(rate, 3),
                    eta_seconds=(
                        round((total - done) / rate, 3) if rate > 0 else None
                    ),
                )
    for payload in chatter_payloads:
        for plan in payload:
            _apply_chatter(world, plan, base8)


_SNOWFLAKE_EPOCH_MS = int(np.datetime64(SNOWFLAKE_EPOCH, "ms").astype(np.int64))

#: tag-tuple -> frozenset of lowered tags.  The generator draws hashtags
#: from small per-topic pools, so the distinct combinations number in the
#: dozens while tweets number in the hundreds of thousands — memoizing the
#: normalized set skips a frozenset+str.lower pass per tweet.
_NORM_CACHE: dict[tuple[str, ...], frozenset[str]] = {}


def _normalized_tags(tags: tuple[str, ...]) -> frozenset[str]:
    norm = _NORM_CACHE.get(tags)
    if norm is None:
        norm = frozenset(map(str.lower, tags))
        _NORM_CACHE[tags] = norm
    return norm


def _tweet_whens(base8: np.ndarray, day: np.ndarray, seq: np.ndarray, seconds: int):
    """Vectorised tweet timestamps: 8:00 + min(13·seq, 900) min + uid%50 s.

    Returns ``(whens, millis)``: the python datetimes for the ``Tweet``
    objects plus the snowflake epoch-millisecond offsets the id generator's
    batch path consumes (both timestamps are integral milliseconds, so the
    vectorised difference equals ``next_id``'s floored per-call arithmetic).
    """
    offsets = np.minimum(13 * seq.astype(np.int64), 900) * 60 + seconds
    stamps = base8[day] + offsets.astype("timedelta64[s]")
    millis = (
        stamps.astype("datetime64[ms]").astype(np.int64) - _SNOWFLAKE_EPOCH_MS
    ).tolist()
    return stamps.tolist(), millis


def _apply_agent(world, plan: AgentPlan, days, base8, base9, boost_rng) -> None:
    agent = world.agents[plan.uid]
    store = world.twitter_store
    seconds = plan.uid % 50

    n_tweets = len(plan.tweet_day)
    if n_tweets:
        whens, millis = _tweet_whens(base8, plan.tweet_day, plan.tweet_seq, seconds)
        ids = world._tweet_ids.next_ids(millis)
        uid = plan.uid
        tweets = []
        plain = Tweet
        precomputed = Tweet.from_precomputed
        token_sets = plan.tweet_tokens
        texts = plan.tweet_text
        sources = plan.tweet_source
        tags = plan.tweet_tags
        for i in range(n_tweets):
            tokens = token_sets[i]
            if tokens is None:
                tweet = plain(
                    tweet_id=ids[i],
                    author_id=uid,
                    created_at=whens[i],
                    text=texts[i],
                    source=sources[i],
                )
            else:
                t = tags[i]
                tweet = precomputed(
                    ids[i], uid, whens[i], texts[i], sources[i], list(t),
                    _normalized_tags(t),
                )
            tweets.append(tweet)
        store.add_author_tweets(uid, tweets, token_sets)

    if len(plan.status_day):
        _apply_statuses(world, agent, plan, days, base9, boost_rng)

    if len(plan.login_days):
        switch_idx = (
            (agent.switch_day - world.config.start).days
            if agent.switch_day is not None
            else None
        )
        inst1 = world.network.get_instance(agent.first_instance)
        inst2 = (
            world.network.get_instance(agent.current_instance)
            if switch_idx is not None
            else None
        )
        for day_i in plan.login_days.tolist():
            instance = (
                inst1 if switch_idx is None or day_i < switch_idx else inst2
            )
            instance.record_login(days[day_i])

    if plan.bio_text is not None:
        store.get_user(plan.uid).description = plan.bio_text


def _apply_statuses(world, agent, plan: AgentPlan, days, base9, boost_rng) -> None:
    """Resolve boost slots and post the agent's statuses in bulk."""
    network = world.network
    switch_idx = (
        (agent.switch_day - world.config.start).days
        if agent.switch_day is not None
        else None
    )
    whens = (
        base9[plan.status_day]
        + (plan.status_seq.astype(np.int64) * 660).astype("timedelta64[s]")
    ).tolist()
    day_col = plan.status_day.tolist()
    kinds = plan.status_kind.tolist()
    texts = plan.status_text
    tags_col = plan.status_tags
    tokens_col = plan.status_tokens
    crossposter = agent.crossposter
    rows_first: list = []
    rows_second: list = []
    for i in range(len(day_col)):
        day_i = day_col[i]
        when = whens[i]
        kind = kinds[i]
        if kind == STATUS_BOOST_SLOT:
            boosted = world._boost_candidate(agent, boost_rng)
            if boosted is not None:
                # same text as the original, so an already-computed token
                # set carries over (None just re-derives lazily)
                row = (
                    when, boosted.text, "Web", boosted.status_id, [],
                    boosted._token_set,
                )
            else:
                fallback = plan.status_fallback[i]
                row = (when, fallback[1], "Web", None, fallback[2], fallback[3])
        else:
            row = (
                when,
                texts[i],
                crossposter if kind == STATUS_CROSSPOST else "Web",
                None,
                tags_col[i],
                tokens_col[i],
            )
        if switch_idx is None or day_i < switch_idx:
            rows_first.append(row)
        else:
            rows_second.append(row)

    if rows_first:
        instance = network.get_instance(agent.first_instance)
        statuses = instance.post_statuses(agent.first_username, rows_first)
        network.federate_statuses(instance, agent.first_acct, statuses)
    if rows_second:
        instance = network.get_instance(agent.current_instance)
        statuses = instance.post_statuses(agent.mastodon_username, rows_second)
        network.federate_statuses(instance, agent.mastodon_acct, statuses)


def _apply_chatter(world, plan: ChatterPlan, base8) -> None:
    if not len(plan.day):
        return
    store = world.twitter_store
    whens, millis = _tweet_whens(base8, plan.day, plan.seq, plan.uid % 50)
    ids = world._tweet_ids.next_ids(millis)
    tweets = []
    for i in range(len(plan.day)):
        tokens = plan.tokens[i]
        if tokens is None:
            tweet = Tweet(
                tweet_id=ids[i],
                author_id=plan.uid,
                created_at=whens[i],
                text=plan.text[i],
                source=plan.source,
            )
        else:
            t = plan.tags[i]
            tweet = Tweet.from_precomputed(
                ids[i], plan.uid, whens[i], plan.text[i], plan.source,
                list(t), _normalized_tags(t),
            )
        tweets.append(tweet)
    store.add_author_tweets(plan.uid, tweets, plan.tokens)
