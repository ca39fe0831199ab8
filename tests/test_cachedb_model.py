"""``TopicCacheDB`` against a reference model, in lockstep.

The model keeps plain dicts and lists, scans every pending record on each
purge and every stored entry on each eviction, and has no expiry bound.
Seeded random sequences drive both the way ``GenieNode`` does: a request
that misses parks (each header once), one that hits touches its entry, an
answer fills the exchange its header names, and purges come at a
nondecreasing clock, often exactly at a record's deadline or one ulp past
it.  After every step the two must agree on what they returned and on
what they hold.
"""

import itertools
import math
import random

import pytest

from geniesim.genie import TopicCacheDB
from geniesim.model import Header, PayloadKind, Topic
from conftest import IMAGE, objects_message

TOPICS = (IMAGE, Topic("/image2", PayloadKind.IMAGE))
DIGESTS = ("d0", "d1", "d2", "d3", "d4")


class ModelDB:
    def __init__(self, max_entries, stores):
        self.max_entries = max_entries
        self.stores = stores
        self.entries = {t.name: {} for t in TOPICS}  # digest -> record, in insertion order
        self.pending = {t.name: [] for t in TOPICS}  # [slot, record] in park order
        self.index = {}  # header key -> (topic, slot)

    def lookup(self, name, digest):
        return self.entries[name].get(digest)

    def add_waiter(self, name, digest, header, now):
        slot = digest if self.stores else header.key
        records = [r for s, r in self.pending[name] if s == slot]
        if records:
            record = records[0]
        else:
            record = {"result": None, "created": now, "last_hit": now, "waiters": []}
            self.pending[name].append([slot, record])
            if self.stores:
                self.entries[name][digest] = record
        record["waiters"].append(header)
        self.index[header.key] = (name, slot)
        self.evict(name)
        return bool(records)

    def fill(self, name, slot, result):
        found = [i for i, (s, _) in enumerate(self.pending[name]) if s == slot]
        if not found:
            return []
        _, record = self.pending[name].pop(found[0])
        if self.stores:
            record["result"] = result
            self.evict(name)
        for w in record["waiters"]:
            del self.index[w.key]
        woken, record["waiters"] = record["waiters"], []
        return woken

    def purge_expired(self, now, ttl_ms):
        removed = 0
        for name, records in self.pending.items():
            live = []
            for slot, record in records:
                if now - record["created"] <= ttl_ms:
                    live.append([slot, record])
                    continue
                for w in record["waiters"]:
                    del self.index[w.key]
                    removed += 1
                self.entries[name].pop(slot, None)
            records[:] = live
        return removed

    def evict(self, name):
        entries = self.entries[name]
        while self.max_entries is not None and len(entries) > self.max_entries:
            victim = None
            for digest, record in entries.items():
                if record["result"] is not None and (
                    victim is None or record["last_hit"] < entries[victim]["last_hit"]
                ):
                    victim = digest
            if victim is None:
                return
            del entries[victim]


def as_model(record):
    if record is None:
        return None
    return {
        "result": record.result,
        "created": record.created_ms,
        "last_hit": record.last_hit_ms,
        "waiters": list(record.waiters),
    }


def assert_agree(db, model):
    for t in TOPICS:
        m = db.topic_map(t.name)
        assert db.entry_count(t.name) == len(model.entries[t.name])
        assert list(m.entries) == list(model.entries[t.name])
        for digest, record in m.entries.items():
            assert as_model(record) == model.entries[t.name][digest]
        assert list(m.pending) == [slot for slot, _ in model.pending[t.name]]
        for slot, record in model.pending[t.name]:
            assert as_model(m.pending[slot]) == record
            # the expiry bound never passes a pending record
            assert db.oldest_park <= record["created"]
    assert db.pending_count() == len(model.index)
    assert db._pending == model.index
    for key, where in model.index.items():
        assert db.pending(key) == where


def run_sequence(rng, max_entries, stores, ttl_ms, steps=80):
    db = TopicCacheDB(TOPICS, max_entries, stores)
    model = ModelDB(max_entries, stores)
    now = 0.0
    seq = 0
    issued = []  # every header key queued so far
    purged = 0
    for _ in range(steps):
        # ties on park and hit times are common: a third of the steps stay put
        now += rng.choice((0.0, 0.0, 0.5, 1.0, 0.1, 2.0))
        name = rng.choice(TOPICS).name
        op = rng.random()
        if op < 0.45:
            digest = rng.choice(DIGESTS)
            entry = db.lookup(name, digest)
            assert as_model(entry) == model.lookup(name, digest)
            if entry is not None and entry.result is not None:
                # a hit, as GenieNode serves it
                entry.last_hit_ms = now
                model.lookup(name, digest)["last_hit"] = now
            else:
                header = Header("car", seq, now)
                seq += 1
                issued.append(header.key)
                assert db.add_waiter(name, digest, header, now) == model.add_waiter(name, digest, header, now)
        elif op < 0.75 and issued:
            key = rng.choice(issued)
            where = db.pending(key)
            assert where == model.index.get(key)
            answer = objects_message((), seq=seq)
            if where is None:
                # an answer to no pending slot wakes nobody
                where = (name, rng.choice(DIGESTS) if stores else key)
            assert db.fill(*where, answer) == model.fill(*where, answer)
        else:
            deadlines = [r["created"] + ttl_ms for records in model.pending.values() for _, r in records]
            due = [d for d in deadlines if d >= now]
            if due and rng.random() < 0.7:
                # exactly at a record's deadline, or one ulp past it
                now = rng.choice(due)
                if rng.random() < 0.5:
                    now = math.nextafter(now, math.inf)
            removed = db.purge_expired(now, ttl_ms)
            assert removed == model.purge_expired(now, ttl_ms)
            purged += removed
        assert_agree(db, model)
    return purged


@pytest.mark.parametrize("max_entries, stores", itertools.product((None, 1, 2, 3), (True, False)))
def test_cache_db_matches_the_reference_model(max_entries, stores):
    purged = 0
    for ttl_ms, seed in itertools.product((0.0, 1.0, 2.5, 5.0), range(6)):
        rng = random.Random(f"cachedb:{max_entries}:{stores}:{ttl_ms}:{seed}")
        purged += run_sequence(rng, max_entries, stores, ttl_ms)
    assert purged > 0  # the sequences reach expiry
