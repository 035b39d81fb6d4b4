"""The canonical state digest: one hash that names a database state.

Replication needs a cheap, deterministic way to ask "are these two
databases the same?" without shipping either one: divergence detection
compares a replica's digest against the primary's at an equal sequence
number, failover checks the promoted state against the old primary's
durable prefix, and ``repro digest`` lets an operator compare two
directories by hand.

The digest is a SHA-256 over the canonical form of
:func:`~repro.storage.serializer.dump_database`:

- ``clock_last`` is dropped — the digest names *state*, not the clock's
  bookkeeping (two stores holding identical relations must hash equal
  even if one has since observed a later reading);
- every top-level list inside a relation's store (``tuples``, ``rows``,
  ``states``) is sorted by its canonical JSON — physical row order is
  an implementation detail that checkpoint load and journal replay are
  allowed to disagree on;
- the result is serialized with sorted keys and hashed.

**One pass.**  :func:`~repro.storage.serializer.canonical_dump` hands
back the dump with each row already its canonical JSON text, written
once, a column at a time, by the serializer's row kernel
(``serializer.write_texts``: each distinct instant of a value formatted
once per call, a stamp from its period's chronons), each store's texts
sorted; ``serializer.spliced`` splices them into the header the other
fields make, and this module hashes the bytes ``json.dumps(sorted dump,
sort_keys=True, ensure_ascii=False)`` would.

Because transaction time is append-only and replay is deterministic,
two nodes that applied the same commit prefix *must* hash equal — the
dump excludes the in-memory commit log precisely so the digest
round-trips through both full-replay and checkpoint recovery (after a
checkpoint recovery the log holds only the tail).

**Memoization.**  Re-serializing the whole store per heartbeat is the
cost the chain-prefix fast path exists to avoid, but callers that do
want the full digest (failover audits, ``repro digest``) should not pay
it twice when nothing committed in between.  :func:`state_digest`
caches its result *on the database object*, keyed by the identity of
the last commit record — state only changes through commits, so an
unchanged log tail means an unchanged state.  ``cache=False`` keeps
nothing from one call to the next, not even the instant memo: every
call re-reads and re-encodes every row (the detector of last resort).
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Tuple

from repro.obs import runtime as _obs
from repro.storage.serializer import SPACED, canonical_dump, spliced

#: Attribute the memo rides on (per database object; never cross-object).
_CACHE_ATTR = "_repro_digest_memo"


def _memo_key(database) -> Optional[Tuple[int, Any]]:
    """A key that changes iff the database committed since it was taken.

    ``(commit count, last record)`` — the record rides in the key as a
    strong reference, so identity comparison can never be fooled by an
    id being recycled.  None (no caching) when the log is empty or the
    database has no log: a checkpoint may clear the log, making "empty"
    ambiguous, and empty-log digests are cheap anyway.
    """
    log = getattr(database, "log", None)
    last = log.last() if log is not None else None
    return None if last is None else (len(log), last)


def state_digest(database, cache: bool = True) -> str:
    """The canonical SHA-256 hex digest of *database*'s current state.

    Memoized on the database object by the identity of its last commit
    record; ``cache=False`` forces a fresh serialization.
    """
    key = _memo_key(database) if cache else None
    if key is not None:
        memo = getattr(database, _CACHE_ATTR, None)
        if (memo is not None and memo[0][0] == key[0]
                and memo[0][1] is key[1]):
            _obs.current().metrics.counter("digest.cache_hits").inc()
            return memo[1]
    payload = "".join(spliced(canonical_dump(database), SPACED))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if key is not None:
        try:
            setattr(database, _CACHE_ATTR, (key, digest))
        except AttributeError:
            pass  # slotted stand-ins just skip the memo
        _obs.current().metrics.counter("digest.cache_misses").inc()
    return digest
