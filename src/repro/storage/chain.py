"""The commit hash chain: tamper-evident, prefix-comparable history.

Transaction time is append-only, so the journal *is* the history — but a
CRC only proves a record survived the disk, not that it is the record
that was written.  This module chains every commit record to its parent
the way a Merkle list does:

- ``content_hash`` — SHA-256 of the record's canonical JSON (sorted
  keys, the ``chain`` field itself excluded), naming *what* the commit
  says;
- ``commit_hash`` — SHA-256 over ``prev_hash + content_hash``, naming
  the commit *and its entire ancestry*.

Two histories agree on a prefix iff they agree on the prefix's final
``commit_hash``, which is what makes divergence detection O(1) per
heartbeat (:mod:`repro.replication`) and lets an auditor verify a
journal link-by-link (:mod:`repro.storage.scrub`).  A record whose
payload was rewritten *with a recomputed CRC* still fails here: its
content hash no longer matches what the next record's ``prev_hash``
committed to.

The chain begins at :data:`GENESIS` (sixty-four zeros).  Every journal
record carries chain fields; one that does not — the key dropped, or a
field missing or mistyped — is a **downgrade**: someone took a record
out of the chain instead of forging its hashes.  The verifier treats it
as tampering and stops, rather than forgetting the head and
re-anchoring on the next record, which would let the rewrite (and a
recomputed CRC) pass unnoticed.

Hash computation is deliberately independent of storage: primary,
replica and scrubber all compute heads from entry content alone, so
their heads converge without exchanging anything but the entries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import ChainError

#: The ancestor of the first chained commit (64 zeros, like an all-zero
#: SHA-256); also the chain head of an empty history.
GENESIS = "0" * 64

#: Key under which a journal entry carries its chain fields.
CHAIN_KEY = "chain"


def content_hash(entry: Dict[str, Any]) -> str:
    """SHA-256 (hex) of the entry's canonical JSON, chain fields excluded.

    Canonical means ``sort_keys=True`` with compact separators — the
    same entry always hashes the same regardless of the dict order it
    was parsed into, so a replica hashing a received entry and the
    primary hashing the entry it sent agree byte-for-byte.
    """
    stripped = {key: value for key, value in entry.items()
                if key != CHAIN_KEY}
    return hashlib.sha256(_canonical(stripped).encode("utf-8")).hexdigest()


#: A record's canonical JSON text (sorted keys, compact separators).
_canonical = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                              separators=(",", ":")).encode


def link_hash(prev_hash: str, content: str) -> str:
    """The commit hash: SHA-256 (hex) over ``prev_hash + content``."""
    return hashlib.sha256((prev_hash + content).encode("ascii")).hexdigest()


def chain_entry(entry: Dict[str, Any], prev_hash: str) -> Dict[str, Any]:
    """A copy of *entry* carrying its chain fields (the write path).

    ``entry[CHAIN_KEY]`` becomes ``{"prev", "content", "commit"}``; the
    caller threads the returned ``commit`` hash into the next record's
    ``prev_hash``.
    """
    content = content_hash(entry)
    chained = dict(entry)
    chained[CHAIN_KEY] = {
        "prev": prev_hash,
        "content": content,
        "commit": link_hash(prev_hash, content),
    }
    return chained


def chained_text(entry: Dict[str, Any], prev_hash: str) -> Tuple[str, str]:
    """:func:`chain_entry`'s record as canonical JSON, and its commit hash,
    from one encode of the unchained commit record *entry* (the journal's
    write path): ``chain`` sorts before its other keys, so its fields are
    spliced in front of the text :func:`content_hash` hashes."""
    canonical = _canonical(entry)
    content = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    commit = link_hash(prev_hash, content)
    return (f'{{"{CHAIN_KEY}":{{"commit":"{commit}","content":"{content}",'
            f'"prev":"{prev_hash}"}},{canonical[1:]}', commit)


def entry_chain(entry: Dict[str, Any]) -> Optional[Dict[str, str]]:
    """The entry's chain fields, or ``None`` when missing or malformed."""
    chain = entry.get(CHAIN_KEY)
    if not isinstance(chain, dict):
        return None
    if not all(isinstance(chain.get(k), str)
               for k in ("prev", "content", "commit")):
        return None
    return chain


class ChainVerifier:
    """Walks records in order, verifying each link against the last.

    ``head`` is the running commit hash — :data:`GENESIS` for a history
    verified from its start, a checkpointed head for a tail, or ``None``
    when the head is *unknown* (verification began mid-history without a
    trusted head — operator-pruned prefix segments — or crossed a gap).
    With an unknown head the verifier still checks each record's internal
    consistency (content hash and commit hash), then re-anchors on it.

    Raises :class:`~repro.errors.ChainError` naming the failing record;
    the failure modes are distinguished in the message (and by
    :attr:`ChainError.kind`): a ``prev`` that contradicts the running
    head (**break**), a payload that no longer matches its content hash
    (**tamper**), chain fields that don't hash together (**tamper**),
    and chain fields that are missing or malformed (**tamper** — the
    downgrade).
    """

    def __init__(self, head: Optional[str] = GENESIS) -> None:
        self.head = head
        #: Chained records verified so far.
        self.verified = 0

    def take(self, entry: Dict[str, Any], where: str = "") -> str:
        """Verify one record; returns its commit hash.

        *where* labels the record in error messages (file / line)."""
        at = f" at {where}" if where else ""
        chain = entry_chain(entry)
        if chain is None:
            raise ChainError(
                f"chain tamper{at}: record carries no well-formed chain "
                f"fields — it was downgraded out of the hash chain",
                kind="tamper")
        content = content_hash(entry)
        if chain["content"] != content:
            raise ChainError(
                f"chain tamper{at}: payload hashes to {content[:12]}…, "
                f"record claims {chain['content'][:12]}… — the record "
                f"body was rewritten", kind="tamper")
        if link_hash(chain["prev"], chain["content"]) != chain["commit"]:
            raise ChainError(
                f"chain tamper{at}: commit hash does not bind prev and "
                f"content — the chain fields were rewritten",
                kind="tamper")
        if self.head is not None and chain["prev"] != self.head:
            raise ChainError(
                f"chain break{at}: record links to parent "
                f"{chain['prev'][:12]}… but the history's head is "
                f"{self.head[:12]}… — a record was removed, reordered "
                f"or substituted", kind="break")
        self.head = chain["commit"]
        self.verified += 1
        return chain["commit"]

    def forget(self) -> None:
        """Drop the running head (a gap in the record stream was crossed)."""
        self.head = None


def head_of(entries: Iterable[Dict[str, Any]],
            head: Optional[str] = GENESIS) -> Optional[str]:
    """The chain head after verifying *entries* in order from *head*.

    ``None`` only for no entries walked from an unknown *head*.
    Raises :class:`~repro.errors.ChainError` on any bad link."""
    verifier = ChainVerifier(head)
    for entry in entries:
        verifier.take(entry)
    return verifier.head
