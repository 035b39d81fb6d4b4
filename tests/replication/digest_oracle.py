"""The state digest written the plain way: the differential oracle.

:func:`repro.replication.state_digest` writes the canonical form in one
pass.  This module writes the same form the obvious way — build the
whole ``dump_database`` dict, sort every top-level list in a store by
its canonical JSON, drop ``clock_last``, serialise the lot with sorted
keys — so the two can be compared byte for byte.  It serialises every
row three times; it is slow on purpose and lives here, not in ``src/``.
"""

import hashlib
import json
from typing import Any, Dict

from repro.storage.serializer import dump_database


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


def canonical_state(database) -> Dict[str, Any]:
    """The dump of *database* normalized for digesting (a fresh dict)."""
    data = dump_database(database)
    data.pop("clock_last", None)
    for entry in data.get("relations", {}).values():
        store = entry.get("store")
        if not isinstance(store, dict):
            continue
        canonical = dict(store)
        for field, rows in store.items():
            if isinstance(rows, list):
                canonical[field] = sorted(rows, key=canonical_json)
        entry["store"] = canonical
    return data


def oracle_payload(database) -> str:
    """The exact text the digest hashes."""
    return canonical_json(canonical_state(database))


def oracle_digest(database) -> str:
    return hashlib.sha256(oracle_payload(database).encode("utf-8")).hexdigest()
