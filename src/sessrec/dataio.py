"""Raw interaction logs to filtered sessions and prefix-augmented examples.

Raw input is one event per line, ``session_id,timestamp,item_id``
(delimiter and optional header configurable).  The preprocessed form is
JSON lines ``{"session": [...], "target": k}`` over dense item indices,
with a sidecar catalog file mapping raw ids to dense indices.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)


class DataError(Exception):
    """Fatal data-pipeline failure (empty corpus, unreadable file, ...)."""


@dataclass
class RawEvent:
    session_id: str
    timestamp: float
    item_id: str


@dataclass
class Session:
    """Ordered item sequence; indices are dense catalog indices."""
    items: list
    last_timestamp: float = 0.0

    def __len__(self):
        return len(self.items)


@dataclass
class ItemCatalog:
    """Bijection between raw item ids and dense indices [0, count)."""
    item_to_index: dict
    index_to_item: list = field(default_factory=list)

    def __post_init__(self):
        if not self.index_to_item:
            self.index_to_item = [None] * len(self.item_to_index)
            for raw, idx in self.item_to_index.items():
                self.index_to_item[idx] = raw

    @property
    def count(self) -> int:
        return len(self.item_to_index)


@dataclass
class Example:
    """A session prefix and the next interacted item."""
    prefix: list
    target: int


@dataclass
class CorpusStats:
    interactions: int
    training_sessions: int
    test_sessions: int
    items: int
    avg_length: float


def ingest(path, delimiter: str = ",", has_header: bool = False):
    """Parse a raw event file.

    Returns ``(events, n_malformed)``; malformed lines (also a negative,
    ``nan`` or ``inf`` timestamp) are skipped and counted, an unreadable
    file is fatal.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read event file {path}: {exc}") from exc

    events, malformed = [], 0
    start = 1 if has_header else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            malformed += 1
            continue
        sid, ts, item = (p.strip() for p in parts)
        try:
            timestamp = float(ts)
        except ValueError:
            malformed += 1
            continue
        if not math.isfinite(timestamp) or timestamp < 0 or not (sid and item):
            malformed += 1
            continue
        events.append(RawEvent(sid, timestamp, item))
    if malformed:
        logger.warning("ingest: skipped %d malformed lines in %s", malformed, path)
    return events, malformed


def _group_events(events):
    """Group by session id, each session sorted by timestamp (stable)."""
    by_session = {}
    for ev in events:
        by_session.setdefault(ev.session_id, []).append(ev)
    grouped = []
    for sid, evs in by_session.items():
        evs = sorted(evs, key=lambda e: e.timestamp)
        grouped.append((sid, [e.item_id for e in evs], evs[-1].timestamp))
    return grouped


def preprocess(events, min_item_freq: int = 5, min_session_len: int = 2,
               max_session_len=None):
    """Filter rare items and short sessions, then build a dense catalog.

    Item-frequency and session-length filters interact (dropping a short
    session lowers item counts), so the filter runs to a fixed point;
    that is what makes the operation idempotent.  Returns
    ``(sessions, catalog)`` with sessions carrying dense indices.
    """
    if min_item_freq < 1 or min_session_len < 2:
        raise ValueError("min_item_freq >= 1 and min_session_len >= 2 required")
    if max_session_len is not None and max_session_len < min_session_len:
        raise ValueError(f"max_session_len {max_session_len} is below "
                         f"min_session_len {min_session_len}")

    raw_total = len(events)
    sessions = _group_events(events)
    if max_session_len is not None:
        # keep the most recent events of an over-long session
        sessions = [(sid, items[-max_session_len:], ts)
                    for sid, items, ts in sessions]

    while True:
        counts = Counter(it for _, items, _ in sessions for it in items)
        keep = {it for it, c in counts.items() if c >= min_item_freq}
        filtered = []
        for sid, items, ts in sessions:
            kept = [it for it in items if it in keep]
            if len(kept) >= min_session_len:
                filtered.append((sid, kept, ts))
        if filtered == sessions:
            break
        sessions = filtered

    if not sessions:
        raise DataError(
            f"preprocess removed everything: {raw_total} events in, "
            f"min_item_freq={min_item_freq}, min_session_len={min_session_len}")

    item_to_index = {}
    for _, items, _ in sessions:
        for it in items:
            if it not in item_to_index:
                item_to_index[it] = len(item_to_index)
    catalog = ItemCatalog(item_to_index)
    out = [Session([item_to_index[it] for it in items], ts)
           for _, items, ts in sessions]
    return out, catalog


def split(sessions, boundary: float, min_session_len: int = 2):
    """Temporal split: sessions ending after ``boundary`` become test.

    Test items never seen in a training session are removed from test
    sessions, which are then re-filtered by ``min_session_len``.
    """
    train = [s for s in sessions if s.last_timestamp <= boundary]
    test_raw = [s for s in sessions if s.last_timestamp > boundary]
    if not train or not test_raw:
        logger.warning("split: boundary %s leaves train=%d test=%d sessions",
                       boundary, len(train), len(test_raw))

    train_items = set()
    for s in train:
        train_items.update(s.items)
    test = []
    for s in test_raw:
        kept = [it for it in s.items if it in train_items]
        if len(kept) >= min_session_len:
            test.append(Session(kept, s.last_timestamp))
    return train, test


def prefix_augment(sessions):
    """Expand each session [v1..vn] into its n-1 (prefix, next) examples."""
    examples = []
    for s in sessions:
        items = s.items if isinstance(s, Session) else list(s)
        if len(items) < 2:
            raise ValueError("prefix_augment requires sessions of length >= 2")
        for t in range(1, len(items)):
            examples.append(Example(items[:t], items[t]))
    return examples


def check_examples(examples, n_items: int):
    """Raise ``DataError`` on the first example with an empty prefix or an
    item id outside the catalog [0, n_items)."""
    for i, ex in enumerate(examples):
        if len(ex.prefix) == 0:
            raise DataError(f"example {i} has an empty prefix")
        bad = [v for v in [*ex.prefix, ex.target] if not 0 <= v < n_items]
        if bad:
            raise DataError(f"example {i} references items {bad} outside "
                            f"the catalog of {n_items}")


def stats(train, test, catalog: ItemCatalog) -> CorpusStats:
    interactions = sum(len(s) for s in train) + sum(len(s) for s in test)
    n_sessions = len(train) + len(test)
    return CorpusStats(
        interactions=interactions,
        training_sessions=len(train),
        test_sessions=len(test),
        items=catalog.count,
        avg_length=interactions / n_sessions if n_sessions else 0.0,
    )


# -- on-disk formats --------------------------------------------------------

def write_examples(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"session": list(ex.prefix), "target": int(ex.target)}))
            fh.write("\n")


def read_examples(path):
    """Read JSON lines ``{"session": [...], "target": k}``; ``DataError``
    naming ``path:line`` unless every id is a JSON integer, and naming
    ``path`` if the file is not UTF-8."""
    examples = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    session, target = rec["session"], rec["target"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise DataError(f"{path}:{lineno}: bad example "
                                    f"record: {exc}") from exc
                if not (type(session) is list and type(target) is int
                        and all(type(v) is int for v in session)):
                    raise DataError(f"{path}:{lineno}: session and target must "
                                    f"hold JSON integers")
                examples.append(Example(session, target))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return examples


def write_catalog(path, catalog: ItemCatalog):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"count": catalog.count, "item_to_index": catalog.item_to_index}, fh)


def read_catalog(path) -> ItemCatalog:
    """Read a catalog file; ``DataError`` unless it is a JSON object whose
    ``item_to_index`` maps raw ids onto the dense indices 0..count-1, and
    every index, and ``count`` if present, is a JSON integer."""
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: catalog is not valid JSON: {exc}") from exc
    mapping = rec.get("item_to_index") if isinstance(rec, dict) else None
    if not isinstance(mapping, dict):
        raise DataError(f"{path}: catalog has no item_to_index object")
    count = rec.get("count", len(mapping))
    if not all(type(v) is int for v in (count, *mapping.values())):
        raise DataError(f"{path}: catalog indices and count must be JSON "
                        f"integers")
    if set(mapping.values()) != set(range(len(mapping))):
        raise DataError(f"{path}: item_to_index must map onto 0.."
                        f"{len(mapping) - 1} one to one")
    if count != len(mapping):
        raise DataError(f"{path}: catalog count mismatch")
    return ItemCatalog(dict(mapping))
