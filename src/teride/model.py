"""Core data model: tuples, token sets, the repository, and query config.

A token set is a plain ``frozenset[str]``.  A missing attribute value is
represented by ``None``; a present value is a non-empty frozenset (an empty
present value is invalid and rejected at construction time).
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, EmptyValue, IncompleteTuple, TerideError

TokenSet = frozenset  # frozenset[str]

MISSING_CELL = "__MISSING__"

_SPLIT_RE = re.compile(r"[^0-9a-z]+")


def tokenize(raw: str) -> TokenSet:
    """Lowercase, split on whitespace/punctuation, and deduplicate into a token set."""
    tokens = frozenset(t for t in _SPLIT_RE.split(raw.lower()) if t)
    if not tokens:
        raise EmptyValue(f"value {raw!r} tokenizes to nothing")
    return tokens


def contains_keyword(tokens: TokenSet, keywords: frozenset) -> bool:
    """True iff the token set shares at least one token with the keyword set."""
    if not keywords:
        raise ConfigError("keyword set must be non-empty")
    return not tokens.isdisjoint(keywords)


def token_key(value: TokenSet) -> tuple:
    """Deterministic sort key for a token set."""
    return tuple(sorted(value))


def parse_token_set(text: str) -> TokenSet:
    """A token set written as its tokens joined by ``+`` (as in rule and pivot files).

    An empty token (``""``, ``"a++b"``) raises ValueError.
    """
    tokens = text.split("+")
    if not all(tokens):
        raise ValueError(f"empty token in {text!r}")
    return frozenset(tokens)


def token_postings(values: Sequence[TokenSet]) -> dict:
    """Token -> ascending positions of the values that hold it."""
    postings: dict = {}
    for i, v in enumerate(values):
        for t in v:
            postings.setdefault(t, []).append(i)
    return postings


@dataclass(frozen=True)
class StreamTuple:
    """One record of an (incomplete) stream.

    ``attrs`` has exactly d entries; each is either a non-empty frozenset of
    tokens or ``None`` for a missing value.
    """

    rid: str
    stream_id: int
    arrival_time: int
    attrs: tuple

    def __post_init__(self):
        if self.arrival_time < 0:
            raise ConfigError("arrival_time must be non-negative")
        for v in self.attrs:
            if v is not None and (not isinstance(v, frozenset) or not v):
                raise EmptyValue(f"tuple {self.rid}: present attribute values must be non-empty token sets")

    @property
    def d(self) -> int:
        return len(self.attrs)

    def is_complete(self) -> bool:
        return all(v is not None for v in self.attrs)

    def missing_attrs(self) -> tuple:
        return tuple(j for j, v in enumerate(self.attrs) if v is None)

    def require_complete(self) -> None:
        if not self.is_complete():
            raise IncompleteTuple(f"tuple {self.rid} has missing attributes {self.missing_attrs()}")


class Repository:
    """A complete sample collection plus per-attribute value domains."""

    def __init__(self, samples: Sequence[StreamTuple]):
        samples = list(samples)
        if not samples:
            raise ConfigError("repository must be non-empty")
        d = samples[0].d
        for s in samples:
            s.require_complete()
            if s.d != d:
                raise ConfigError("all repository samples must share one schema")
        self.samples = samples
        self.d = d
        self.domains: list[list] = []
        self._by_frequency: list[list] = []  # per attr: domain by (-count, token order)
        for j in range(d):
            counts = Counter(s.attrs[j] for s in samples)
            self.domains.append(sorted(counts, key=token_key))
            self._by_frequency.append(sorted(counts, key=lambda v: (-counts[v], token_key(v))))

    def domain(self, attr: int) -> list:
        return self.domains[attr]

    def top_values(self, attr: int, k: int) -> list:
        """The k most frequent domain values, ties broken by token order."""
        return self._by_frequency[attr][:k]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class QueryConfig:
    """Query parameters: topic keywords, thresholds, and window size.

    gamma is derived as rho * d and must lie in (0, d); alpha in [0, 1).
    """

    keywords: frozenset
    d: int
    rho: float
    alpha: float
    window_size: int

    def __post_init__(self):
        if not self.keywords:
            raise ConfigError("keyword set must be non-empty")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError("rho must be in (0, 1) so gamma lies in (0, d)")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError("alpha must be in [0, 1)")
        # a float size would never equal a window's length, so nothing would expire
        if isinstance(self.window_size, bool) or not isinstance(self.window_size, int):
            raise ConfigError(f"window_size must be an integer, got {self.window_size!r}")
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        if self.d < 1:
            raise ConfigError("d must be >= 1")

    @property
    def gamma(self) -> float:
        return self.rho * self.d


# ---------------------------------------------------------------------------
# CSV interchange: header `rid,stream_id,arrival_time,attr_1,...,attr_d`,
# with the literal cell __MISSING__ for a missing attribute.

def csv_header(d: int) -> list:
    return ["rid", "stream_id", "arrival_time"] + [f"attr_{j + 1}" for j in range(d)]


def read_tuples(path) -> list:
    return read_csv(path)[1]


def _csv_rows(fh, path):
    """(line, row) pairs of an open CSV file, ``line`` being where the row ends
    (a quoted cell may span lines); a row ``csv`` cannot parse (say, a field
    over its size limit) raises ConfigError naming the line, and bytes that are
    not UTF-8 raise ConfigError naming the file (the text layer decodes ahead
    in chunks, so no line is known)."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_csv(path) -> tuple:
    """``(d, tuples)`` of a stream CSV; ``d`` comes from the header, so a
    header-only file keeps its width."""
    tuples = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh, path)
        _, header = next(rows, (1, None))
        if header is None or len(header) < 4 or header[:3] != ["rid", "stream_id", "arrival_time"]:
            raise ConfigError(f"{path}: bad stream CSV header")
        d = len(header) - 3
        for lineno, row in rows:
            if len(row) != d + 3:
                raise ConfigError(f"{path}:{lineno}: expected {d + 3} cells, got {len(row)}")
            try:
                tuples.append(
                    StreamTuple(
                        rid=row[0],
                        stream_id=int(row[1]),
                        arrival_time=int(row[2]),
                        attrs=tuple(None if c == MISSING_CELL else tokenize(c) for c in row[3:]),
                    )
                )
            except (ValueError, TerideError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return d, tuples


def write_tuples(path, tuples: Iterable[StreamTuple], d: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(d))
        for r in tuples:
            cells = [MISSING_CELL if v is None else " ".join(sorted(v)) for v in r.attrs]
            writer.writerow([r.rid, r.stream_id, r.arrival_time] + cells)


def read_repository(path) -> Repository:
    return Repository(read_tuples(path))
