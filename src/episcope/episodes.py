"""Reproducible N-way K-shot episode sampling and result aggregation.

Episodes are drawn from a labeled dataset index with seeded Fisher-Yates
selection (classes, then support examples, then queries), so a (index,
parameters, master seed) triple always serializes to the same bytes. Results
are kept as integer (correct, total) pairs and summarized with a Student-t
interval over per-episode accuracies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .seeds import check_seed, rekey_philox, substream_seeds
from .variance import AccuracyPrior, _ascii_number, _check_positive_int

RESULTS_CSV_HEADER = ["episode_id", "correct", "total"]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for the JSON loaders: a key given twice raises ValueError.

    ``json`` would otherwise keep the last value and silently drop the first.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return obj


# One decoder for every episode line. ``json.loads(line, object_pairs_hook=...)``
# builds a new decoder per call, and after a 600-episode all-queries file was
# read that way, ~90 MB of its freed episodes stayed resident (CPython 3.11).
_EPISODE_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _utf8_encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class DatasetIndex:
    """Ordered class -> example-ID listing a sampler can draw from."""

    classes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.classes]
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"class name {name!r} is not a string")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        for name, ids in self.classes:
            if not isinstance(ids, tuple) or not all(map(isinstance, ids, repeat(str))):
                raise ValueError(f"class {name!r} must map to an array of example ID strings")
            if not ids:
                raise ValueError(f"class {name!r} has no examples")
            if len(set(ids)) != len(ids):
                raise ValueError(f"class {name!r} has duplicate example IDs")
            # A lone surrogate (a "\ud800" escape in the JSON) has no UTF-8 form, so
            # no episode holding it could be written.
            if not _utf8_encodable(name + "".join(ids)):
                bad = next(s for s in (name, *ids) if not _utf8_encodable(s))
                what = "its name" if bad is name else f"example ID {bad!r}"
                raise ValueError(
                    f"class {name!r}: {what} holds a lone surrogate, which UTF-8 cannot encode"
                )

    @classmethod
    def from_mapping(cls, mapping: dict[str, list[str]]) -> "DatasetIndex":
        return cls(tuple(
            (name, tuple(ids) if isinstance(ids, list) else ids) for name, ids in mapping.items()
        ))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetIndex":
        with open(path, encoding="utf-8") as fh:
            try:
                mapping = json.load(fh, object_pairs_hook=_unique_keys)
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ValueError(f"{path}: not a valid JSON file: {exc}") from None
        if not isinstance(mapping, dict):
            raise ValueError(f"{path}: dataset index must be a JSON object")
        return cls.from_mapping(mapping)


@dataclass(frozen=True)
class ClassSplit:
    """One class's support/query assignment within an episode."""

    class_name: str
    support_ids: tuple[str, ...]
    query_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.class_name, str):
            raise ValueError(f"class_name must be a string, got {self.class_name!r}")
        for key, ids in (("support_ids", self.support_ids), ("query_ids", self.query_ids)):
            if not isinstance(ids, (tuple, list)) or not all(map(isinstance, ids, repeat(str))):
                raise ValueError(f"{key!r} must be an array of example ID strings")
            if not isinstance(ids, tuple):  # a list would leave the split unhashable
                raise ValueError(f"{key!r} must be a tuple, got a list")


def _id_clash(split: ClassSplit) -> str:
    """Why a split's support and query IDs are not all distinct."""
    for kind, ids in (("support", split.support_ids), ("query", split.query_ids)):
        repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
        if repeated:
            return f"repeated {kind} IDs {repeated}"
    return f"support/query overlap {sorted(set(split.support_ids).intersection(split.query_ids))}"


@dataclass(frozen=True)
class EpisodeSpec:
    """A fully materialized episode: classes plus their support/query IDs."""

    episode_id: int
    seed: int
    ways: int
    shots: int
    per_class: tuple[ClassSplit, ...]

    def __post_init__(self) -> None:
        for key in ("episode_id", "seed", "ways", "shots"):
            value = getattr(self, key)
            if type(value) is not int:
                raise ValueError(
                    f"episode {self.episode_id!r}: {key} must be an integer, got {value!r}"
                )
        try:
            if self.episode_id < 0:
                raise ValueError(f"episode_id must be >= 0, got {self.episode_id}")
            check_seed(self.seed, "seed")
            _check_positive_int(self.ways, "ways")
            _check_positive_int(self.shots, "shots")
        except ValueError as exc:
            raise ValueError(f"episode {self.episode_id}: {exc}") from None
        if not isinstance(self.per_class, tuple) or not all(
            isinstance(split, ClassSplit) for split in self.per_class
        ):
            raise ValueError(f"episode {self.episode_id}: per_class must be a tuple of ClassSplit")
        if len(self.per_class) != self.ways:
            raise ValueError(
                f"episode {self.episode_id}: expected {self.ways} classes, "
                f"got {len(self.per_class)}"
            )
        names = [split.class_name for split in self.per_class]
        if len(set(names)) != len(names):
            repeated = sorted({name for name in names if names.count(name) > 1})
            raise ValueError(f"episode {self.episode_id}: class names repeated {repeated}")
        for split in self.per_class:
            if len(split.support_ids) != self.shots:
                raise ValueError(
                    f"episode {self.episode_id}, class {split.class_name!r}: "
                    f"expected {self.shots} support IDs, got {len(split.support_ids)}"
                )
            seen = set(split.support_ids)
            seen.update(split.query_ids)
            if len(seen) != len(split.support_ids) + len(split.query_ids):
                raise ValueError(
                    f"episode {self.episode_id}, class {split.class_name!r}: {_id_clash(split)}"
                )


@dataclass(frozen=True)
class EpisodeResult:
    """Query outcome of one evaluated episode, as exact integers."""

    episode_id: int
    correct: int
    total: int

    def __post_init__(self) -> None:
        for key in ("episode_id", "correct", "total"):
            value = getattr(self, key)
            if type(value) is not int:
                raise ValueError(
                    f"episode {self.episode_id!r}: {key} must be an integer, got {value!r}"
                )
        if self.total < 1:
            raise ValueError(f"episode {self.episode_id}: total must be >= 1")
        if not 0 <= self.correct <= self.total:
            raise ValueError(
                f"episode {self.episode_id}: correct={self.correct} outside [0, {self.total}]"
            )

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass(frozen=True)
class AggregateReport:
    """Mean accuracy with inter-episode std and Student-t 95% half-width."""

    episodes: int
    mean_acc: float
    std_acc: float
    ci95_halfwidth: float

    def formatted(self) -> str:
        """Accuracy as percentage points, e.g. ``93.13 ± 0.51``."""
        return f"{100.0 * self.mean_acc:.2f} ± {100.0 * self.ci95_halfwidth:.2f}"


def _fisher_yates_steps(u: np.ndarray, n) -> np.ndarray:
    """Swap targets j_i = i + floor(u_i * (n - i)) of a partial Fisher-Yates over range(n).

    Step i runs along the last axis of ``u`` (uniforms on [0, 1)); ``n`` broadcasts
    against it, so each row may shuffle a different size. Every u < 1 gives
    j_i <= n - 1 for n < 2**53: the product rounds below n - i.
    """
    i = np.arange(u.shape[-1])
    return i + (u * (n - i)).astype(np.int64)


def _take_positions(steps: np.ndarray) -> np.ndarray:
    """Positions partial Fisher-Yates shuffles with swap targets ``steps`` put first.

    Row r of the ``(rows, k)`` array ``steps`` is one shuffle: step i swaps slot i
    with slot ``steps[r, i]`` (>= i). Only slots 0..k-1 and the targets are ever
    touched, so all rows together keep 2 * rows * k slots, in O(rows * k) memory:
    row r's slot j < k is ``r * k + j``, and its target j >= k is slot
    ``rows * k - 1`` + the dense rank of (r, j) among every row's targets >= k.
    One ``cumsum`` over the rows' sorted targets, laid end to end, gives those
    ranks: it counts each target >= k that differs from the one before it or
    starts its row. Equal targets of a row get one rank whatever their order, so
    numpy's default (unstable) sort gives the same slots as a stable one. The k
    swap steps then run over every row at once, on a contiguous ``(k, rows)``
    target array, and read each row's own slot i as a strided column of the
    lower slots.
    """
    rows, k = steps.shape
    n = rows * k
    base = np.arange(0, n, k)[:, None]
    order = np.argsort(steps, axis=1)
    order += base
    order = order.ravel()
    ordered = steps.ravel()[order]
    high = ordered >= k
    first = high.astype(steps.dtype)  # cumsum over a bool array is several times slower
    first[1:] *= ordered[1:] != ordered[:-1]
    first[::k] = high[::k]
    slot = np.where(high, n - 1 + np.cumsum(first), (ordered.reshape(rows, k) + base).ravel())
    slot_of = np.empty(n, dtype=steps.dtype)
    slot_of[order] = slot
    targets = np.ascontiguousarray(slot_of.reshape(rows, k).T)
    slots = np.empty(2 * n, dtype=steps.dtype)
    own = slots[:n].reshape(rows, k)
    own[:] = np.arange(k)
    slots[slot] = ordered
    taken = np.empty((k, rows), dtype=steps.dtype)
    for i in range(k):
        target = targets[i]
        taken[i] = slots[target]
        slots[target] = own[:, i]
    return taken.T


# Uniforms ``sample_episodes`` draws per numpy chunk of episodes; bounds memory only.
_CHUNK_UNIFORMS = 1 << 17


class EpisodeBatch(Sequence):
    """The episodes one :func:`sample_episodes` call drew, held as drawn positions.

    For each chunk of episodes the batch keeps the first episode ID, the
    episode seeds, the chosen class positions (``ways`` per episode) and, per
    (episode, class) row, the ID positions its shuffle took. A batch is its
    JSONL lines: :func:`write_episodes` writes them from the positions, and
    indexing or iterating writes the lines it needs and reads each back with
    :func:`episode_from_json`, so every ``EpisodeSpec`` and ``ClassSplit`` is
    built and checked by its constructor. An index writes one episode's line;
    iteration writes a chunk at a time. The episodes one iteration, index or
    slice returns hold each distinct example ID string once. A batch equals
    a list or a batch of equal episodes in the same order, so ``list(batch)``
    is the list of episodes; a slice is a list.
    """

    def __init__(self, index, ways, shots, queries_per_class, sizes, per_chunk, chunks):
        self._index = index
        self._ways, self._shots, self._queries = ways, shots, queries_per_class
        self._sizes = sizes  # IDs per class
        self._per_chunk = per_chunk  # episodes per chunk; only the last may hold fewer
        # (first episode ID, seeds, chosen, taken) per chunk, as sample_episodes drew them
        self._chunks = chunks
        self._len = sum(len(seeds) for _, seeds, _, _ in chunks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(self._decode(map(self._episode_chunk, range(*item.indices(self._len)))))
        i = operator.index(item)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("episode index out of range")
        return next(self._decode([self._episode_chunk(i)]))

    def _episode_chunk(self, i: int) -> tuple:
        """Episode ``i`` (0 <= i < len) as a chunk of its own."""
        chunk, row = divmod(i, self._per_chunk)
        _, seeds, chosen, taken = self._chunks[chunk]
        rows = slice(row * self._ways, (row + 1) * self._ways)
        return i, seeds[row:row + 1], chosen[rows], taken[rows]

    def __iter__(self) -> Iterator[EpisodeSpec]:
        return self._decode(self._chunks)

    def __eq__(self, other):
        if not isinstance(other, (EpisodeBatch, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # a Sequence that compares by value, like a list

    def _decode(self, chunks) -> Iterator[EpisodeSpec]:
        """The episodes of ``chunks``: their lines read back by :func:`episode_from_json`.

        The episodes of one call share each distinct example ID string.
        """
        memo: dict[str, str] = {}
        for block in self._text(chunks):
            # Split at "\n" only: str.splitlines() also splits at U+2028 and U+0085,
            # which JSON leaves unescaped with ensure_ascii=False.
            for line in block.split("\n")[:-1]:
                yield _episode_from_json(line, memo)

    def _text(self, chunks) -> Iterator[str]:
        """The :func:`episode_to_json` lines of ``chunks``, in blocks of whole lines.

        No episode object is built: the lines are joined from the strings of
        :attr:`_encoded`, so a call's own work is in the rows it writes.
        """
        line_head = '{"episode_id":%%d,"seed":%%d,"ways":%d,"shots":%d,"per_class":[' % (
            self._ways, self._shots
        )
        if self._queries is None:
            return self._all_queries_lines(chunks, line_head)
        return self._fixed_lines(chunks, line_head)

    @cached_property
    def _encoded(self) -> tuple:
        """(heads, quoted, offsets, text, at) over the classes any episode of the batch chose.

        Built once per batch, when a call first needs it; threads that race to
        build it store equal values. Names and IDs are JSON-encoded by the
        function ``json.dumps(..., ensure_ascii=False)`` uses for strings. Class
        c's line head is heads[c] and its quoted IDs are
        quoted[offsets[c]:offsets[c] + sizes[c]]; a class no episode chose has
        none. With all queries, text[c] is those IDs joined by ",", and quoted
        ID g of class c starts at character at[g] - at[offsets[c]] of text[c]
        (len(text[c]) + 1 for g one past the class's last ID); with fixed
        queries, text is empty and at is None.
        """
        classes = self._index.classes
        used = np.zeros(len(classes), dtype=bool)
        for _, _, chosen, _ in self._chunks:
            used[chosen] = True
        sizes = np.where(used, self._sizes, 0)
        heads = np.empty(len(classes), dtype=object)
        quoted, text, at = [], {}, None
        for c in np.flatnonzero(used).tolist():
            name, ids = classes[c]
            heads[c] = '{"class_name":%s,"support_ids":[' % encode_basestring(name)
            class_quoted = [encode_basestring(i) for i in ids]
            quoted += class_quoted
            if self._queries is None:
                text[c] = ",".join(class_quoted)
        if self._queries is None:
            at = np.zeros(len(quoted) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, quoted), np.int64, len(quoted)) + 1, out=at[1:])
        return heads, np.array(quoted, dtype=object), np.cumsum(sizes) - sizes, text, at

    def _fixed_lines(self, chunks, line_head) -> Iterator[str]:
        """Lines of fixed-query episodes: one join, and one block, per chunk."""
        ways, shots = self._ways, self._shots
        heads, quoted, offsets, _, _ = self._encoded
        # Row r of a chunk is: episode head (first class only), class head, then
        # each picked ID followed by its separator.
        seps = np.array(
            [","] * (shots - 1) + ['],"query_ids":['] + [","] * (self._queries - 1) + ["]},"],
            dtype=object,
        )
        for start, seeds, chosen, taken in chunks:
            grid = np.empty((len(chosen), 2 + 2 * taken.shape[1]), dtype=object)
            grid[:, 0] = ""
            grid[::ways, 0] = [line_head % (start + e, seed) for e, seed in enumerate(seeds)]
            grid[:, 1] = heads[chosen]
            grid[:, 2::2] = quoted[offsets[chosen, None] + taken]
            grid[:, 3::2] = seps
            grid[ways - 1::ways, -1] = "]}]}\n"
            yield "".join(grid.ravel().tolist())

    def _all_queries_lines(self, chunks, line_head) -> Iterator[str]:
        """Lines of full-remainder episodes, one block per line.

        Each class's quoted IDs are joined once per batch, and an episode's
        queries are the slices of that text between its sorted support
        positions. A line is a block on its own because a chunk of such lines
        can be far larger than the chunk's uniforms.
        """
        ways, sizes = self._ways, self._sizes
        heads, quoted, offsets, text, at = self._encoded
        for start, seeds, chosen, taken in chunks:
            # Query runs lie between the sorted support positions: [0, cut_0),
            # (cut_0, cut_1), ..., (cut_last, size), as character spans of text[c].
            lo = offsets[chosen, None]
            cuts = np.sort(taken, axis=1)
            ends = np.concatenate([cuts, sizes[chosen, None]], axis=1)
            begins = np.concatenate([np.zeros_like(cuts[:, :1]), cuts + 1], axis=1)
            first = (at[lo + begins] - at[lo]).tolist()
            last = (at[lo + ends] - at[lo] - 1).tolist()
            support = quoted[lo + taken].tolist()
            heads_of = heads[chosen].tolist()
            chosen = chosen.tolist()
            for e, seed in enumerate(seeds):
                # One flat list of pieces and one join per line. Every class has a
                # query, so each class's pieces end with a "," that closes it.
                pieces = [line_head % (start + e, seed)]
                for r in range(e * ways, (e + 1) * ways):
                    pieces += (heads_of[r], ",".join(support[r]), '],"query_ids":[')
                    class_text = text[chosen[r]]
                    for a, b in zip(first[r], last[r]):
                        if a < b:
                            pieces += (class_text[a:b], ",")
                    pieces[-1] = "]},"
                pieces[-1] = "]}]}\n"
                yield "".join(pieces)


def sample_episodes(
    index: DatasetIndex,
    ways: int,
    shots: int,
    queries_per_class: int | None,
    count: int,
    master_seed: int,
) -> EpisodeBatch:
    """Draw ``count`` reproducible episodes from the index, as an :class:`EpisodeBatch`.

    ``queries_per_class=None`` assigns every non-support example of each
    chosen class as a query, in index order; an integer samples that many.
    Episode e draws from its own Philox substream (keyed by seed output e of
    the SplitMix64 sequence at the master seed), so any subset of episodes
    can be regenerated independently.

    Each episode takes one block of ``ways + ways * (shots + q)`` uniforms
    from its substream, with q the queries per class (0 for the full
    remainder): the ``ways`` class uniforms first, then for each chosen class
    in draw order its ``shots`` support uniforms and its q query uniforms.
    Uniform u_i at step i of a partial Fisher-Yates shuffle over n items
    picks slot j_i = i + floor(u_i * (n - i)): classes over the index, then
    one shuffle of ``shots + q`` steps over each chosen class's ID list,
    whose first ``shots`` positions are the support and the rest the queries.
    The 2**53 equally likely values of u split unevenly over the m = n - i
    slots, so each slot's probability is 1/m to within a relative m * 2**-53
    per draw.

    Episodes are drawn in chunks of at most ``_CHUNK_UNIFORMS`` uniforms
    (at least one episode), which bounds the working memory; the chunking
    does not change the stream. Per chunk, the class shuffles of every
    episode and the position shuffles of every (episode, class) row run as
    one batch of numpy steps, so an episode costs O(ways * (shots + q)), not
    the class sizes. The call returns the drawn positions, not episode
    objects: :func:`write_episodes` writes a batch's lines from them without
    building any, and indexing or iterating the batch reads those lines back
    with :func:`episode_from_json`. ``list(...)`` of the batch gives the
    episodes as a list.
    """
    for name, value in (("ways", ways), ("shots", shots), ("count", count)):
        _check_positive_int(value, name)
    if queries_per_class is not None:
        _check_positive_int(queries_per_class, "queries_per_class")
    check_seed(master_seed, "master_seed")

    if ways > len(index.classes):
        raise ValueError(
            f"cannot sample {ways}-way episodes from {len(index.classes)} classes"
        )
    needed = shots + (queries_per_class if queries_per_class is not None else 1)
    for name, ids in index.classes:
        if len(ids) < needed:
            raise ValueError(
                f"class {name!r} has {len(ids)} examples but episodes need "
                f"at least {needed} (shots + queries)"
            )

    k = shots + (queries_per_class or 0)
    width = ways + ways * k
    sizes = np.array([len(ids) for _, ids in index.classes])
    seeds = substream_seeds(master_seed, count).tolist()
    per_chunk = max(1, _CHUNK_UNIFORMS // width)
    chunks = []
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    for start in range(0, count, per_chunk):
        chunk_seeds = seeds[start:start + per_chunk]
        u = np.empty((len(chunk_seeds), width))
        for row, seed in zip(u, chunk_seeds):
            rekey_philox(bitgen, seed)
            rng.random(out=row)
        chosen = _take_positions(_fisher_yates_steps(u[:, :ways], len(sizes))).ravel()
        steps = _fisher_yates_steps(u[:, ways:].reshape(-1, k), sizes[chosen, None])
        chunks.append((start, chunk_seeds, chosen, _take_positions(steps)))
    return EpisodeBatch(index, ways, shots, queries_per_class, sizes, per_chunk, chunks)


_Z975 = 1.959963984540054  # the standard normal 0.975 quantile


def _abs_t_cdf(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer ``df``: A&S 26.7.3 (odd) and 26.7.4 (even).

    The finite series in cos(theta)**2 has only positive terms, so nothing cancels.
    """
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        term = total = math.cos(theta) if df > 1 else 0.0
        for k in range(2, df - 1, 2):
            term *= c2 * k / (k + 1)
            total += term
        return 2 / math.pi * (theta + math.sin(theta) * total)
    term = total = 1.0
    for k in range(1, df - 2, 2):
        term *= c2 * k / (k + 1)
        total += term
    return math.sin(theta) * total


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer ``df`` >= 1.

    For df >= 1000 it is the four-term Cornish-Fisher expansion around the normal
    quantile (A&S 26.7.5), whose truncation error is below 1e-15 * t there. Below
    1000 that expansion starts Newton's method on P(|T| <= t) = 0.95, whose
    derivative is twice the density. The start lies below the root and
    P(|T| <= t) is concave for t > 0, so the iterates rise to the root; a step
    below 1e-8 * t leaves an error near 1e-16 * t, and the loop stops after it.
    """
    x2 = _Z975 * _Z975
    g1 = (x2 + 1) * _Z975 / 4
    g2 = ((5 * x2 + 16) * x2 + 3) * _Z975 / 96
    g3 = (((3 * x2 + 19) * x2 + 17) * x2 - 15) * _Z975 / 384
    g4 = ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) * _Z975 / 92160
    t = _Z975 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    if df >= 1000:
        return t
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    step = t
    while abs(step) > 1e-8 * t:
        pdf = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_abs_t_cdf(t, df) - 0.95) / (2 * pdf)
        t -= step
    return t


def aggregate(results: list[EpisodeResult]) -> AggregateReport:
    """Mean, inter-episode sample std and t-based 95% half-width.

    All three are of the per-episode accuracies correct/total, each episode
    weighted equally: when totals differ, the mean is not the pooled
    sum(correct)/sum(total). The half-width is t * std / sqrt(n), with t the
    0.975 quantile of Student's t at n - 1 degrees of freedom, computed from
    Abramowitz & Stegun 26.7.3-26.7.5 (see :func:`_t975`).
    """
    if len(results) < 2:
        raise ValueError("aggregation needs at least 2 episode results")
    counts = Counter(r.episode_id for r in results)
    if len(counts) != len(results):
        repeated = sorted(i for i, n in counts.items() if n > 1)
        raise ValueError(f"episode IDs must be distinct; repeated: {repeated}")
    acc = np.array([r.accuracy for r in results])
    n = len(acc)
    std = float(np.std(acc, ddof=1))
    return AggregateReport(
        episodes=n,
        mean_acc=float(np.mean(acc)),
        std_acc=std,
        ci95_halfwidth=_t975(n - 1) * std / math.sqrt(n),
    )


def prior_from_results(results: list[EpisodeResult]) -> AccuracyPrior:
    """Accuracy prior estimated from observed per-episode accuracies.

    The sample std also contains query-sampling noise (roughly
    mean(acc*(1-acc))/Kq per episode), so it overstates the true
    inter-episode spread when Kq is small; with large query sets the bias is
    negligible.
    """
    report = aggregate(results)
    return AccuracyPrior(mean=report.mean_acc, std=report.std_acc)


# --- serialization ---------------------------------------------------------


def episode_to_json(episode: EpisodeSpec) -> str:
    """Canonical single-line JSON; equal episodes serialize to equal bytes.

    The keys are the ``EpisodeSpec`` and ``ClassSplit`` fields in declaration order:
    the output is ``json.dumps(episode, default=vars, separators=(",", ":"),
    ensure_ascii=False)``. An :class:`EpisodeBatch` writes the same lines from its
    drawn positions.
    """
    return json.dumps(episode, default=vars, separators=(",", ":"), ensure_ascii=False)


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_field(obj, key: str, kind: type):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {_JSON_TYPES[type(obj)]}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def episode_from_json(line: str) -> EpisodeSpec:
    """Rebuild an episode from one line of :func:`episode_to_json` output.

    Invalid JSON, a missing key or a value of the wrong type raises ValueError.
    """
    return _episode_from_json(line, {})


def _episode_from_json(line: str, memo: dict[str, str]) -> EpisodeSpec:
    """:func:`episode_from_json`, with each example ID taken from ``memo``.

    ``memo`` maps an ID to the first equal string decoded through it and gains
    every new one, so the episodes decoded through one memo hold each distinct
    ID once. IDs repeat across episodes (with all queries, a class's IDs recur
    in every episode that draws it), and a string per occurrence would hold
    several times the file's size.
    """
    try:
        obj = _EPISODE_DECODER.decode(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"not valid JSON: {exc}") from None
    share = memo.setdefault
    return EpisodeSpec(
        **{key: _json_field(obj, key, int) for key in ("episode_id", "seed", "ways", "shots")},
        per_class=tuple(
            ClassSplit(
                class_name=_json_field(split, "class_name", str),
                support_ids=_shared_ids(_json_field(split, "support_ids", list), share),
                query_ids=_shared_ids(_json_field(split, "query_ids", list), share),
            )
            for split in _json_field(obj, "per_class", list)
        ),
    )


def _shared_ids(ids: list, share) -> tuple:
    """``ids`` as a tuple of the strings ``share``, a memo's setdefault, holds for them."""
    try:
        return tuple(map(share, ids, ids))
    except TypeError:  # an unhashable ID, which ClassSplit rejects
        return tuple(ids)


def write_episodes(path_or_file: str | Path | IO[str], episodes: Iterable[EpisodeSpec]) -> None:
    """Write episodes as JSON Lines, one object per line."""
    if hasattr(path_or_file, "write"):
        target = nullcontext(path_or_file)
    else:
        target = open(path_or_file, "w", encoding="utf-8")
    with target as fh:
        if isinstance(episodes, EpisodeBatch):
            fh.writelines(episodes._text(episodes._chunks))
            return
        for episode in episodes:
            fh.write(episode_to_json(episode) + "\n")


def read_episodes(path: str | Path) -> list[EpisodeSpec]:
    """Episodes from a JSON Lines file; a malformed line raises ValueError naming it.

    The lines are decoded as by :func:`episode_from_json`, through one memo per
    call, so the episodes hold each distinct example ID string once.
    """
    episodes = []
    memo: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    episodes.append(_episode_from_json(line, memo))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {number}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a UTF-8 text file: {exc}") from None
    return episodes


def write_results_csv(path: str | Path, results: Iterable[EpisodeResult]) -> None:
    """Write results as CSV rows under ``RESULTS_CSV_HEADER``.

    Every row is rendered before the file is opened, so a result that cannot
    be written (an integer longer than ``sys.get_int_max_str_digits()``)
    raises a ``ValueError`` naming its episode and leaves an existing file as
    it was.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(RESULTS_CSV_HEADER)
    for i, r in enumerate(results):
        try:
            writer.writerow([r.episode_id, r.correct, r.total])
        except ValueError as exc:
            try:
                name = f"episode {r.episode_id}"
            except ValueError:  # the ID itself is too long to print
                name = f"result {i}"
            raise ValueError(f"{name}: too long to write as decimal text: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.getvalue())


def read_results_csv(path: str | Path) -> list[EpisodeResult]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _results_from_rows(reader, path)
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a UTF-8 text file: {exc}") from None


def _results_from_rows(reader, path: str | Path) -> list[EpisodeResult]:
    header = next(reader, None)
    if header != RESULTS_CSV_HEADER:
        raise ValueError(
            f"{path}: expected header {','.join(RESULTS_CSV_HEADER)!r}, got {header!r}"
        )
    results = []
    for row in reader:
        if not row:
            continue
        try:
            episode_id, correct, total = (_ascii_number(field, int) for field in row)
        except ValueError:
            raise ValueError(
                f"{path}: line {reader.line_num}: expected 3 integer fields "
                f"{','.join(RESULTS_CSV_HEADER)}, got {','.join(row)!r}"
            ) from None
        try:
            results.append(EpisodeResult(episode_id=episode_id, correct=correct, total=total))
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return results
