"""Reproducible N-way K-shot episode sampling and result aggregation.

Episodes are drawn from a labeled dataset index with seeded Fisher-Yates
selection (classes, then support examples, then queries), so a (index,
parameters, master seed) triple always serializes to the same bytes. Results
are kept as integer (correct, total) pairs and summarized with a Student-t
interval over per-episode accuracies.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable

import numpy as np
from scipy import special

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
            if not isinstance(ids, tuple) or not all(isinstance(i, str) for i in ids):
                raise ValueError(f"class {name!r} must map to an array of example ID strings")
            if not ids:
                raise ValueError(f"class {name!r} has no examples")
            if len(set(ids)) != len(ids):
                raise ValueError(f"class {name!r} has duplicate example IDs")

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
        for key in ("support_ids", "query_ids"):
            ids = getattr(self, key)
            if not isinstance(ids, (tuple, list)) or not all(isinstance(i, str) for i in ids):
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
    touched, so each row keeps 2k slots: target j < k is slot j, and target
    j >= k is slot k + the dense rank of j among the row's targets >= k. The k
    swap steps then run over every row at once, in O(rows * k) memory.
    """
    rows, k = steps.shape
    order = np.argsort(steps, axis=1, kind="stable")
    ordered = np.take_along_axis(steps, order, axis=1)
    high = ordered >= k
    first = high.copy()
    first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    slot_of = np.empty_like(steps)
    np.put_along_axis(
        slot_of, order, np.where(high, k - 1 + np.cumsum(first, axis=1), ordered), axis=1
    )
    base = np.arange(rows) * (2 * k)
    targets = base[:, None] + slot_of
    slots = np.empty(rows * 2 * k, dtype=steps.dtype)
    slots.reshape(rows, 2 * k)[:, :k] = np.arange(k)
    slots[targets] = steps
    taken = np.empty_like(steps)
    for i in range(k):
        target = targets[:, i]
        taken[:, i] = slots[target]
        slots[target] = slots[base + i]
    return taken


def _remainder(ids: tuple[str, ...], cuts: list[int]) -> tuple[str, ...]:
    """``ids`` without the sorted positions ``cuts``, in index order."""
    rest = ids[:cuts[0]]
    for lo, hi in zip(cuts, cuts[1:]):
        rest += ids[lo + 1:hi]
    return rest + ids[cuts[-1] + 1:]


def _unchecked(cls, **fields):
    """``cls(**fields)`` without ``__post_init__``, for fields valid by construction.

    The instance holds the same field values, so it is equal, hash-equal and
    repr-equal to one the constructor builds.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)  # as the frozen dataclass's __init__ does
    return obj


# Uniforms ``sample_episodes`` draws per numpy chunk of episodes; bounds memory only.
_CHUNK_UNIFORMS = 1 << 17


def sample_episodes(
    index: DatasetIndex,
    ways: int,
    shots: int,
    queries_per_class: int | None,
    count: int,
    master_seed: int,
) -> list[EpisodeSpec]:
    """Draw ``count`` reproducible episodes from the index.

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
    one batch of numpy steps, and the IDs are gathered with one index into
    an array of all IDs. That array costs O(total IDs) once per call (about
    0.2 ms on a 20 x 600 index; with a chunk's fixed numpy overhead a
    single-episode call takes about 0.5 ms), and after it an episode costs
    O(ways * (shots + q)), not the class sizes. The full remainder is built
    from slices between support positions.

    The returned ``EpisodeSpec`` and ``ClassSplit`` objects are built without
    their ``__post_init__`` checks, which could not fail here: the positions
    drawn in a class are distinct, and the index has already checked that its
    names and IDs are strings and that no class repeats an ID. They compare,
    hash and print as constructor-built ones do.
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
    names = [name for name, _ in index.classes]
    class_ids = [ids for _, ids in index.classes]
    sizes = np.array([len(ids) for _, ids in index.classes])
    offsets = np.cumsum(sizes) - sizes
    all_ids = np.array(list(chain.from_iterable(ids for _, ids in index.classes)), dtype=object)
    seeds = substream_seeds(master_seed, count).tolist()
    per_chunk = max(1, _CHUNK_UNIFORMS // width)
    episodes = []
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    for start in range(0, count, per_chunk):
        chunk_seeds = seeds[start:start + per_chunk]
        u = np.empty((len(chunk_seeds), width))
        for row, seed in enumerate(chunk_seeds):
            rekey_philox(bitgen, seed)
            rng.random(out=u[row])
        chosen = _take_positions(_fisher_yates_steps(u[:, :ways], len(names))).ravel()
        steps = _fisher_yates_steps(u[:, ways:].reshape(-1, k), sizes[chosen, None])
        taken = _take_positions(steps)
        flat = tuple(all_ids[(offsets[chosen, None] + taken).ravel()].tolist())
        chosen = chosen.tolist()
        starts = range(0, len(flat), k)
        if queries_per_class is None:
            cuts = np.sort(taken, axis=1).tolist()
            queries = [_remainder(class_ids[pos], c) for pos, c in zip(chosen, cuts)]
        else:
            queries = [flat[lo + shots:lo + k] for lo in starts]
        splits = tuple(
            _unchecked(ClassSplit, class_name=names[pos], support_ids=flat[lo:lo + shots],
                       query_ids=query_ids)
            for pos, lo, query_ids in zip(chosen, starts, queries)
        )
        episodes.extend(
            _unchecked(EpisodeSpec, episode_id=start + e, seed=seed, ways=ways, shots=shots,
                       per_class=splits[e * ways:(e + 1) * ways])
            for e, seed in enumerate(chunk_seeds)
        )
    return episodes


def aggregate(results: list[EpisodeResult]) -> AggregateReport:
    """Mean, inter-episode sample std and t-based 95% half-width."""
    if len(results) < 2:
        raise ValueError("aggregation needs at least 2 episode results")
    counts = Counter(r.episode_id for r in results)
    if len(counts) != len(results):
        repeated = sorted(i for i, n in counts.items() if n > 1)
        raise ValueError(f"episode IDs must be distinct; repeated: {repeated}")
    acc = np.array([r.accuracy for r in results])
    n = len(acc)
    std = float(np.std(acc, ddof=1))
    t975 = float(special.stdtrit(n - 1, 0.975))
    return AggregateReport(
        episodes=n,
        mean_acc=float(np.mean(acc)),
        std_acc=std,
        ci95_halfwidth=t975 * std / math.sqrt(n),
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


# What JSON escapes in a string with ensure_ascii=False: '"', '\\' and U+0000-U+001F.
_JSON_ESCAPED = b'"\\' + bytes(range(0x20))


def _json_strings(strings: tuple[str, ...]) -> str:
    return '["' + '","'.join(strings) + '"]' if strings else "[]"


def episode_to_json(episode: EpisodeSpec) -> str:
    """Canonical single-line JSON; equal episodes serialize to equal bytes.

    The keys are the ``EpisodeSpec`` and ``ClassSplit`` fields in declaration order:
    the output is ``json.dumps(episode, default=vars, separators=(",", ":"),
    ensure_ascii=False)``. When no class name or ID needs escaping, the same text
    is built by joining whole ID tuples, which is several times faster than
    encoding each ID on its own. ``EpisodeSpec`` holds exact ``int`` fields, so
    ``%d`` writes them as ``json.dumps`` does.
    """
    splits = []
    quotes = 0
    for split in episode.per_class:
        support, query = split.support_ids, split.query_ids
        splits.append(
            '{"class_name":"' + split.class_name + '","support_ids":'
            + _json_strings(support) + ',"query_ids":' + _json_strings(query) + "}"
        )
        # 8 for the three keys and the class name, 2 per ID.
        quotes += 8 + 2 * (len(support) + len(query))
    body = ",".join(splits)
    raw = body.encode("utf-8", "surrogatepass")
    if len(raw.translate(None, _JSON_ESCAPED)) == len(raw) - quotes:
        return '{"episode_id":%d,"seed":%d,"ways":%d,"shots":%d,"per_class":[%s]}' % (
            episode.episode_id, episode.seed, episode.ways, episode.shots, body
        )
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
    try:
        obj = _EPISODE_DECODER.decode(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"not valid JSON: {exc}") from None
    return EpisodeSpec(
        **{key: _json_field(obj, key, int) for key in ("episode_id", "seed", "ways", "shots")},
        per_class=tuple(
            ClassSplit(
                class_name=_json_field(split, "class_name", str),
                support_ids=tuple(_json_field(split, "support_ids", list)),
                query_ids=tuple(_json_field(split, "query_ids", list)),
            )
            for split in _json_field(obj, "per_class", list)
        ),
    )


def write_episodes(path_or_file: str | Path | IO[str], episodes: Iterable[EpisodeSpec]) -> None:
    """Write episodes as JSON Lines, one object per line."""
    if hasattr(path_or_file, "write"):
        target = nullcontext(path_or_file)
    else:
        target = open(path_or_file, "w", encoding="utf-8")
    with target as fh:
        for episode in episodes:
            fh.write(episode_to_json(episode) + "\n")


def read_episodes(path: str | Path) -> list[EpisodeSpec]:
    """Episodes from a JSON Lines file; a malformed line raises ValueError naming it."""
    episodes = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                episodes.append(episode_from_json(line))
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
    return episodes


def write_results_csv(path: str | Path, results: Iterable[EpisodeResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_HEADER)
        for r in results:
            writer.writerow([r.episode_id, r.correct, r.total])


def read_results_csv(path: str | Path) -> list[EpisodeResult]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _results_from_rows(reader, path)
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


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
