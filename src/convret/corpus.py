"""Data model for multi-session dialogues with grounded retrieval candidates.

A corpus couples dialogues (ordered sessions of user/system utterances) with
three global candidate pools, one per retrieval task, and a list of
retrieval examples binding a user turn to its positive candidate and the
candidates selected at earlier turns. Corpora are immutable after load and
all sampling takes an explicit seed. Training reads a corpus compiled once
per vocabulary into index arrays (``Corpus.training_inputs``).
"""

from __future__ import annotations

import collections
import contextlib
import enum
import hashlib
import itertools
import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError, IntegrityError, ParseError

# Reserved tokens occupying the lowest vocabulary ids, fixed across runs.
SPECIAL_TOKENS = ("[CLS]", "[SEP]", "[USR]", "[SYS]",
                  "[PERSONA]", "[KNOWLEDGE]", "[RESPONSE]", "[UNK]", "[PAD]")
CLS_ID, SEP_ID, USR_ID, SYS_ID = 0, 1, 2, 3
PERSONA_ID, KNOWLEDGE_ID, RESPONSE_ID, UNK_ID, PAD_ID = 4, 5, 6, 7, 8


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (seed, tags); stable across platforms."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode())
    return np.random.default_rng(int.from_bytes(h.digest(), "little"))


class Role(enum.Enum):
    USER = "user"
    SYSTEM = "system"


class TaskKind(enum.Enum):
    PERSONA = "persona"
    KNOWLEDGE = "knowledge"
    RESPONSE = "response"


# an encoded text is CLS, a lead token (speaker role or retrieval task), then
# at most this many word ids
MAX_UTTERANCE_TOKENS = 64
MAX_CANDIDATE_TOKENS = 512
ROLE_TOKEN = {Role.USER: USR_ID, Role.SYSTEM: SYS_ID}
TASK_TOKEN = {TaskKind.PERSONA: PERSONA_ID, TaskKind.KNOWLEDGE: KNOWLEDGE_ID,
              TaskKind.RESPONSE: RESPONSE_ID}


@dataclass(frozen=True, slots=True)
class Utterance:
    role: Role
    text: str
    turn_index: int

    def __post_init__(self):
        if not self.text.strip():
            raise ContractError("utterance text is empty")
        if self.turn_index < 0:
            raise ContractError(f"negative turn index {self.turn_index}")


@dataclass(frozen=True, slots=True)
class Session:
    utterances: tuple[Utterance, ...]

    def __post_init__(self):
        if not self.utterances:
            raise ContractError("session has no utterances")
        indices = [u.turn_index for u in self.utterances]
        if not all(map(operator.lt, indices, indices[1:])):
            raise ContractError(f"turn indices not strictly increasing: {indices}")


@dataclass(frozen=True, slots=True)
class Dialogue:
    dialogue_id: str
    sessions: tuple[Session, ...]

    def __post_init__(self):
        if not self.sessions:
            raise ContractError(f"dialogue {self.dialogue_id} has no sessions")

    def turns(self) -> list[Utterance]:
        return [u for s in self.sessions for u in s.utterances]


@dataclass(frozen=True, slots=True)
class Candidate:
    candidate_id: str
    task: TaskKind
    text: str


@dataclass(frozen=True, slots=True)
class RetrievalExample:
    dialogue_id: str
    query_turn_index: int
    task: TaskKind
    positive_id: str
    historical_ids: tuple[str, ...]


@dataclass
class Corpus:
    dialogues: list[Dialogue]
    pools: dict[TaskKind, dict[str, Candidate]]
    examples: list[RetrievalExample]
    vocab: dict[str, int]
    _by_id: dict[str, Dialogue] = field(init=False, repr=False)
    # instrumentation: counts candidate reads per task (e.g. to verify that
    # single-task training never touches the other pools)
    pool_reads: dict[TaskKind, int] = field(init=False, repr=False, compare=False)
    _orders: dict[TaskKind, tuple[list[str], dict[str, int]]] = field(
        init=False, repr=False, compare=False)
    _inputs: TrainingInputs | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pool_reads = {t: 0 for t in TaskKind}
        self._orders = {}
        self._inputs = None
        self._by_id = {}
        for d in self.dialogues:
            if d.dialogue_id in self._by_id:
                raise IntegrityError(f"duplicate dialogue id {d.dialogue_id}")
            self._by_id[d.dialogue_id] = d

    def dialogue(self, dialogue_id: str) -> Dialogue:
        d = self._by_id.get(dialogue_id)
        if d is None:
            raise IntegrityError(f"unknown dialogue id {dialogue_id}")
        return d

    def candidate(self, task: TaskKind, candidate_id: str) -> Candidate:
        self.pool_reads[task] += 1
        c = self.pools[task].get(candidate_id)
        if c is None:
            raise IntegrityError(f"unknown {task.value} candidate id {candidate_id}")
        return c

    def pool_order(self, task: TaskKind) -> tuple[list[str], dict[str, int]]:
        """The task's candidate ids in pool order, and each id's position;
        built on first use."""
        order = self._orders.get(task)
        if order is None:
            ids = list(self.pools[task])
            order = self._orders[task] = ids, {cid: i for i, cid in enumerate(ids)}
        return order

    def training_inputs(self, vocab: dict[str, int], tasks) -> TrainingInputs:
        """The corpus compiled into index arrays under ``vocab``, with the
        candidates of ``tasks``; built on first use and rebuilt only for a
        vocabulary that differs from the one it was built with."""
        inputs = self._inputs
        if inputs is None or inputs.vocab != vocab:
            inputs = self._inputs = _compile_utterances(self, dict(vocab))
        for task in tasks:
            if task not in inputs.candidates:
                ids, _ = self.pool_order(task)
                inputs.candidates[task] = _token_rows(
                    [self.candidate(task, cid).text for cid in ids],
                    TASK_TOKEN[task], inputs.vocab, MAX_CANDIDATE_TOKENS)
        return inputs

    def check_pool_size(self, task: TaskKind, pool_size: int) -> None:
        """Raise unless a pool of ``pool_size`` can be sampled for ``task``."""
        if pool_size < 2:
            raise ContractError(f"pool size {pool_size} is below 2")
        if len(self.pools[task]) < pool_size:
            raise CapacityError(
                f"{task.value} pool has {len(self.pools[task])} candidates, "
                f"need {pool_size}")


def build_vocab(dialogues, pools) -> dict[str, int]:
    """Special tokens first, then corpus tokens by frequency, ties lexicographic."""
    texts = itertools.chain((u.text for d in dialogues for s in d.sessions
                             for u in s.utterances),
                            (c.text for pool in pools.values() for c in pool.values()))
    counts = collections.Counter(itertools.chain.from_iterable(map(str.split, texts)))
    vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for tok, _ in sorted(counts.items(), key=lambda tc: (-tc[1], tc[0])):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return vocab


def build_corpus(dialogues, pools, examples) -> Corpus:
    """Assemble and cross-check a corpus; vocabulary is derived from content."""
    corpus = Corpus(list(dialogues), pools, list(examples),
                    build_vocab(dialogues, pools))
    # a dialogue's turn map serves its run of consecutive examples
    did, rows = None, {}
    for ex in corpus.examples:
        if ex.dialogue_id != did:
            did, rows = ex.dialogue_id, _turn_rows(corpus.dialogue(ex.dialogue_id))
        if ex.query_turn_index not in rows:
            raise IntegrityError(
                f"dialogue {ex.dialogue_id} has no turn {ex.query_turn_index}")
        if rows[ex.query_turn_index] is None:
            raise IntegrityError(
                f"query turn {ex.query_turn_index} of {ex.dialogue_id} is not a user turn")
        pool = corpus.pools[ex.task]
        if ex.positive_id not in pool:
            raise IntegrityError(f"dangling positive candidate id {ex.positive_id}")
        for hid in ex.historical_ids:
            if hid not in pool:
                raise IntegrityError(f"dangling historical candidate id {hid}")
    return corpus


# ---------------------------------------------------------------------------
# file format: newline-delimited JSON, one record per line
# ---------------------------------------------------------------------------

def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is no int), else TypeError."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise TypeError(f"{what} is {type(value).__name__}, not {kind.__name__}")
    return value


def _parse_dialogue(rec: dict, lineno: int) -> tuple[Dialogue, list[RetrievalExample]]:
    did = _typed(rec["id"], str, "dialogue id")
    sessions = []
    turn = 0
    for sess in rec["sessions"]:
        utts = []
        for u in sess:
            utts.append(Utterance(Role(u["role"]),
                                  _typed(u["text"], str, "utterance text"), turn))
            turn += 1
        sessions.append(Session(tuple(utts)))
    examples = [_parse_example(did, _typed(e, dict, "example"))
                for e in _typed(rec.get("examples", []), list, "examples")]
    return Dialogue(did, tuple(sessions)), examples


def _parse_example(did: str, e: dict) -> RetrievalExample:
    historical = _typed(e.get("historical", []), list, "historical ids")
    return RetrievalExample(did, _typed(e["turn"], int, "turn"), TaskKind(e["task"]),
                            _typed(e["positive"], str, "positive id"),
                            tuple(_typed(h, str, "historical id") for h in historical))


def load_corpus(path) -> Corpus:
    """Read a corpus file; raises ParseError (with line number) or IntegrityError."""
    dialogues: list[Dialogue] = []
    pools: dict[TaskKind, dict[str, Candidate]] = {t: {} for t in TaskKind}
    examples: list[RetrievalExample] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            try:
                kind = rec["kind"]
                if kind == "candidate":
                    cand = Candidate(_typed(rec["id"], str, "candidate id"),
                                     TaskKind(rec["task"]),
                                     _typed(rec["text"], str, "candidate text"))
                    pool = pools[cand.task]
                    if cand.candidate_id in pool:
                        raise ParseError(
                            f"duplicate {cand.task.value} candidate id {cand.candidate_id}",
                            line=lineno)
                    pool[cand.candidate_id] = cand
                elif kind == "dialogue":
                    d, exs = _parse_dialogue(rec, lineno)
                    dialogues.append(d)
                    examples.extend(exs)
                else:
                    raise ParseError(f"unknown record kind {kind!r}", line=lineno)
            except ParseError:
                raise
            except (KeyError, ValueError, TypeError, ContractError) as exc:
                raise ParseError(f"malformed {type(exc).__name__}: {exc}",
                                 line=lineno) from exc
    return build_corpus(dialogues, pools, examples)


@contextlib.contextmanager
def replace_on_success(path, mode: str, **open_kwargs):
    """Open a temporary file beside ``path`` for writing and move it over
    ``path`` only once the block completes, so a write that fails part-way
    leaves the previous file untouched and no temporary file behind."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_corpus(corpus: Corpus, path) -> None:
    """Serialize in a fixed order: candidates per task, then dialogues."""
    by_dialogue: dict[str, list[RetrievalExample]] = {}
    for ex in corpus.examples:
        by_dialogue.setdefault(ex.dialogue_id, []).append(ex)
    with replace_on_success(path, "w", encoding="utf-8") as fh:
        for task in TaskKind:
            for c in corpus.pools[task].values():
                fh.write(json.dumps(
                    {"kind": "candidate", "id": c.candidate_id,
                     "task": task.value, "text": c.text},
                    ensure_ascii=False, separators=(",", ":")) + "\n")
        for d in corpus.dialogues:
            rec = {
                "kind": "dialogue",
                "id": d.dialogue_id,
                "sessions": [[{"role": u.role.value, "text": u.text}
                              for u in s.utterances] for s in d.sessions],
                "examples": [{"turn": ex.query_turn_index, "task": ex.task.value,
                              "positive": ex.positive_id,
                              "historical": list(ex.historical_ids)}
                             for ex in by_dialogue.get(d.dialogue_id, [])],
            }
            fh.write(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# session splitting and pool sampling
# ---------------------------------------------------------------------------

def _turn_rows(d: Dialogue) -> dict[int, tuple[int, int] | None]:
    """Each turn index's (split, query) rows in ``d.turns()``, or None for a
    system turn; a turn index repeated in a dialogue resolves to its last row.

    Rows [0, split) are the previous sessions and rows [split, query) the
    earlier turns of the query's own session. A single session splits into
    (user, system) units, and a user query opens its own unit, so there
    ``split == query``.
    """
    rows: dict[int, tuple[int, int] | None] = {}
    # Role.USER is looked up once: per row, the lookup costs as much as the
    # rest of the loop body
    split, single, user = 0, len(d.sessions) == 1, Role.USER
    for s in d.sessions:
        for r, u in enumerate(s.utterances, split):
            rows[u.turn_index] = (r if single else split, r) if u.role is user else None
        split += len(s.utterances)
    return rows


def split_sessions(d: Dialogue, query_turn: int):
    """Split a dialogue at a user turn into (previous, current, query) parts.

    Previous-session utterances come from sessions before the query's; for a
    single-session dialogue each (user, system) turn pair counts as one
    session unit. Current-session utterances are those preceding the query
    inside its own unit.
    """
    rows = _turn_rows(d)
    if query_turn not in rows:
        raise ContractError(f"dialogue {d.dialogue_id} has no turn {query_turn}")
    if rows[query_turn] is None:
        raise ContractError(f"turn {query_turn} of {d.dialogue_id} is not a user turn")
    split, query = rows[query_turn]
    turns = d.turns()
    return turns[:split], turns[split:query], turns[query]


def semi_hard_id(ex: RetrievalExample) -> str | None:
    """Most recent historical candidate id, unless it coincides with the positive."""
    if ex.historical_ids and ex.historical_ids[-1] != ex.positive_id:
        return ex.historical_ids[-1]
    return None


# ---------------------------------------------------------------------------
# training inputs compiled into index arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingInputs:
    """A corpus as int32 index arrays under one vocabulary.

    Utterance row r, counted in dialogue order, has turn index ``turns[r]``
    and tokens ``tokens[offsets[r]:offsets[r + 1]]``: its role token and
    word ids, without the CLS that every sequence starts with. Row e of
    ``examples`` is (start, split, query): the ``split_sessions`` parts of
    ``corpus.examples[e]`` are rows [start, split), rows [split, query) and
    row query. ``candidates[task]`` holds (tokens, offsets) of the task's
    candidates in pool order, led by the task token. Row e of ``targets``
    holds the pool positions of that example's positive and ``semi_hard_id``
    candidate, the positive's again where it has none.
    """
    vocab: dict[str, int]
    tokens: np.ndarray
    offsets: np.ndarray
    turns: np.ndarray
    examples: np.ndarray
    candidates: dict[TaskKind, tuple[np.ndarray, np.ndarray]]
    targets: np.ndarray

    def utterance_seqs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Flat ids and offsets of the sequences of utterance ``rows``."""
        return _with_cls(self.tokens, self.offsets[rows], self.offsets[rows + 1])

    def concat_seqs(self, first, last) -> tuple[np.ndarray, np.ndarray]:
        """Utterance rows first..last of each context as one sequence,
        truncated at the candidate length."""
        lo = self.offsets[first]
        return _with_cls(self.tokens, lo, np.minimum(
            self.offsets[last + 1], lo + MAX_CANDIDATE_TOKENS - 1))

    def candidate_seqs(self, task: TaskKind, rows) -> tuple[np.ndarray, np.ndarray]:
        """Flat ids and offsets of the sequences of pool positions ``rows``."""
        tokens, offsets = self.candidates[task]
        return _with_cls(tokens, offsets[rows], offsets[rows + 1])


def concat_ranges(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(i, v) for every value v of each range [lo[i], hi[i]), in order."""
    lens = hi - lo
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) + np.repeat(lo - np.cumsum(lens) + lens, lens)


def _with_cls(tokens: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """CLS, then ``tokens[lo[i]:hi[i]]``, for each i: flat ids and offsets."""
    offsets = np.append(0, np.cumsum(hi - lo + 1))
    return np.insert(tokens[concat_ranges(lo, hi)[1]],
                     offsets[:-1] - np.arange(lo.size), CLS_ID), offsets


def _token_rows(texts: list[str], lead, vocab: dict[str, int],
                max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Each text's lead token and first ``max_len`` word ids (UNK for an
    unknown word), as flat int32 tokens and offsets."""
    lens = np.fromiter(map(len, map(str.split, texts)), np.intp, len(texts))
    words = np.fromiter(
        map(vocab.get, itertools.chain.from_iterable(map(str.split, texts)),
            itertools.repeat(UNK_ID)), np.int32, lens.sum())
    if lens.max(initial=0) > max_len:
        words = words[concat_ranges(0 * lens, lens)[1] < max_len]
        lens = np.minimum(lens, max_len)
    offsets = np.append(0, np.cumsum(lens + 1)).astype(np.int32)
    is_lead = np.zeros(offsets[-1], bool)
    is_lead[offsets[:-1]] = True
    tokens = np.empty(offsets[-1], np.int32)
    tokens[offsets[:-1]] = lead
    tokens[~is_lead] = words
    return tokens, offsets


def _compile_utterances(corpus: Corpus, vocab: dict[str, int]) -> TrainingInputs:
    """Every utterance's tokens, every example's rows and targets; no candidates."""
    exs = corpus.examples
    wanted: dict[str, list[int]] = {}
    for e, ex in enumerate(exs):
        wanted.setdefault(ex.dialogue_id, []).append(e)
    utts: list[Utterance] = []
    examples: list[tuple[int, int, int] | None] = [None] * len(exs)
    for d in corpus.dialogues:
        first, rows = len(utts), _turn_rows(d)
        for e in wanted.get(d.dialogue_id, ()):
            at = rows.get(exs[e].query_turn_index)
            if at is not None:
                examples[e] = (first, first + at[0], first + at[1])
        utts.extend(d.turns())
    if None in examples:
        ex = exs[examples.index(None)]
        raise ContractError(f"dialogue {ex.dialogue_id} has no user turn "
                            f"{ex.query_turn_index}")
    tokens, offsets = _token_rows(
        [u.text for u in utts],
        np.where([u.role is Role.USER for u in utts], ROLE_TOKEN[Role.USER],
                 ROLE_TOKEN[Role.SYSTEM]),
        vocab, MAX_UTTERANCE_TOKENS)
    position = {t: corpus.pool_order(t)[1] for t in TaskKind}
    targets = [[position[ex.task][ex.positive_id if cid is None else cid]
                for cid in (ex.positive_id, semi_hard_id(ex))] for ex in exs]
    return TrainingInputs(vocab, tokens, offsets,
                          np.array([u.turn_index for u in utts], np.int32),
                          np.array(examples, np.int32).reshape(-1, 3), {},
                          np.array(targets, np.intp).reshape(-1, 2))


def sample_pool(ex: RetrievalExample, corpus: Corpus, pool_size: int,
                seed: int) -> list[Candidate]:
    """Candidate pool for one example: positive, at most one semi-hard
    historical candidate, random distinct fillers; seeded shuffle.

    Fillers are drawn by index from the pool order with the chosen ids
    removed, without building that list: each draw gains one for each
    removed position, in ascending order, at or below it."""
    corpus.check_pool_size(ex.task, pool_size)
    pool = corpus.pools[ex.task]
    chosen = [ex.positive_id]
    semi = semi_hard_id(ex)
    if semi is not None:
        chosen.append(semi)
    rng = derive_rng(seed, "pool", ex.dialogue_id, ex.query_turn_index, ex.task.value)
    ids, position = corpus.pool_order(ex.task)
    skipped = sorted(position[cid] for cid in chosen if cid in position)
    fill = pool_size - len(chosen)
    if fill:
        picks = rng.choice(len(ids) - len(skipped), size=fill, replace=False)
        for p in skipped:
            picks += picks >= p
        chosen.extend(ids[i] for i in picks)
    order = rng.permutation(len(chosen))
    return [pool[chosen[i]] for i in order]


def split_corpus(corpus: Corpus, holdout_fraction: float, seed: int):
    """Partition dialogues (and their examples) into train and held-out
    corpora; both keep the full candidate pools."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ContractError(f"holdout fraction {holdout_fraction} not in (0, 1)")
    n = len(corpus.dialogues)
    n_held = max(1, int(round(n * holdout_fraction))) if n else 0
    rng = derive_rng(seed, "split")
    order = rng.permutation(n)
    held_ids = {corpus.dialogues[i].dialogue_id for i in order[:n_held]}

    def subset(keep_held: bool) -> Corpus:
        ds = [d for d in corpus.dialogues if (d.dialogue_id in held_ids) == keep_held]
        ids = {d.dialogue_id for d in ds}
        exs = [ex for ex in corpus.examples if ex.dialogue_id in ids]
        return build_corpus(ds, corpus.pools, exs)

    return subset(False), subset(True)
