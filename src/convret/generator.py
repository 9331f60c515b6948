"""Deterministic synthetic corpus generator.

Dialogues are built from topic-partitioned pseudo-words. Each dialogue
owns an anchor entity token; each retrieval example sits at the first user
turn of a session unit and its positive candidate combines the unit's topic
words with the anchor entity. One utterance in the immediately preceding
unit (the callback) also carries that topic and the entity, so selecting
relevant history genuinely disambiguates the positive from same-topic
candidates of other dialogues. Earlier units' positives become the
example's historical candidates: same entity, wrong topic — semi-hard by
construction. With ``positive_coupling`` off, positives are drawn from the
whole vocabulary independently of the query; the rank of the positive under
a random encoder is then uniform, which calibrates chance-level metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .corpus import (Candidate, Corpus, Dialogue, RetrievalExample, Role,
                     Session, TaskKind, Utterance, _typed, build_corpus,
                     derive_rng)
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class GeneratorConfig:
    topics: int = 16
    dialogues_per_task: int = 1000
    sessions_per_dialogue: int = 3
    turns_per_session: int = 2  # (user, system) pairs per session
    words_per_topic: int = 12
    common_words: int = 24
    entities: int = 24
    utterance_words: int = 5  # topic words per utterance or candidate
    positive_coupling: bool = True

    def __post_init__(self):
        # each field has its default's type, int (a bool is no int) or bool,
        # and every count is at least 1
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                _typed(value, type(f.default), f.name)
            except TypeError as exc:
                raise ConfigError(str(exc)) from exc
            if type(f.default) is int and value < 1:
                raise ConfigError(f"{f.name} must be at least 1")
        if self.utterance_words > self.words_per_topic:
            raise ConfigError("utterance_words exceeds words_per_topic")
        units = (self.sessions_per_dialogue if self.sessions_per_dialogue > 1
                 else self.turns_per_session)
        if units > self.topics:
            raise ConfigError(f"{units} session units need {units} distinct topics, "
                              f"have {self.topics}")


def _word_table(cfg: GeneratorConfig) -> tuple[list[list[str]], list[str]]:
    """Each topic's words, and every topic word followed by the common words."""
    topics = [[f"t{t}w{j}" for j in range(cfg.words_per_topic)]
              for t in range(cfg.topics)]
    return topics, sum(topics, []) + [f"c{j}" for j in range(cfg.common_words)]


class _Draws:
    """One dialogue's draws, one ``integers(0, bounds)`` call, decoded as the
    scalar calls they replace: ``below(n)`` is ``integers(n)`` and
    ``pick(n, k)`` is ``choice(n, k, replace=False)`` for n <= 10,000
    (Floyd's algorithm, then a Fisher-Yates shuffle)."""

    def __init__(self, values: list[int]):
        self.values, self.used = values, 0

    def take(self, bounds: range) -> list[int]:
        """The next len(bounds) draws; draw i is below bounds[i]."""
        start = self.used
        self.used += len(bounds)
        if self.used > len(self.values):
            raise ContractError("a dialogue used more draws than its config recorded")
        return self.values[start:self.used]

    def below(self, n: int) -> int:
        return self.take(range(n, n + 1))[0]

    def pick(self, n: int, k: int) -> list[int]:
        out, seen = [], set()
        for j, v in enumerate(self.take(range(n - k + 1, n + 1)), n - k):
            v = j if v in seen else v
            seen.add(v)
            out.append(v)
        for i, j in zip(range(k - 1, 0, -1), self.take(range(k, 1, -1))):
            out[i], out[j] = out[j], out[i]
        return out


class _Recorder(_Draws):
    """Records every draw's bound; each draw reads 0."""

    def __init__(self):
        super().__init__([])
        self.bounds: list[int] = []

    def take(self, bounds: range) -> list[int]:
        self.bounds.extend(bounds)
        return [0] * len(bounds)


def _draw(draws: _Draws, words: list[str], n: int) -> list[str]:
    return [words[i] for i in draws.pick(len(words), min(n, len(words)))]


def _utterance_text(cfg, draws: _Draws, words: list[str]) -> str:
    toks = _draw(draws, words, cfg.utterance_words)
    toks.append(f"c{draws.below(cfg.common_words)}")
    return " ".join(toks)


def _build_dialogue(cfg: GeneratorConfig, table, task: TaskKind, index: int,
                    draws: _Draws):
    single = cfg.sessions_per_dialogue == 1
    n_units = cfg.turns_per_session if single else cfg.sessions_per_dialogue
    pairs_per_unit = 1 if single else cfg.turns_per_session
    topic_words, all_words = table

    unit_words = [topic_words[t] for t in draws.pick(cfg.topics, n_units)]
    entity = f"e{draws.below(cfg.entities)}"

    # texts[unit][pair] = [user_text, system_text]
    texts = [[[_utterance_text(cfg, draws, unit_words[u]),
               _utterance_text(cfg, draws, unit_words[u])]
              for _ in range(pairs_per_unit)] for u in range(n_units)]

    did = f"{task.value}-{index}"
    candidates: list[Candidate] = []

    example_units = list(range(1, n_units)) if n_units > 1 else [0]
    for u in example_units:
        cid = f"{task.value[0]}{index}_{u}"
        if cfg.positive_coupling:
            toks = _draw(draws, unit_words[u], cfg.utterance_words)
            if n_units > 1:
                toks.append(entity)
            toks.append(f"c{draws.below(cfg.common_words)}")
            # callback: one system slot of the previous unit restates the
            # query unit's topic together with the anchor entity
            if n_units > 1:
                cb = _draw(draws, unit_words[u], cfg.utterance_words)
                cb.append(entity)
                pair = draws.below(pairs_per_unit)
                texts[u - 1][pair][1] = " ".join(cb)
        else:
            toks = _draw(draws, all_words, cfg.utterance_words + 1)
        candidates.append(Candidate(cid, task, " ".join(toks)))

    # pair p of unit u is turns 2(u * pairs_per_unit + p) and the one after
    units = [tuple(Utterance(role, texts[u][p][i], 2 * (u * pairs_per_unit + p) + i)
                   for p in range(pairs_per_unit)
                   for i, role in enumerate((Role.USER, Role.SYSTEM)))
             for u in range(n_units)]
    sessions = (Session(sum(units, ())),) if single else tuple(map(Session, units))
    ids = [c.candidate_id for c in candidates]
    examples = [RetrievalExample(did, 2 * u * pairs_per_unit, task, ids[i], tuple(ids[:i]))
                for i, u in enumerate(example_units)]
    return Dialogue(did, sessions), candidates, examples


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> Corpus:
    """Deterministic corpus for (cfg, seed); see the module docstring."""
    dialogues: list[Dialogue] = []
    pools: dict[TaskKind, dict[str, Candidate]] = {t: {} for t in TaskKind}
    examples: list[RetrievalExample] = []
    table = _word_table(cfg)
    # no draw's bound depends on an earlier draw: one recording serves all
    recorder = _Recorder()
    _build_dialogue(cfg, table, TaskKind.PERSONA, 0, recorder)
    bounds = np.array(recorder.bounds, dtype=np.int64)
    for task in TaskKind:
        for i in range(cfg.dialogues_per_task):
            draws = _Draws(derive_rng(seed, "dlg", task.value, i).integers(0, bounds).tolist())
            d, cands, exs = _build_dialogue(cfg, table, task, i, draws)
            if draws.used != len(bounds):
                raise ContractError(f"dialogue {d.dialogue_id} used {draws.used} draws, "
                                    f"its config recorded {len(bounds)}")
            dialogues.append(d)
            for c in cands:
                pools[task][c.candidate_id] = c
            examples.extend(exs)
    return build_corpus(dialogues, pools, examples)
