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

from .corpus import (Candidate, Corpus, Dialogue, RetrievalExample, Role,
                     Session, TaskKind, Utterance, _typed, build_corpus,
                     derive_rng)
from .errors import ConfigError


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


def _draw(rng, words: list[str], n: int) -> list[str]:
    picks = rng.choice(len(words), size=min(n, len(words)), replace=False)
    return [words[i] for i in picks.tolist()]


def _utterance_text(cfg, rng, words: list[str]) -> str:
    toks = _draw(rng, words, cfg.utterance_words)
    toks.append(f"c{rng.integers(cfg.common_words)}")
    return " ".join(toks)


def _build_dialogue(cfg: GeneratorConfig, table, task: TaskKind, index: int, seed: int):
    rng = derive_rng(seed, "dlg", task.value, index)
    single = cfg.sessions_per_dialogue == 1
    n_units = cfg.turns_per_session if single else cfg.sessions_per_dialogue
    pairs_per_unit = 1 if single else cfg.turns_per_session
    topic_words, all_words = table

    unit_words = [topic_words[t] for t in
                  rng.choice(cfg.topics, size=n_units, replace=False).tolist()]
    entity = f"e{rng.integers(cfg.entities)}"

    # texts[unit][pair] = [user_text, system_text]
    texts = [[[_utterance_text(cfg, rng, unit_words[u]),
               _utterance_text(cfg, rng, unit_words[u])]
              for _ in range(pairs_per_unit)] for u in range(n_units)]

    did = f"{task.value}-{index}"
    candidates: list[Candidate] = []

    example_units = list(range(1, n_units)) if n_units > 1 else [0]
    for u in example_units:
        cid = f"{task.value[0]}{index}_{u}"
        if cfg.positive_coupling:
            toks = _draw(rng, unit_words[u], cfg.utterance_words)
            if n_units > 1:
                toks.append(entity)
            toks.append(f"c{rng.integers(cfg.common_words)}")
            # callback: one system slot of the previous unit restates the
            # query unit's topic together with the anchor entity
            if n_units > 1:
                cb = _draw(rng, unit_words[u], cfg.utterance_words)
                cb.append(entity)
                pair = int(rng.integers(pairs_per_unit))
                texts[u - 1][pair][1] = " ".join(cb)
        else:
            toks = _draw(rng, all_words, cfg.utterance_words + 1)
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
    for task in TaskKind:
        for i in range(cfg.dialogues_per_task):
            d, cands, exs = _build_dialogue(cfg, table, task, i, seed)
            dialogues.append(d)
            for c in cands:
                pools[task][c.candidate_id] = c
            examples.extend(exs)
    return build_corpus(dialogues, pools, examples)
