"""Corpus model, file round-trip, session splitting and pool sampling."""

import hashlib
import json

import pytest

from convret.cli import main
from convret.corpus import (SPECIAL_TOKENS, Candidate, Corpus, Dialogue,
                            RetrievalExample, Role, Session, TaskKind,
                            Utterance, build_corpus, build_vocab, derive_rng,
                            load_corpus, sample_pool, semi_hard_id,
                            split_corpus, split_sessions, write_corpus)
from convret.errors import (CapacityError, ConfigError, ContractError,
                            IntegrityError, ParseError)
from convret.generator import GeneratorConfig, generate_synthetic
from convret.training import TrainConfig, initial_checkpoint, save_checkpoint


def u(role, text, idx):
    return Utterance(role, text, idx)


def make_corpus(historical=(), positive="c1", sessions=None, turn=4):
    if sessions is None:
        sessions = (
            Session((u(Role.USER, "a b", 0), u(Role.SYSTEM, "b c", 1))),
            Session((u(Role.USER, "c d", 2), u(Role.SYSTEM, "d e", 3),
                     u(Role.USER, "e f", 4), u(Role.SYSTEM, "f g", 5))),
        )
    pools = {t: {} for t in TaskKind}
    for i in range(6):
        cid = f"c{i}"
        pools[TaskKind.PERSONA][cid] = Candidate(cid, TaskKind.PERSONA, f"w{i} a")
    pools[TaskKind.KNOWLEDGE]["k0"] = Candidate("k0", TaskKind.KNOWLEDGE, "kk")
    pools[TaskKind.RESPONSE]["r0"] = Candidate("r0", TaskKind.RESPONSE, "rr")
    ex = RetrievalExample("d0", turn, TaskKind.PERSONA, positive, tuple(historical))
    return build_corpus([Dialogue("d0", sessions)], pools, [ex])


# ---------------------------------------------------------------------------
# types and integrity
# ---------------------------------------------------------------------------

def test_type_invariants():
    with pytest.raises(ContractError):
        Utterance(Role.USER, "   ", 0)
    with pytest.raises(ContractError):
        Utterance(Role.USER, "x", -1)
    with pytest.raises(ContractError):
        Session(())
    with pytest.raises(ContractError):
        Session((u(Role.USER, "a", 1), u(Role.SYSTEM, "b", 1)))
    with pytest.raises(ContractError):
        Session((u(Role.USER, "a", 2), u(Role.SYSTEM, "b", 1)))
    with pytest.raises(ContractError, match=r"\[0, 2, 1\]"):
        Session((u(Role.USER, "a", 0), u(Role.SYSTEM, "b", 2), u(Role.USER, "c", 1)))
    with pytest.raises(ContractError):
        Dialogue("d", ())


def test_build_corpus_integrity_checks():
    with pytest.raises(IntegrityError, match="zzz"):
        make_corpus(positive="zzz")
    with pytest.raises(IntegrityError, match="ghost"):
        make_corpus(historical=["ghost"])
    with pytest.raises(IntegrityError):
        make_corpus(turn=99)  # no such turn
    with pytest.raises(IntegrityError):
        make_corpus(turn=3)  # system turn


def test_integrity_checks_of_examples_that_interleave_dialogues():
    # d1, d2, d1: the second d1 example must not be checked against d2's turns
    d1 = Dialogue("d1", (Session((u(Role.USER, "a", 0), u(Role.SYSTEM, "b", 1))),
                         Session((u(Role.USER, "c", 0), u(Role.SYSTEM, "d", 1)))))
    d2 = Dialogue("d2", (Session((u(Role.USER, "e", 0), u(Role.SYSTEM, "f", 1),
                                  u(Role.USER, "g", 2), u(Role.SYSTEM, "h", 3))),))
    pools = {t: {} for t in TaskKind}
    pools[TaskKind.PERSONA]["c0"] = Candidate("c0", TaskKind.PERSONA, "w0")

    def build(turn):
        exs = [RetrievalExample(did, t, TaskKind.PERSONA, "c0", ())
               for did, t in (("d1", 0), ("d2", 2), ("d1", turn))]
        return build_corpus([d1, d2], pools, exs)

    with pytest.raises(IntegrityError, match="d1 has no turn 2"):
        build(2)  # a user turn of d2, not of d1
    with pytest.raises(IntegrityError, match="query turn 1 of d1 is not a user turn"):
        build(1)
    build(0)
    # a repeated turn index resolves to its last row, here a system turn
    last_is_system = Dialogue("d1", (d1.sessions[0], Session((
        u(Role.SYSTEM, "c", 0), u(Role.USER, "d", 1)))))
    with pytest.raises(IntegrityError, match="not a user turn"):
        build_corpus([last_is_system, d2], pools,
                     [RetrievalExample("d2", 2, TaskKind.PERSONA, "c0", ()),
                      RetrievalExample("d1", 0, TaskKind.PERSONA, "c0", ())])


def test_vocab_special_tokens_then_frequency_then_lexicographic():
    c = make_corpus()
    for i, tok in enumerate(SPECIAL_TOKENS):
        assert c.vocab[tok] == i
    base = len(SPECIAL_TOKENS)
    # 'a' appears in two utterances plus six candidate texts
    assert c.vocab["a"] == base
    ranked = sorted((cid for cid in c.vocab if cid not in SPECIAL_TOKENS),
                    key=c.vocab.get)
    counts = {}
    for d in c.dialogues:
        for utt in d.turns():
            for t in utt.text.split():
                counts[t] = counts.get(t, 0) + 1
    for pool in c.pools.values():
        for cand in pool.values():
            for t in cand.text.split():
                counts[t] = counts.get(t, 0) + 1
    assert ranked == sorted(counts, key=lambda t: (-counts[t], t))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_empty_file_loads_as_empty_corpus(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    c = load_corpus(p)
    assert c.dialogues == () and c.examples == ()
    assert set(c.vocab) == set(SPECIAL_TOKENS)


def test_blank_lines_are_skipped_but_counted(tmp_path):
    plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
    write_records(plain, minimal_records())
    lines = [json.dumps(r) for r in minimal_records()]
    spaced.write_text("\n" + "\n  \n".join(lines) + "\n\n")
    a, b = load_corpus(plain), load_corpus(spaced)
    assert (b.dialogues, b.pools, b.examples, b.vocab) == (
        a.dialogues, a.pools, a.examples, a.vocab)
    spaced.write_text("\n" + "\n  \n".join(lines[:2] + ["{oops"]))
    with pytest.raises(ParseError, match="line 6"):
        load_corpus(spaced)


def minimal_records():
    return [
        {"kind": "candidate", "id": "c1", "task": "persona", "text": "w1 w2"},
        {"kind": "candidate", "id": "c2", "task": "persona", "text": "w3"},
        {"kind": "dialogue", "id": "d0",
         "sessions": [[{"role": "user", "text": "hi there"},
                       {"role": "system", "text": "hello"}],
                      [{"role": "user", "text": "again w1"}]],
         "examples": [{"turn": 2, "task": "persona", "positive": "c1",
                       "historical": ["c2"]}]},
    ]


def write_records(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_minimal_corpus_round_trips(tmp_path):
    p = tmp_path / "c.jsonl"
    write_records(p, minimal_records())
    c = load_corpus(p)
    assert len(c.examples) == 1
    ex = c.examples[0]
    assert ex.positive_id == "c1" and ex.historical_ids == ("c2",)
    assert [utt.turn_index for utt in c.dialogue("d0").turns()] == [0, 1, 2]

    out = tmp_path / "out.jsonl"
    write_corpus(c, out)
    c2 = load_corpus(out)
    assert c2.vocab == c.vocab
    assert c2.examples == c.examples
    assert c2.dialogues == c.dialogues
    assert all(c2.pools[t] == c.pools[t] for t in TaskKind)
    out2 = tmp_path / "out2.jsonl"
    write_corpus(c2, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind":"candidate","id":"a","task":"persona","text":"x"}\n{oops\n')
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(p)
    p.write_text('{"kind":"mystery"}\n')
    with pytest.raises(ParseError, match="kind"):
        load_corpus(p)
    p.write_text('{"kind":"candidate","id":"a","task":"persona","text":"x"}\n'
                 '{"kind":"candidate","id":"a","task":"persona","text":"y"}\n')
    with pytest.raises(ParseError, match="duplicate"):
        load_corpus(p)


def _set(path, value):
    """A mutation that sets the field at ``path`` (record index first)."""
    def mutate(records):
        *parents, key = path
        target = records
        for k in parents:
            target = target[k]
        target[key] = value
    return mutate


@pytest.mark.parametrize("mutate,line,what", [
    (_set((2, "sessions", 0, 0, "text"), 7), 3, "utterance text is int"),
    (_set((2, "examples", 0, "positive"), ["c1"]), 3, "positive id is list"),
    (_set((0, "text"), None), 1, "candidate text is NoneType"),
    (_set((2, "id"), 0), 3, "dialogue id is int"),
    (_set((2, "examples", 0, "turn"), 1.7), 3, "turn is float"),
    (_set((2, "examples", 0), 7), 3, "example is int"),
    (_set((2, "examples"), {}), 3, "examples is dict"),
], ids=["int-utterance-text", "list-positive", "null-candidate-text",
        "int-dialogue-id", "fractional-turn", "int-example", "object-examples"])
def test_wrongly_typed_fields_fail_with_line_number(tmp_path, capsys, mutate,
                                                     line, what):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_records(good, minimal_records())
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(initial_checkpoint(load_corpus(good), TrainConfig(dim=4)), ckpt)
    records = minimal_records()
    mutate(records)
    write_records(bad, records)
    with pytest.raises(ParseError, match=f"line {line}: .*{what}") as info:
        load_corpus(bad)
    assert info.value.line == line
    code = main(["eval", "--corpus", str(bad), "--ckpt", str(ckpt),
                 "--task", "persona", "--pool-size", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith(f"convret: line {line}: ")


def test_unknown_candidate_id_names_task_and_id():
    c = make_corpus()
    assert c.candidate(TaskKind.PERSONA, "c1").text == "w1 a"
    with pytest.raises(IntegrityError, match="unknown persona candidate id k0"):
        c.candidate(TaskKind.PERSONA, "k0")


def test_corpus_content_cannot_move_away_from_its_compiled_rows():
    # the construction walk records each example's rows, so an example added
    # or replaced afterwards would go unseen by training_inputs
    c = generate_synthetic(small_cfg(dialogues_per_task=8), 3)
    n = len(c.examples)
    dialogues, examples = list(c.dialogues), list(c.examples)
    copy = Corpus(dialogues, c.pools, examples, c.vocab)
    dialogues.pop()
    examples.append(examples[0])  # the lists it was built from stay the caller's
    for corpus in (c, copy):
        with pytest.raises(AttributeError):
            corpus.examples.append(corpus.examples[0])
        with pytest.raises(TypeError):
            corpus.dialogues[0] = corpus.dialogues[-1]
        inputs = corpus.training_inputs(corpus.vocab, [])
        assert len(inputs.examples) == len(inputs.targets) == len(corpus.examples) == n


def test_dangling_reference_names_the_id(tmp_path):
    p = tmp_path / "dangling.jsonl"
    rec = {"kind": "dialogue", "id": "d0",
           "sessions": [[{"role": "user", "text": "hi"}]],
           "examples": [{"turn": 0, "task": "persona", "positive": "nope"}]}
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(IntegrityError, match="nope"):
        load_corpus(p)


def test_duplicate_and_unknown_dialogues_fail_construction(tmp_path, capsys):
    c = make_corpus()
    d0, ex = c.dialogues[0], c.examples[0]
    with pytest.raises(IntegrityError, match="duplicate dialogue id d0"):
        Corpus([d0, d0], c.pools, [ex], c.vocab)
    stray = RetrievalExample("ghost", 0, TaskKind.PERSONA, "c1", ())
    with pytest.raises(IntegrityError, match="unknown dialogue id ghost"):
        Corpus([d0], c.pools, [ex, stray], c.vocab)
    # a file nests each example in its dialogue's record, so of the two only
    # a duplicate dialogue can be written to one
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_records(good, minimal_records())
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(initial_checkpoint(load_corpus(good), TrainConfig(dim=4)), ckpt)
    write_records(bad, minimal_records() + minimal_records()[2:])
    with pytest.raises(IntegrityError, match="duplicate dialogue id d0"):
        load_corpus(bad)
    code = main(["eval", "--corpus", str(bad), "--ckpt", str(ckpt),
                 "--task", "persona", "--pool-size", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "convret: duplicate dialogue id d0\n"


# ---------------------------------------------------------------------------
# split_sessions
# ---------------------------------------------------------------------------

def test_split_at_first_utterance_of_second_session():
    c = make_corpus(turn=2)
    d = c.dialogue("d0")
    prev, curr, last = split_sessions(d, 2)
    assert [x.turn_index for x in prev] == [0, 1]
    assert curr == []
    assert last.turn_index == 2


def test_split_mid_session_keeps_earlier_turns_of_that_session():
    c = make_corpus()
    prev, curr, last = split_sessions(c.dialogue("d0"), 4)
    assert [x.turn_index for x in prev] == [0, 1]
    assert [x.turn_index for x in curr] == [2, 3]
    assert last.turn_index == 4


def test_single_session_dialogue_uses_turn_pairs_as_units():
    sess = Session(tuple(
        u(Role.USER if i % 2 == 0 else Role.SYSTEM, f"w{i}", i) for i in range(6)))
    d = Dialogue("d1", (sess,))
    prev, curr, last = split_sessions(d, 4)
    assert [x.turn_index for x in prev] == [0, 1, 2, 3]
    assert curr == []
    assert last.turn_index == 4


def _parts(d, turn):
    return [[x.turn_index for x in part] for part in split_sessions(d, turn)[:2]]


def _edge_dialogues():
    """A single session that opens with a system turn, and a dialogue whose
    turn indices repeat across sessions."""
    system_first = Dialogue("sys", (Session(tuple(
        u(Role.SYSTEM if i % 2 == 0 else Role.USER, f"w{i}", i)
        for i in range(5))),))
    repeated = Dialogue("rep", (
        Session((u(Role.USER, "a", 0), u(Role.SYSTEM, "b", 1))),
        Session((u(Role.USER, "c", 0), u(Role.SYSTEM, "d", 1),
                 u(Role.USER, "e", 2)))))
    return system_first, repeated


def test_single_session_opening_with_a_system_turn():
    d, _ = _edge_dialogues()
    assert _parts(d, 1) == [[0], []]
    assert _parts(d, 3) == [[0, 1, 2], []]
    with pytest.raises(ContractError):
        split_sessions(d, 0)


def test_repeated_turn_index_resolves_to_its_last_row():
    _, d = _edge_dialogues()
    assert _parts(d, 0) == [[0, 1], []]
    assert split_sessions(d, 0)[2].text == "c"
    assert _parts(d, 2) == [[0, 1], [0, 1]]
    assert [x.text for x in split_sessions(d, 2)[1]] == ["c", "d"]
    last_is_system = Dialogue("rs", (
        Session((u(Role.USER, "a", 0), u(Role.SYSTEM, "b", 1))),
        Session((u(Role.SYSTEM, "c", 0), u(Role.USER, "d", 1)))))
    with pytest.raises(ContractError, match="not a user turn"):
        split_sessions(last_is_system, 0)
    assert _parts(last_is_system, 1) == [[0, 1], [0]]


def test_compiled_rows_of_edge_dialogues_match_split_sessions():
    dialogues = _edge_dialogues()
    pools = {t: {} for t in TaskKind}
    pools[TaskKind.PERSONA]["c0"] = Candidate("c0", TaskKind.PERSONA, "w0")
    want = {("sys", 3): [0, 3, 3], ("sys", 1): [0, 1, 1],
            ("rep", 0): [5, 7, 7], ("rep", 2): [5, 7, 9]}
    turns = [x for d in dialogues for x in d.turns()]
    # in dialogue order, then with each dialogue's examples split by the
    # other's, so its first row and turn map are looked up again
    for order in (list(want), [("rep", 2), ("sys", 3), ("rep", 0), ("sys", 1)]):
        exs = [RetrievalExample(did, turn, TaskKind.PERSONA, "c0", ())
               for did, turn in order]
        c = build_corpus(dialogues, pools, exs)
        rows = c.training_inputs(c.vocab, []).examples
        assert rows.tolist() == [want[key] for key in order]
        for ex, (start, split, query) in zip(exs, rows):
            assert split_sessions(c.dialogue(ex.dialogue_id), ex.query_turn_index) == (
                turns[start:split], turns[split:query], turns[query])


def test_split_degenerate_and_errors():
    d = Dialogue("d2", (Session((u(Role.USER, "only", 0),)),))
    prev, curr, last = split_sessions(d, 0)
    assert prev == [] and curr == [] and last.turn_index == 0
    c = make_corpus()
    with pytest.raises(ContractError):
        split_sessions(c.dialogue("d0"), 3)  # system turn
    with pytest.raises(ContractError):
        split_sessions(c.dialogue("d0"), 77)


# ---------------------------------------------------------------------------
# sample_pool
# ---------------------------------------------------------------------------

def test_sample_pool_minimal_and_contents():
    c = make_corpus()
    ex = c.examples[0]
    pool = sample_pool(ex, c, 2, seed=0)
    assert len(pool) == 2
    assert sum(cand.candidate_id == "c1" for cand in pool) == 1

    c2 = make_corpus(historical=["c3"])
    pool = sample_pool(c2.examples[0], c2, 4, seed=1)
    ids = [cand.candidate_id for cand in pool]
    assert len(set(ids)) == 4
    assert "c1" in ids and "c3" in ids


def test_sample_pool_semi_hard_equal_to_positive_falls_back_to_easy():
    c = make_corpus(historical=["c1"])
    assert semi_hard_id(c.examples[0]) is None
    pool = sample_pool(c.examples[0], c, 3, seed=2)
    ids = [cand.candidate_id for cand in pool]
    assert ids.count("c1") == 1 and len(set(ids)) == 3


def test_sample_pool_uses_most_recent_historical():
    c = make_corpus(historical=["c2", "c4"])
    assert semi_hard_id(c.examples[0]) == "c4"


def test_sample_pool_determinism_and_errors():
    c = make_corpus(historical=["c3"])
    ex = c.examples[0]
    a = [x.candidate_id for x in sample_pool(ex, c, 5, seed=9)]
    b = [x.candidate_id for x in sample_pool(ex, c, 5, seed=9)]
    other = [x.candidate_id for x in sample_pool(ex, c, 5, seed=10)]
    assert a == b
    assert a != other  # overwhelmingly likely under a different seed
    with pytest.raises(CapacityError):
        sample_pool(ex, c, 7, seed=0)
    with pytest.raises(ContractError):
        sample_pool(ex, c, 1, seed=0)


def test_sample_pool_never_duplicates_over_many_seeds():
    c = make_corpus(historical=["c5"])
    ex = c.examples[0]
    for seed in range(50):
        ids = [x.candidate_id for x in sample_pool(ex, c, 4, seed=seed)]
        assert len(set(ids)) == 4
        assert ids.count("c1") == 1


def test_sample_pool_matches_filtered_list_formula():
    # oracle: the draws index the explicitly filtered list of the other ids
    c = generate_synthetic(small_cfg(), seed=4)
    assert any(semi_hard_id(ex) is not None for ex in c.examples)
    for ex in c.examples[::3]:
        pool = c.pools[ex.task]
        for size in (2, 3, 9, len(pool)):
            for seed in range(3):
                got = [x.candidate_id for x in sample_pool(ex, c, size, seed)]
                chosen = [ex.positive_id]
                if semi_hard_id(ex) is not None:
                    chosen.append(semi_hard_id(ex))
                rng = derive_rng(seed, "pool", ex.dialogue_id,
                                 ex.query_turn_index, ex.task.value)
                rest = [cid for cid in pool if cid not in set(chosen)]
                fill = size - len(chosen)
                if fill:
                    picks = rng.choice(len(rest), size=fill, replace=False)
                    chosen.extend(rest[i] for i in picks)
                order = rng.permutation(len(chosen))
                assert got == [chosen[i] for i in order]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    defaults = dict(topics=8, dialogues_per_task=20, sessions_per_dialogue=3,
                    turns_per_session=2, words_per_topic=8, common_words=8,
                    entities=8, utterance_words=4)
    defaults.update(kw)
    return GeneratorConfig(**defaults)


def test_generator_config_validation():
    for name in ("topics", "common_words", "entities", "dialogues_per_task"):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            small_cfg(**{name: 0})
    with pytest.raises(ConfigError):
        small_cfg(utterance_words=9)
    with pytest.raises(ConfigError):
        small_cfg(sessions_per_dialogue=9)  # more units than topics
    for wrong in (dict(topics=6.5), dict(dialogues_per_task="3"),
                  dict(entities=True), dict(positive_coupling="no"),
                  dict(positive_coupling=1)):
        with pytest.raises(ConfigError, match=f"{next(iter(wrong))} is "):
            small_cfg(**wrong)


def test_generator_is_deterministic(tmp_path):
    cfg = small_cfg()
    a, b = generate_synthetic(cfg, 7), generate_synthetic(cfg, 7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(a, pa)
    write_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = generate_synthetic(cfg, 8)
    pc = tmp_path / "c.jsonl"
    write_corpus(c, pc)
    assert pa.read_bytes() != pc.read_bytes()


# SHA-256 of the write_corpus bytes of small corpora; they change only if
# the generator's draws change, or numpy's Generator streams do
GENERATED_DIGESTS = {
    ("default", 0): "49062d13e8ce8d2d02bf374f9ad6ffbca68d99aef1689381471bfd1754e00065",
    ("default", 7): "5798471eede86a26d2a9e1e7c7edff3d49d999e22e3e3e25a79351d02e7e1f7f",
    ("long-history", 0): "706d7677d095ffcc8f6de4991d4f853686a586dd5c3c2b232504aaf970867c2d",
    ("long-history", 7): "7b85f90733b7e049c32e8e1a42118004985f2d06094d4c05113f20ccd58f9ad8",
    ("uncoupled", 0): "8c315f74b7f02bd42687801e10a0bdd280b71dec9fe1ce1e90d5cd91ab1671f9",
    ("uncoupled", 7): "8dde98d07a49e2514860776c6a41f74ee9de8915d60e4d74d8c5d0c2e968104a",
    ("single-session", 0): "7e226a5691a7ed9b3626fa0bd08fda04b86065bd432bf384dbebe51d19f26758",
    ("single-session", 7): "b70fd27aeba3d8a63e5134ecb4f84ba38698d448d3a750257e311d07409571fa",
}
DIGEST_CONFIGS = {
    "default": GeneratorConfig(dialogues_per_task=12),
    "long-history": GeneratorConfig(dialogues_per_task=6, sessions_per_dialogue=8,
                                    turns_per_session=3),
    "uncoupled": GeneratorConfig(dialogues_per_task=12, positive_coupling=False),
    "single-session": GeneratorConfig(dialogues_per_task=12, sessions_per_dialogue=1,
                                      turns_per_session=4),
}


@pytest.mark.parametrize("name,seed", list(GENERATED_DIGESTS))
def test_generated_corpus_bytes_are_pinned(tmp_path, name, seed):
    path = tmp_path / "corpus.jsonl"
    write_corpus(generate_synthetic(DIGEST_CONFIGS[name], seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED_DIGESTS[name, seed]


def test_single_turn_dialogue_yields_one_example_without_history():
    cfg = small_cfg(dialogues_per_task=1, sessions_per_dialogue=1,
                    turns_per_session=1)
    c = generate_synthetic(cfg, 3)
    per_task = {t: [e for e in c.examples if e.task == t] for t in TaskKind}
    for t in TaskKind:
        assert len(per_task[t]) == 1
        assert per_task[t][0].historical_ids == ()


def test_generated_corpus_structure_and_history_rate():
    cfg = small_cfg()
    c = generate_synthetic(cfg, 5)
    assert len(c.dialogues) == 3 * cfg.dialogues_per_task
    per_dialogue = {}
    for ex in c.examples:
        per_dialogue.setdefault(ex.dialogue_id, []).append(ex)
    assert all(len(v) >= 1 for v in per_dialogue.values())
    assert len(per_dialogue) == len(c.dialogues)
    with_hist = sum(1 for ex in c.examples if ex.historical_ids)
    assert with_hist / len(c.examples) >= 0.3
    # historical ids are earlier positives of the same dialogue
    for exs in per_dialogue.values():
        exs.sort(key=lambda e: e.query_turn_index)
        seen = []
        for ex in exs:
            assert list(ex.historical_ids) == seen
            seen.append(ex.positive_id)
    c_loaded_like = build_corpus(c.dialogues, c.pools, c.examples)
    assert c_loaded_like.vocab == c.vocab


def _overlap(a: str, b: str) -> int:
    return len(set(a.split()) & set(b.split()))


def test_positive_overlap_beats_random_negatives():
    cfg = small_cfg(dialogues_per_task=40)
    c = generate_synthetic(cfg, 11)
    rng = derive_rng(11, "overlap-check")
    margin = []
    for ex in c.examples:
        d = c.dialogue(ex.dialogue_id)
        query = next(utt for utt in d.turns()
                     if utt.turn_index == ex.query_turn_index)
        pos = c.candidate(ex.task, ex.positive_id).text
        others = [cand.text for cid, cand in c.pools[ex.task].items()
                  if cid != ex.positive_id]
        sample = [others[i] for i in rng.choice(len(others), size=16, replace=False)]
        mean_neg = sum(_overlap(query.text, t) for t in sample) / len(sample)
        margin.append(_overlap(query.text, pos) - mean_neg)
    assert sum(margin) / len(margin) > 0.5


def test_uncoupled_positives_ignore_query_topics():
    cfg = small_cfg(positive_coupling=False)
    c = generate_synthetic(cfg, 13)
    entities = {f"e{i}" for i in range(cfg.entities)}
    for pool in c.pools.values():
        for cand in pool.values():
            assert not (set(cand.text.split()) & entities)


def test_split_corpus_partitions_dialogues_and_keeps_pools():
    cfg = small_cfg()
    c = generate_synthetic(cfg, 17)
    train, held = split_corpus(c, 0.25, seed=4)
    train_ids = {d.dialogue_id for d in train.dialogues}
    held_ids = {d.dialogue_id for d in held.dialogues}
    assert not (train_ids & held_ids)
    assert train_ids | held_ids == {d.dialogue_id for d in c.dialogues}
    assert len(held.dialogues) == round(0.25 * len(c.dialogues))
    assert held.pools == c.pools and train.pools == c.pools
    assert {e.dialogue_id for e in held.examples} <= held_ids
    assert len(train.examples) + len(held.examples) == len(c.examples)
    # evaluation tokenizes with the checkpoint's vocabulary, so only the
    # training half counts its own
    assert held.vocab is c.vocab
    assert train.vocab == build_vocab(train.dialogues, train.pools) != c.vocab
    with pytest.raises(ContractError):
        split_corpus(c, 0.0, seed=1)


def test_derive_rng_is_stable_and_tag_sensitive():
    a = derive_rng(5, "x", 1).integers(1 << 30)
    b = derive_rng(5, "x", 1).integers(1 << 30)
    c = derive_rng(5, "x", 2).integers(1 << 30)
    d = derive_rng(6, "x", 1).integers(1 << 30)
    assert a == b and a != c and a != d
