"""Command-line interface tests: JSON contracts, exit codes, determinism."""

import json
import struct

import pytest

from convret import evaluation
from convret.cli import _csv_ints, build_parser, main
from convret.corpus import TaskKind, derive_rng, load_corpus
from convret.evaluation import evaluate
from convret.training import load_checkpoint, save_checkpoint

from test_training import IMPOSSIBLE_SHAPES, edit_header, resign

GEN = ["gen-data", "--topics", "6", "--dialogues-per-task", "12",
       "--sessions", "2", "--turns", "2", "--entities", "8", "--seed", "3"]
TRAIN_OPTS = ["--epochs", "1", "--batch", "4", "--seed", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    ckpt = tmp_path / "model.ckpt"
    assert run(capsys, *GEN, "--out", str(corpus))[0] == 0
    assert run(capsys, "train", "--corpus", str(corpus), "--out", str(ckpt),
               *TRAIN_OPTS)[0] == 0
    return corpus, ckpt


def test_csv_ints():
    assert _csv_ints("256,128,2") == [256, 128, 2]
    assert _csv_ints("7") == [7]


def test_gen_data_summary_and_file(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    code, stdout, _ = run(capsys, *GEN, "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["out"] == str(out)
    assert doc["dialogues"] == 36
    assert doc["examples"] == 36
    corpus = load_corpus(out)
    assert len(corpus.examples) == doc["examples"]
    assert doc["candidates"] == {t.value: len(p)
                                 for t, p in corpus.pools.items()}


def test_gen_data_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _, out_a, _ = run(capsys, *GEN, "--out", str(a))
    _, out_b, _ = run(capsys, *GEN, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert out_a.replace(str(a), "") == out_b.replace(str(b), "")


def test_train_writes_loadable_checkpoint(tmp_path, capsys):
    corpus, ckpt = pipeline(tmp_path, capsys)
    ck = load_checkpoint(ckpt)
    assert ck.step == 9
    assert ck.cfg.epochs == 1


def test_train_regime_restricts_tasks(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    ckpt = tmp_path / "persona.ckpt"
    run(capsys, *GEN, "--out", str(corpus))
    code, stdout, _ = run(capsys, "train", "--corpus", str(corpus), "--out",
                          str(ckpt), "--regime", "persona", *TRAIN_OPTS)
    assert code == 0
    assert json.loads(stdout)["steps"] == 3
    assert load_checkpoint(ckpt).cfg.regime is TaskKind.PERSONA


def test_eval_json_matches_library_call(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    code, stdout, _ = run(capsys, "eval", "--corpus", str(corpus_path),
                          "--ckpt", str(ckpt), "--task", "persona",
                          "--pool-size", "8", "--seed", "7")
    assert code == 0
    doc = json.loads(stdout)
    report = evaluate(load_corpus(corpus_path), load_checkpoint(ckpt),
                      TaskKind.PERSONA, 8, seed=7)
    assert doc == report.to_dict()
    assert doc["r_at_1"] <= doc["r_at_5"]


def test_eval_mode_override(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    _, base, _ = run(capsys, "eval", "--corpus", str(corpus_path), "--ckpt",
                     str(ckpt), "--task", "persona", "--pool-size", "8",
                     "--seed", "7")
    _, over, _ = run(capsys, "eval", "--corpus", str(corpus_path), "--ckpt",
                     str(ckpt), "--task", "persona", "--pool-size", "8",
                     "--seed", "7", "--mode", "no-prev")
    assert json.loads(base)["config"]["mode"] == "adaptive"
    assert json.loads(over)["config"]["mode"] == "no_prev"


def test_sweep_pool_emits_array(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    code, stdout, _ = run(capsys, "sweep-pool", "--corpus", str(corpus_path),
                          "--ckpt", str(ckpt), "--task", "knowledge",
                          "--sizes", "2,4,8", "--seed", "7")
    assert code == 0
    docs = json.loads(stdout)
    assert [d["pool_size"] for d in docs] == [2, 4, 8]


def test_sweep_k_emits_adaptive_then_no_prev(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    code, stdout, _ = run(capsys, "sweep-k", "--corpus", str(corpus_path),
                          "--ckpt", str(ckpt), "--task", "response",
                          "--ks", "1,2", "--pool-size", "8", "--seed", "7")
    assert code == 0
    docs = json.loads(stdout)
    assert [d["config"]["mode"] for d in docs] == ["adaptive", "adaptive",
                                                   "no_prev"]
    assert [d["config"]["k"] for d in docs[:2]] == [1, 2]


def test_ablate_emits_variant_table(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    run(capsys, *GEN, "--out", str(corpus_path))
    code, stdout, _ = run(capsys, "ablate", "--corpus", str(corpus_path),
                          "--variants", "baseline,no_pair", "--pool-size", "8",
                          *TRAIN_OPTS, "--eval-seed", "7")
    assert code == 0
    table = json.loads(stdout)
    assert set(table) == {"baseline", "no_pair"}
    assert set(table["baseline"]) == {t.value for t in TaskKind}


def test_ablate_evaluates_on_the_eval_corpus(tmp_path, capsys):
    train_path, eval_path = tmp_path / "train.jsonl", tmp_path / "eval.jsonl"
    run(capsys, *GEN, "--out", str(train_path))
    run(capsys, *GEN[:-1], "4", "--out", str(eval_path))

    def table(*eval_corpus):
        code, stdout, _ = run(capsys, "ablate", "--corpus", str(train_path),
                              *eval_corpus, "--variants", "baseline",
                              "--pool-size", "8", "--epochs", "0", "--batch", "4",
                              "--eval-seed", "7")
        assert code == 0
        return json.loads(stdout)

    assert (table() == table("--eval-corpus", str(train_path))
            != table("--eval-corpus", str(eval_path)))


def test_ablate_without_a_loss_term_fails_before_training(tmp_path, capsys,
                                                         monkeypatch):
    corpus_path = tmp_path / "corpus.jsonl"
    run(capsys, *GEN, "--out", str(corpus_path))

    def refuse(*args, **kwargs):
        raise AssertionError("a variant trained")

    monkeypatch.setattr(evaluation, "train", refuse)
    code, stdout, stderr = run(capsys, "ablate", "--corpus", str(corpus_path),
                               "--no-pair", "--variants", "baseline,no_hist",
                               *TRAIN_OPTS)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("convret: at least one loss term")
    assert stderr.count("\n") == 1


def test_missing_file_fails_with_diagnostic(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "eval", "--corpus",
                               str(tmp_path / "nope.jsonl"), "--ckpt",
                               str(tmp_path / "nope.ckpt"), "--task", "persona")
    assert code == 1
    assert stdout == ""
    assert "convret:" in stderr


def test_invalid_checkpoint_header_fails_with_diagnostic(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    blob = ckpt.read_bytes()
    # the last four configs imply other arrays than the file holds, or
    # give an int field another type
    for edit in (lambda h: h.pop("step"),
                 lambda h: h["config"]["mode"].update(k=2.5),
                 lambda h: h["config"].update(positions=4),
                 lambda h: h["config"].update(dim=h["config"]["dim"] + 1),
                 lambda h: h["config"].update(dim=float(h["config"]["dim"])),
                 lambda h: h["config"].update(epochs=1.5),
                 lambda h: h["config"].update(use_pair=1)):
        ckpt.write_bytes(edit_header(blob, edit))
        code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                                   "--ckpt", str(ckpt), "--task", "persona",
                                   "--pool-size", "8")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("convret: invalid checkpoint header")
        assert stderr.count("\n") == 1


@pytest.mark.parametrize("record", ["header", "vocabulary"])
def test_non_utf8_checkpoint_record_fails_with_one_line(tmp_path, capsys, record):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    blob = ckpt.read_bytes()
    (n,) = struct.unpack("<I", blob[4:8])

    def spoil(body):
        body[8 if record == "header" else 12 + n] = 0xFF
        return body
    ckpt.write_bytes(resign(blob, spoil))
    code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                               "--ckpt", str(ckpt), "--task", "persona")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("convret: corrupt checkpoint header")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("vocabulary", [
    5, None, [[1]], {"a": 1}, [1, 2], "abc", "repeated"])
def test_malformed_checkpoint_vocabulary_fails_with_one_line(tmp_path, capsys,
                                                             vocabulary):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    blob = ckpt.read_bytes()
    (n,) = struct.unpack("<I", blob[4:8])
    (m,) = struct.unpack("<I", blob[8 + n:12 + n])
    if vocabulary == "repeated":
        # as many tokens as embedding rows, the last a copy of the first
        tokens = json.loads(blob[12 + n:12 + n + m])
        vocabulary = tokens[:-1] + tokens[:1]
    payload = json.dumps(vocabulary).encode()
    ckpt.write_bytes(resign(blob, lambda body: body[:8 + n]
                            + struct.pack("<I", len(payload)) + payload
                            + body[12 + n + m:]))
    code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                               "--ckpt", str(ckpt), "--task", "persona",
                               "--pool-size", "8")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("convret: invalid checkpoint vocabulary")
    assert stderr.count("\n") == 1


def test_corrupted_checkpoints_exit_one_with_one_line(tmp_path, capsys):
    """Seeded truncations, byte flips and byte insertions of a small
    checkpoint: each ``convret eval`` returns 1 without raising and prints
    exactly one ``convret:`` line."""
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    blob = ckpt.read_bytes()
    (n,) = struct.unpack("<I", blob[4:8])
    (m,) = struct.unpack("<I", blob[8 + n:12 + n])
    bad = tmp_path / "bad.ckpt"
    rng = derive_rng(0, "checkpoint-corruption")
    for case in range(300):
        # every other case aims at the records before the arrays
        end = len(blob) if case % 2 else 12 + n + m + 64
        at = int(rng.integers(end))
        kind = case % 3
        if kind == 0:
            data = blob[:at]
        elif kind == 1:
            data = bytearray(blob)
            for i in rng.integers(end, size=int(rng.integers(1, 5))):
                data[i] ^= int(rng.integers(1, 256))
        else:
            data = blob[:at] + rng.bytes(int(rng.integers(1, 9))) + blob[at:]
        bad.write_bytes(bytes(data))
        code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                                   "--ckpt", str(bad), "--task", "persona",
                                   "--pool-size", "8")
        assert code == 1, case
        assert stdout == "", case
        assert stderr.startswith("convret: ") and stderr.count("\n") == 1, case


def test_invalid_pool_size_fails_with_one_line(tmp_path, capsys):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    for size in ("1", "999"):
        code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                                   "--ckpt", str(ckpt), "--task", "persona",
                                   "--pool-size", size, "--seed", "7")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("convret: ") and stderr.count("\n") == 1
        assert size in stderr


@pytest.mark.parametrize("shape", IMPOSSIBLE_SHAPES)
def test_impossible_checkpoint_shape_fails_with_one_line(tmp_path, capsys, shape):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    ckpt.write_bytes(edit_header(ckpt.read_bytes(),
                                  lambda h: h["config"].update(shape)))
    code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                               "--ckpt", str(ckpt), "--task", "persona")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("convret: invalid checkpoint header")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("name,value", [("ff_weight", float("nan")),
                                        ("m.ff_bias", float("inf"))])
def test_non_finite_checkpoint_array_fails_with_one_line(tmp_path, capsys,
                                                         name, value):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    ck = load_checkpoint(ckpt)
    group = ck.moments_m if name.startswith("m.") else ck.arrays
    group[name.removeprefix("m.")].flat[1] = value
    save_checkpoint(ck, ckpt)
    code, stdout, stderr = run(capsys, "eval", "--corpus", str(corpus_path),
                               "--ckpt", str(ckpt), "--task", "persona",
                               "--pool-size", "8")
    assert code == 1
    assert stdout == ""
    assert stderr == f"convret: non-finite value in checkpoint array {name}\n"


@pytest.mark.parametrize("flag,value", [
    ("--sizes", ",,,"), ("--sizes", "8,8"), ("--ks", ""), ("--ks", "2,1,2"),
    ("--variants", ","), ("--variants", "no_pair,no_pair")])
def test_list_flags_reject_empty_and_repeated_values(tmp_path, capsys, flag,
                                                     value):
    corpus_path, ckpt = pipeline(tmp_path, capsys)
    command = {"--sizes": ["sweep-pool", "--ckpt", str(ckpt), "--task", "persona"],
               "--ks": ["sweep-k", "--ckpt", str(ckpt), "--task", "persona"],
               "--variants": ["ablate", *TRAIN_OPTS]}[flag]
    code, stdout, stderr = run(capsys, *command, "--corpus", str(corpus_path),
                               flag, value)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"convret: {flag} needs one or more distinct values")
    assert stderr.count("\n") == 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
