"""Tests of the benchmark harness itself, on workloads small enough to run
in seconds. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from convret.errors import TrainingError  # noqa: E402
from convret.generator import GeneratorConfig  # noqa: E402
from tracer import MissingSpanError, patched  # noqa: E402

SMALL = GeneratorConfig(topics=6, dialogues_per_task=40, words_per_topic=8,
                        common_words=6, entities=6, utterance_words=4)
TINY_TRAIN = bench.Workload("tiny-train", SMALL, train_steps=6)
# pool sizes up to 256 need 256 candidates per task
TINY_SWEEP = bench.Workload("tiny-sweep", replace(SMALL, dialogues_per_task=130),
                            train_steps=6, sweep=True)

COUNTS = ["autodiff.tape_nodes_per_step", "losses.tape_nodes_per_step",
          "encoder.calls_per_step", "encoder.calls_per_query",
          "corpus.candidate_reads_per_step", "evaluation.pool_cache_hit_ratio",
          "fusion.prev_encodes_per_context", "fusion.prev_len_mean"]


@pytest.mark.parametrize("wl", [TINY_TRAIN, TINY_SWEEP], ids=lambda w: w.name)
def test_count_metrics_repeat_exactly(wl, tmp_path):
    first = bench.trace(wl, 3, tmp_path)
    second = bench.trace(wl, 3, tmp_path)
    for traced, metrics, _ in (first, second):
        assert traced.failed == 0
        assert metrics.keys() == bench.PER_LAYER.keys()
        assert "traced run's losses or reports differ" not in " ".join(traced.problems)
    assert {k: first[1][k] for k in COUNTS} == {k: second[1][k] for k in COUNTS}
    assert all(first[1][k] > 0 for k in COUNTS)


def test_a_different_seed_changes_the_corpus(tmp_path):
    digests = {seed: bench.run(TINY_TRAIN, seed, 0, 2, tmp_path).digests
               for seed in (1, 2)}
    assert digests[1][0] == digests[1][1]
    assert digests[1][0] != digests[2][0]


def test_the_seed_is_the_only_input(tmp_path):
    a, b = bench.inputs(TINY_TRAIN, 5), bench.inputs(TINY_TRAIN, 6)
    assert replace(a, seed=6, train=replace(a.train, seed=6)) == b

    seen = []

    def record(name):
        def make(fn):
            def call(*args, **kwargs):
                seen.append((name, args, kwargs))
                return fn(*args, **kwargs)
            return call
        return make

    names = ["generator.generate_synthetic", "corpus.split_corpus",
             "training.train", "evaluation.evaluate"]
    runs = []
    for seconds, reps in ((0, 1), (0.5, 2)):
        seen.clear()
        with patched({n: record(n) for n in names}):
            p = bench.run(TINY_TRAIN, 5, seconds, reps, tmp_path)
        runs.append((p.histories[0], p.reports[0]))
        inp = bench.inputs(TINY_TRAIN, 5)
        for name, args, kwargs in seen:
            if name == "generator.generate_synthetic":
                assert args == (inp.generator, 5)
            elif name == "corpus.split_corpus":
                assert args[1:] == (bench.HOLDOUT, 5)
            elif name == "training.train":
                assert args[1:] == (inp.train,) and kwargs == {"max_steps": inp.steps}
            else:
                assert args[3:] == (bench.EVAL_POOL, 5)
    # run length and repetitions change no output
    assert runs[0] == runs[1]


def test_failures_are_counted_not_dropped(tmp_path):
    def broken(fn):
        def train(*args, **kwargs):
            raise TrainingError("non-finite loss at step 1")
        return train

    with patched({"training.train": broken}):
        p = bench.run(TINY_TRAIN, 1, 0, 1, tmp_path)
    assert p.failed == TINY_TRAIN.train_steps
    assert p.attempted == 1 + TINY_TRAIN.train_steps  # corpus round trip too
    assert any("TrainingError" in msg for msg in p.problems)


def test_a_missing_span_fails_loudly(tmp_path, monkeypatch):
    with pytest.raises(MissingSpanError):
        with patched({"training._batch_loss": lambda fn: fn}):
            pass
    with pytest.raises(MissingSpanError):
        with patched({"training.no_such_function": lambda fn: fn}):
            pass
    # present but off the pipeline's path: reported, never a zero time
    monkeypatch.setattr(bench, "SPANS", bench.SPANS + ["evaluation.ablation_run"])
    with pytest.raises(SystemExit, match="evaluation.ablation_run"):
        bench.trace(TINY_TRAIN, 1, tmp_path)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
