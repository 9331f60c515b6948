"""Workloads, timing, correctness checks and metrics of the convret benchmark.

A run builds everything from the workload's constants and ``--seed``. It
sets up (generate, write, load, split) three times; ``eval-sweep`` then
trains its checkpoint and round-trips it, once. Then it repeats the
workload's episode until ``--seconds`` have passed. Each episode does the
same seeded work, so every repetition must give the same losses and
reports. Set-up time is a median over repetitions, step times are
percentiles over all steps, and throughputs are total work over total
wall time.

``--trace 1`` instead runs one set-up and one episode without spans, then
the same with spans around the public ``convret`` functions listed in
SPANS, checks both gave identical outputs, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from convret import corpus as corpus_mod
from convret import evaluation, generator, training
from convret.corpus import TaskKind
from convret.errors import ConvretError
from convret.generator import GeneratorConfig
from convret.training import TrainConfig

from tracer import Tracer, arg, patched

HOLDOUT = 0.1
EVAL_POOL = 64
SWEEP_SIZES = [256, 128, 64, 32, 16, 8, 4, 2]
SWEEP_KS = [1, 2, 3, 4]
SETUP_REPS = 3
R1_FLOOR = 4 / EVAL_POOL  # four times chance at the evaluation pool size
PHASES = ("setup", "train", "roundtrip", "eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    generator: GeneratorConfig
    train_steps: int
    # eval-sweep: the checkpoint is trained at the end of set-up and the
    # timed episode is the pool-size and top-K sweeps
    sweep: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("train", GeneratorConfig(), train_steps=100),
    Workload("eval-sweep", GeneratorConfig(), train_steps=100, sweep=True),
    Workload("long-history",
             GeneratorConfig(dialogues_per_task=300, sessions_per_dialogue=8,
                             turns_per_session=3), train_steps=100),
)}


@dataclass(frozen=True)
class Inputs:
    """Everything the program is given in a run: a function of the
    workload and the seed alone."""
    generator: GeneratorConfig
    train: TrainConfig
    steps: int
    seed: int


def inputs(wl: Workload, seed: int) -> Inputs:
    return Inputs(wl.generator, TrainConfig(seed=seed), wl.train_steps, seed)


# name: (unit, better); the order is the order BENCHMARK.json lists them in
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_examples_per_s": ("examples/s", "higher"),
    "train_step_ms_p50": ("ms", "lower"),
    "train_step_ms_p90": ("ms", "lower"),
    "eval_queries_per_s": ("queries/s", "higher"),
    "loss_final": ("loss", "lower"),
    "heldout_r_at_1": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("share", "higher"),
}

PER_LAYER = {
    "autodiff.tape_nodes_per_step": ("count", "lower"),
    "autodiff.backward_ms_per_step": ("ms", "lower"),
    "encoder.ms_per_step": ("ms", "lower"),
    "encoder.calls_per_step": ("count", "lower"),
    "encoder.ms_per_query": ("ms", "lower"),
    "encoder.calls_per_query": ("count", "lower"),
    "fusion.self_ms_per_context": ("ms", "lower"),
    "fusion.prev_encodes_per_context": ("count", "lower"),
    "fusion.prev_len_mean": ("count", "lower"),
    "losses.ms_per_step": ("ms", "lower"),
    "losses.tape_nodes_per_step": ("count", "lower"),
    "training.optimizer_ms_per_step": ("ms", "lower"),
    "training.step_self_ms": ("ms", "lower"),
    "training.checkpoint_save_ms": ("ms", "lower"),
    "training.checkpoint_load_ms": ("ms", "lower"),
    "corpus.sample_pool_ms_per_query": ("ms", "lower"),
    "corpus.candidate_reads_per_step": ("count", "lower"),
    "corpus.write_s": ("s", "lower"),
    "corpus.load_s": ("s", "lower"),
    "generator.generate_s": ("s", "lower"),
    "evaluation.embed_pool_ms_per_query": ("ms", "lower"),
    "evaluation.pool_cache_hit_ratio": ("ratio", "higher"),
    "evaluation.retrieve_ms_per_query": ("ms", "lower"),
    "evaluation.self_ms_per_query": ("ms", "lower"),
    **{f"trace.{ph}_uncovered_share": ("share", "lower") for ph in PHASES},
    **{f"trace.{ph}_overhead_share": ("share", "lower") for ph in PHASES},
}

# Public functions timed in a traced run, as "module.function". The sweeps
# are only on the path of the eval-sweep workload.
SPANS = [
    "generator.generate_synthetic",
    "corpus.write_corpus", "corpus.load_corpus", "corpus.split_corpus",
    "corpus.sample_pool",
    "encoder.encode_utterance", "encoder.encode_candidate",
    "fusion.encode_context",
    "losses.batch_similarities", "losses.combined_loss",
    "autodiff.backward",
    "training.train", "training.optimizer_step",
    "training.save_checkpoint", "training.load_checkpoint",
    "evaluation.evaluate", "evaluation.embed_pool", "evaluation.retrieve",
]
SWEEP_SPANS = ["evaluation.pool_size_sweep", "evaluation.k_sweep"]


# ---------------------------------------------------------------------------
# trace hooks: counts taken where the work happens
# ---------------------------------------------------------------------------

def _on_context(tracer, frame, parent, args, kwargs):
    # the workloads' dialogues are multi-session, so "previous" means the
    # utterances of the sessions before the query's
    d, query_turn = arg(args, kwargs, 0, "d"), arg(args, kwargs, 1, "query_turn")
    before = 0
    for session in d.sessions:
        if session.utterances[-1].turn_index >= query_turn:
            break
        before += len(session.utterances)
    frame[2] = session.utterances[0].turn_index
    tracer.count("prev_len", before)


def _on_utterance(tracer, frame, parent, args, kwargs):
    if (parent is not None and parent[0] == "fusion.encode_context"
            and arg(args, kwargs, 0, "u").turn_index < parent[2]):
        tracer.count("prev_encodes")


def _tape_growth(index):
    def hook(tracer, frame, parent, args, kwargs):
        tape = arg(args, kwargs, index, "tape")
        if tape is None:
            return None
        before = len(tape.nodes)
        return lambda: tracer.count("loss_nodes", len(tape.nodes) - before)
    return hook


HOOKS = {
    "fusion.encode_context": _on_context,
    "encoder.encode_utterance": _on_utterance,
    "losses.batch_similarities": _tape_growth(4),
    "losses.combined_loss": _tape_growth(2),
    "autodiff.backward": lambda t, f, p, a, k: t.count(
        "tape_nodes", len(arg(a, k, 0, "tape").nodes)),
    "evaluation.embed_pool": lambda t, f, p, a, k: t.count(
        "pool_requested", len(arg(a, k, 0, "cands"))),
}


def new_tracer(wl: Workload) -> Tracer:
    return Tracer(SPANS + (SWEEP_SPANS if wl.sweep else []), HOOKS)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class _Stop(Exception):
    """A ConvretError was counted as a failure; the run ends."""


@dataclass
class Pass:
    """What one run measured and produced."""
    phases: Counter = field(default_factory=Counter)  # phase -> wall s
    setup_s: list = field(default_factory=list)  # per corpus set-up
    checkpoint_s: float = 0.0  # eval-sweep's checkpoint training and round trip
    step_ms: list = field(default_factory=list)
    histories: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # one list per episode
    r_at_1: list = field(default_factory=list)  # pool-64 mean per episode
    digests: list = field(default_factory=list)
    steps: int = 0
    examples: int = 0
    queries: int = 0
    reads: int = 0  # Corpus.pool_reads during training
    episodes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


@dataclass
class State:
    train_c: corpus_mod.Corpus
    held_c: corpus_mod.Corpus
    held_per_task: dict
    ck: training.Checkpoint | None = None


@contextmanager
def _attempt(p: Pass, units: int, what: str):
    """Count ``units`` attempted; a ConvretError fails them and ends the run."""
    p.attempted += units
    try:
        yield
    except ConvretError as exc:
        p.failed += units
        p.problems.append(f"{what}: {type(exc).__name__}: {exc}")
        raise _Stop from exc


@contextmanager
def _phase(p: Pass, tracer: Tracer | None, name: str):
    if tracer is not None:
        tracer.phase = name
    t0 = time.perf_counter()
    try:
        yield
    finally:
        p.phases[name] += time.perf_counter() - t0


def _setup(p: Pass, inp: Inputs, tmp: Path, tracer) -> State:
    before = sum(p.phases.values())
    path = tmp / "corpus.jsonl"
    with _attempt(p, 1, "corpus round trip"), _phase(p, tracer, "setup"):
        generated = generator.generate_synthetic(inp.generator, inp.seed)
        corpus_mod.write_corpus(generated, path)
        loaded = corpus_mod.load_corpus(path)
        train_c, held_c = corpus_mod.split_corpus(loaded, HOLDOUT, inp.seed)
    p.digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    if (loaded.dialogues, loaded.pools, loaded.examples, loaded.vocab) != (
            generated.dialogues, generated.pools, generated.examples,
            generated.vocab):
        p.problems.append("loaded corpus differs from the generated one")
    held_per_task = {t: sum(ex.task == t for ex in held_c.examples)
                     for t in TaskKind}
    p.setup_s.append(sum(p.phases.values()) - before)
    return State(train_c, held_c, held_per_task)


def _step_clock(ends: list[float]):
    """Wrapper factory that appends the time each optimizer step ends: the
    one hook of an untraced run."""
    def make(fn):
        def clocked(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.append(time.perf_counter())
            return out
        return clocked
    return make


def _train(p: Pass, inp: Inputs, train_c, tracer) -> training.Checkpoint:
    ends: list[float] = []
    reads = sum(train_c.pool_reads.values())
    with patched({"training.optimizer_step": _step_clock(ends)}), \
            _attempt(p, inp.steps, "train"), _phase(p, tracer, "train"):
        t0 = time.perf_counter()
        ck, history = training.train(train_c, inp.train, max_steps=inp.steps)
    if len(history) != inp.steps or len(ends) != inp.steps:
        p.problems.append(f"train ran {len(history)} steps, not {inp.steps}")
    bad = sum(not math.isfinite(x) for x in history)
    if bad:
        p.failed += bad
        p.problems.append(f"{bad} non-finite losses")
    p.step_ms += [1000 * (b - a) for a, b in zip([t0] + ends, ends)]
    p.histories.append(history)
    p.steps += len(history)
    p.examples += len(history) * inp.train.batch_size
    p.reads += sum(train_c.pool_reads.values()) - reads
    return ck


def _same_checkpoint(a: training.Checkpoint, b: training.Checkpoint) -> bool:
    def same(x, y):
        return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
    return (same(a.arrays, b.arrays) and same(a.moments_m, b.moments_m)
            and same(a.moments_v, b.moments_v) and a.vocab == b.vocab
            and a.cfg == b.cfg and a.step == b.step)


def _round_trip(p: Pass, ck, tmp: Path, tracer) -> training.Checkpoint:
    path = tmp / "model.ckpt"
    with _attempt(p, 1, "checkpoint round trip"), _phase(p, tracer, "roundtrip"):
        training.save_checkpoint(ck, path)
        loaded = training.load_checkpoint(path)
    if not _same_checkpoint(ck, loaded):
        p.failed += 1
        p.problems.append("checkpoint changed in a save/load round trip")
    return loaded


def _check_report(p: Pass, report, task: TaskKind, pool: int, n: int) -> None:
    """MetricsReport invariants beyond those its constructor enforces."""
    ok = (report.task is task and report.pool_size == pool
          and report.query_count == n
          and 0 <= report.r_at_1 <= report.r_at_5 <= 1
          and report.r_at_1 <= report.mrr <= 1)
    if not ok:
        p.failed += n
        p.problems.append(f"report invariant violated: {report.to_dict()}")


def _evaluate(p: Pass, inp: Inputs, state: State, ck, tracer) -> None:
    reports = []
    with _phase(p, tracer, "eval"):
        for task in TaskKind:
            with _attempt(p, state.held_per_task[task], f"evaluate {task.value}"):
                reports.append(evaluation.evaluate(state.held_c, ck, task,
                                                   EVAL_POOL, inp.seed))
    for task, r in zip(TaskKind, reports):
        _check_report(p, r, task, EVAL_POOL, state.held_per_task[task])
    _record_eval(p, reports, [r.r_at_1 for r in reports])


def _sweep(p: Pass, inp: Inputs, state: State, tracer) -> None:
    by_task = {}
    with _phase(p, tracer, "eval"):
        for task in TaskKind:
            n = state.held_per_task[task]
            with _attempt(p, n * len(SWEEP_SIZES), f"pool sweep {task.value}"):
                sizes = evaluation.pool_size_sweep(state.held_c, state.ck, task,
                                                   SWEEP_SIZES, inp.seed)
            with _attempt(p, n * (len(SWEEP_KS) + 1), f"k sweep {task.value}"):
                ks = evaluation.k_sweep(state.held_c, state.ck, task, SWEEP_KS,
                                        EVAL_POOL, inp.seed)
            by_task[task] = (sizes, ks)
    reports, r_at_1 = [], []
    for task, (sizes, ks) in by_task.items():
        n = state.held_per_task[task]
        for r, pool in zip(sizes, SWEEP_SIZES):
            _check_report(p, r, task, pool, n)
        for r in ks:
            _check_report(p, r, task, EVAL_POOL, n)
        r1 = [r.r_at_1 for r in sizes]
        # listed largest pool first, so R@1 should weakly increase
        if sum(a > b for a, b in zip(r1, r1[1:])) > 1:
            p.problems.append(f"{task.value} pool sweep is not monotone: {r1}")
        at_pool = sizes[SWEEP_SIZES.index(EVAL_POOL)]
        default_k = ks[SWEEP_KS.index(inp.train.mode.k)]
        if at_pool.r_at_1 != default_k.r_at_1 or at_pool.mrr != default_k.mrr:
            p.problems.append(f"{task.value}: pool sweep and k sweep disagree "
                              f"at pool {EVAL_POOL}, k={inp.train.mode.k}")
        if ks[-1].mode_kind != "no_prev":
            p.problems.append(f"{task.value}: k sweep does not end with no_prev")
        reports += sizes + ks
        r_at_1.append(at_pool.r_at_1)
    _record_eval(p, reports, r_at_1)


def _record_eval(p: Pass, reports, r_at_1) -> None:
    p.queries += sum(r.query_count for r in reports)
    p.reports.append([r.to_dict() for r in reports])
    p.r_at_1.append(statistics.fmean(r_at_1))


def run(wl: Workload, seed: int, seconds: float, setup_reps: int,
        workdir: Path, tracer: Tracer | None = None) -> Pass:
    """Set up ``setup_reps`` times, then run episodes until ``seconds``."""
    inp = inputs(wl, seed)
    p = Pass()
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp, \
            (patched(tracer.wrappers()) if tracer else nullcontext()):
        tmp = Path(tmp)
        try:
            state = None
            for _ in range(setup_reps):
                state = None  # one pipeline's data in memory at a time
                state = _setup(p, inp, tmp, tracer)
            if wl.sweep:
                before = sum(p.phases.values())
                state.ck = _round_trip(p, _train(p, inp, state.train_c, tracer),
                                       tmp, tracer)
                p.checkpoint_s = sum(p.phases.values()) - before
            start = time.perf_counter()
            while True:
                if wl.sweep:
                    _sweep(p, inp, state, tracer)
                else:
                    ck = _round_trip(p, _train(p, inp, state.train_c, tracer),
                                     tmp, tracer)
                    _evaluate(p, inp, state, ck, tracer)
                p.episodes += 1
                if time.perf_counter() - start >= seconds:
                    break
        except _Stop:
            pass
    _check_repeats(p)
    return p


def _check_repeats(p: Pass) -> None:
    """Every repetition of seeded work must give the same results."""
    if len(set(p.digests)) > 1:
        p.problems.append("set-up wrote different corpus bytes on repeat")
    if any(h != p.histories[0] for h in p.histories):
        p.problems.append("training losses differ between repetitions")
    if any(r != p.reports[0] for r in p.reports):
        p.problems.append("evaluation reports differ between repetitions")
    if p.histories:
        h = p.histories[0]
        tenth = max(1, len(h) // 10)
        if not statistics.fmean(h[-tenth:]) < statistics.fmean(h[:tenth]):
            p.problems.append("training did not lower the loss")
    if p.r_at_1 and not p.r_at_1[0] > R1_FLOOR:
        p.problems.append(f"held-out R@1 {p.r_at_1[0]} is not above {R1_FLOOR}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(p: Pass) -> dict[str, float]:
    h = p.histories[0]
    return {
        "setup_s": statistics.median(p.setup_s) + p.checkpoint_s,
        "train_examples_per_s": p.examples / p.phases["train"],
        "train_step_ms_p50": statistics.median(p.step_ms),
        "train_step_ms_p90": float(np.percentile(p.step_ms, 90)),
        "eval_queries_per_s": p.queries / p.phases["eval"],
        "loss_final": statistics.fmean(h[-max(1, len(h) // 10):]),
        "heldout_r_at_1": p.r_at_1[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - p.failed / p.attempted,
    }


def per_layer(t: Tracer, traced: Pass, base: Pass) -> dict[str, float]:
    train, ev, both = {"train"}, {"eval"}, {"train", "eval"}
    steps, queries = traced.steps, traced.queries
    contexts = t.calls("fusion.encode_context", both)
    enc = ("encoder.encode_utterance", "encoder.encode_candidate")

    def ms(seconds):
        return 1000 * seconds

    def enc_ms(phases):
        return ms(sum(t.self_time(n, phases) for n in enc))

    def enc_calls(phases):
        return sum(t.calls(n, phases) for n in enc)

    evaluate_self = sum(t.self_time(n, ev) for n in
                        ("evaluation.evaluate", *SWEEP_SPANS))
    values = {
        "autodiff.tape_nodes_per_step": t.counted("tape_nodes", train) / steps,
        "autodiff.backward_ms_per_step": ms(t.total("autodiff.backward", train)) / steps,
        "encoder.ms_per_step": enc_ms(train) / steps,
        "encoder.calls_per_step": enc_calls(train) / steps,
        "encoder.ms_per_query": enc_ms(ev) / queries,
        "encoder.calls_per_query": enc_calls(ev) / queries,
        "fusion.self_ms_per_context":
            ms(t.self_time("fusion.encode_context", both)) / contexts,
        "fusion.prev_encodes_per_context": t.counted("prev_encodes", both) / contexts,
        "fusion.prev_len_mean": t.counted("prev_len", both) / contexts,
        "losses.ms_per_step": ms(t.total("losses.batch_similarities", train)
                                 + t.total("losses.combined_loss", train)) / steps,
        "losses.tape_nodes_per_step": t.counted("loss_nodes", train) / steps,
        "training.optimizer_ms_per_step":
            ms(t.total("training.optimizer_step", train)) / steps,
        "training.step_self_ms": ms(t.self_time("training.train", train)) / steps,
        "training.checkpoint_save_ms": ms(t.total("training.save_checkpoint"))
            / t.calls("training.save_checkpoint"),
        "training.checkpoint_load_ms": ms(t.total("training.load_checkpoint"))
            / t.calls("training.load_checkpoint"),
        "corpus.sample_pool_ms_per_query": ms(t.total("corpus.sample_pool", ev)) / queries,
        "corpus.candidate_reads_per_step": traced.reads / steps,
        "corpus.write_s": t.total("corpus.write_corpus"),
        "corpus.load_s": t.total("corpus.load_corpus"),
        "generator.generate_s": t.total("generator.generate_synthetic"),
        "evaluation.embed_pool_ms_per_query":
            ms(t.self_time("evaluation.embed_pool", ev)) / queries,
        "evaluation.pool_cache_hit_ratio": 1 - t.counted(
            "evaluation.embed_pool>encoder.encode_candidate", ev)
            / t.counted("pool_requested", ev),
        "evaluation.retrieve_ms_per_query": ms(t.total("evaluation.retrieve", ev)) / queries,
        "evaluation.self_ms_per_query": ms(evaluate_self) / queries,
    }
    for ph in PHASES:
        values[f"trace.{ph}_uncovered_share"] = 1 - t.covered[ph] / traced.phases[ph]
        values[f"trace.{ph}_overhead_share"] = traced.phases[ph] / base.phases[ph] - 1
    return values


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def measure(wl: Workload, seed: int, seconds: float, workdir: Path):
    p = run(wl, seed, seconds, SETUP_REPS, workdir)
    metrics = end_to_end(p) if p.histories and p.r_at_1 else {}
    return p, metrics, {}


def trace(wl: Workload, seed: int, workdir: Path):
    base = run(wl, seed, 0, 1, workdir)
    tracer = new_tracer(wl)
    traced = run(wl, seed, 0, 1, workdir, tracer)
    missing = tracer.never_called()
    if missing and not traced.failed:
        raise SystemExit(f"perfbench: spans never entered on {wl.name}: "
                         f"{', '.join(missing)}; was a function renamed or inlined?")
    if (traced.histories, traced.reports) != (base.histories, base.reports):
        traced.problems.append("traced run's losses or reports differ from the untraced run's")
    traced.problems += base.problems
    traced.attempted += base.attempted
    traced.failed += base.failed
    metrics = (per_layer(tracer, traced, base)
               if not traced.failed and not base.failed else {})
    detail = {"phases_untraced_s": dict(base.phases),
              "phases_traced_s": dict(traced.phases),
              "spans": {f"{ph}:{name}": {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                        for (ph, name), s in sorted(tracer.stats.items())}}
    return traced, metrics, detail


def main(argv: list[str], workdir: Path) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    started = stamp()
    if args.trace:
        p, metrics, detail = trace(wl, args.seed, workdir)
        units = PER_LAYER
    else:
        p, metrics, detail = measure(wl, args.seed, args.seconds, workdir)
        units = END_TO_END
    try:
        workdir.rmdir()
    except OSError:
        pass  # another run is using it
    correct = not p.problems and p.failed == 0 and metrics.keys() == units.keys()
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "stamp_start": started, "stamp_end": stamp(),
              "setup_reps": len(p.setup_s), "episodes": p.episodes,
              "steps": p.steps, "queries": p.queries,
              "failed_share": p.failed / max(1, p.attempted),
              "problems": p.problems, **detail}
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": max(1, p.attempted), "failed": p.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units if name in metrics}}))
    return 0
