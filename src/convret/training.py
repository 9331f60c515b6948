"""Mini-batch training loop, AdamW optimizer, and checkpointing.

Determinism is the organizing principle: the shuffle and the easy negatives
of each task and epoch come from a generator derived from (seed, tags), not
from RNG state carried across epochs, so a resumed run replays the exact
remaining schedule and reproduces an uninterrupted run bit for bit.
Checkpoints are a versioned binary format (magic "UCR2") holding the
config, the vocabulary, and all parameter and optimizer-moment arrays as
little-endian float64 in a declared order, followed by the SHA-256 of every
byte before it, which loading checks before it parses anything.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import io
import itertools
import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .corpus import (Corpus, TaskKind, TrainingInputs, derive_rng,
                     replace_on_success)
from .encoder import EncoderParams, encode_batch, init_encoder_params
from .errors import CheckpointError, ConfigError, TrainingError
from .fusion import (ContextMode, FusionParams, ModeKind, encode_contexts,
                     init_fusion_params)
from .losses import LossConfig, batch_similarities, combined_loss

CHECKPOINT_MAGIC = b"UCR2"
CHECKSUM_BYTES = 32  # SHA-256 of every byte before it, at the end of the file


class Schedule(enum.Enum):
    CONSTANT = "constant"
    LINEAR_DECAY = "linear_decay"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 2e-2
    schedule: Schedule = Schedule.CONSTANT
    mode: ContextMode = field(default_factory=ContextMode.adaptive)
    gamma: float = 1.0
    use_hist: bool = True
    use_pair: bool = True
    regime: TaskKind | None = None  # None trains on all tasks combined
    seed: int = 0
    dim: int = 64
    weight_decay: float = 0.0
    positions: int = 0  # discourse-position table size, 0 disables it

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs {self.epochs} is negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size {self.batch_size} is below 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate {self.learning_rate} is not positive")
        if self.dim < 1:
            raise ConfigError(f"dim {self.dim} is below 1")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay {self.weight_decay} is negative")
        if self.positions < 0:
            raise ConfigError(f"positions {self.positions} is negative")
        self.loss_config()  # gamma and the loss terms

    def loss_config(self) -> LossConfig:
        return LossConfig(gamma=self.gamma, use_hist=self.use_hist,
                          use_pair=self.use_pair)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs, "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "schedule": self.schedule.value,
            "mode": {"kind": self.mode.kind.value, "k": self.mode.k},
            "gamma": self.gamma, "use_hist": self.use_hist,
            "use_pair": self.use_pair,
            "regime": self.regime.value if self.regime else "full",
            "seed": self.seed, "dim": self.dim,
            "weight_decay": self.weight_decay, "positions": self.positions,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return TrainConfig(
            epochs=d["epochs"], batch_size=d["batch_size"],
            learning_rate=d["learning_rate"],
            schedule=Schedule(d["schedule"]),
            mode=ContextMode(ModeKind(d["mode"]["kind"]), d["mode"]["k"]),
            gamma=d["gamma"], use_hist=d["use_hist"], use_pair=d["use_pair"],
            regime=None if d["regime"] == "full" else TaskKind(d["regime"]),
            seed=d["seed"], dim=d["dim"],
            weight_decay=d["weight_decay"], positions=d["positions"])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def optimizer_step(ck: Checkpoint, grads: dict[str, np.ndarray], lr_t: float,
                   weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay adaptive-moment update with bias correction
    of ``ck``'s arrays, moments and step, in place; a non-finite gradient
    raises before anything changes."""
    for name in ck.arrays:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient for {name} at step {ck.step + 1}")
    ck.step += 1
    t = ck.step
    for name, p in ck.arrays.items():
        g = grads[name]
        m = ADAM_BETA1 * ck.moments_m[name] + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * ck.moments_v[name] + (1 - ADAM_BETA2) * g * g
        ck.moments_m[name], ck.moments_v[name] = m, v
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p -= lr_t * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p)


def schedule_lr(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Learning rate for a 1-based step; linear decay ends exactly at zero."""
    if cfg.schedule is Schedule.CONSTANT or total_steps == 0:
        return cfg.learning_rate
    return cfg.learning_rate * (1.0 - step / total_steps)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """The model: parameters, their optimizer moments, vocabulary, config, step."""
    arrays: dict[str, np.ndarray]  # parameters, fixed declared order
    moments_m: dict[str, np.ndarray]
    moments_v: dict[str, np.ndarray]
    vocab: dict[str, int]
    cfg: TrainConfig
    step: int

    def tensors(self) -> dict[str, ad.Tensor]:
        return {k: ad.Tensor(a, requires_grad=True)
                for k, a in self.arrays.items()}

    def views(self) -> tuple[EncoderParams, FusionParams]:
        """Encoder and fusion parameters viewing this checkpoint's arrays."""
        return param_views(self.tensors(), self.vocab)


def param_views(params: dict[str, ad.Tensor],
                vocab: dict[str, int]) -> tuple[EncoderParams, FusionParams]:
    """The encoder and fusion views of one dict of named parameter tensors."""
    return (EncoderParams(params["embedding"], params["ff_weight"],
                          params["ff_bias"], vocab, params.get("position")),
            FusionParams(params["gate_w"]))


def _record(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError("truncated checkpoint file")
    return data


def _read_record(fh) -> bytes:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n)


def save_checkpoint(ck: Checkpoint, path) -> None:
    order = list(ck.arrays)
    declared = ([[n, list(ck.arrays[n].shape)] for n in order]
                + [[f"m.{n}", list(ck.moments_m[n].shape)] for n in order]
                + [[f"v.{n}", list(ck.moments_v[n].shape)] for n in order])
    header = {"config": ck.cfg.to_dict(), "step": ck.step, "arrays": declared}
    ids = sorted(ck.vocab.values())
    if ids != list(range(len(ck.vocab))):
        raise CheckpointError("vocabulary ids are not contiguous")
    tokens = sorted(ck.vocab, key=ck.vocab.get)
    records = [json.dumps(header, sort_keys=True, separators=(",", ":")).encode(),
               json.dumps(tokens, ensure_ascii=False, separators=(",", ":")).encode()]
    arrays = (np.ascontiguousarray(group[n], dtype="<f8").tobytes()
              for group in (ck.arrays, ck.moments_m, ck.moments_v) for n in order)
    digest = hashlib.sha256()
    with replace_on_success(path, "wb") as fh:
        for part in itertools.chain([CHECKPOINT_MAGIC], map(_record, records), arrays):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + CHECKSUM_BYTES:
        raise CheckpointError("truncated checkpoint file")
    magic, end = blob[:len(CHECKPOINT_MAGIC)], len(blob) - CHECKSUM_BYTES
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"incompatible checkpoint version or format: magic {magic!r}")
    if hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise CheckpointError("corrupt checkpoint file: SHA-256 checksum mismatch")
    with io.BytesIO(blob) as fh:
        fh.seek(len(magic))
        try:
            header = json.loads(_read_record(fh))
            tokens = json.loads(_read_record(fh))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        try:
            declared = [(str(name), [int(n) for n in shape])
                        for name, shape in header["arrays"]]
            cfg = TrainConfig.from_dict(header["config"])
            step = header["step"]
            if type(step) is not int or step < 0:
                raise ValueError(f"step {step!r} is not a step count")
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointError(
                f"invalid checkpoint header: {type(exc).__name__}: {exc}") from exc
        # every declared size must fit the bytes left before any is read
        left = end - fh.tell()
        for name, shape in declared:
            if not all(0 <= n <= left for n in shape):
                raise CheckpointError(
                    f"invalid checkpoint header: array {name} has shape {shape}")
        size = 8 * sum(math.prod(shape) for _, shape in declared)
        if size != left:
            raise CheckpointError(
                f"truncated checkpoint file: arrays need {size} bytes, {left} left"
                if size > left else "trailing bytes after declared arrays")
        arrays = {name: np.frombuffer(_read_exact(fh, 8 * math.prod(shape)),
                                      dtype="<f8").reshape(shape).copy()
                  for name, shape in declared}
    params = {n: a for n, a in arrays.items() if "." not in n}
    rows = params["embedding"].shape[:1] if "embedding" in params else None
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and len(set(tokens)) == len(tokens) and rows == (len(tokens),)):
        raise CheckpointError("invalid checkpoint vocabulary: not one distinct "
                              "string per embedding row")
    # each parameter the config implies, and its two moments, in its shape
    d = cfg.dim
    shapes = {"embedding": (len(tokens), d), "ff_weight": (d, d), "ff_bias": (d,),
              "gate_w": (2 * d,)}
    if cfg.positions > 0:
        shapes["position"] = (cfg.positions, d)
    need = {k + n: shape for k in ("", "m.", "v.") for n, shape in shapes.items()}
    found = {n: a.shape for n, a in arrays.items()}
    if found != need:
        raise CheckpointError(f"invalid checkpoint header: arrays {found} do not "
                              f"fit its config, which needs {need}")
    return Checkpoint(
        arrays=params,
        moments_m={n: arrays[f"m.{n}"] for n in params},
        moments_v={n: arrays[f"v.{n}"] for n in params},
        vocab={tok: i for i, tok in enumerate(tokens)},
        cfg=cfg, step=step)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _task_examples(corpus: Corpus, cfg: TrainConfig) -> dict[TaskKind, np.ndarray]:
    """Each trained task's example indices into ``corpus.examples``."""
    by_task = {t: np.array([e for e, ex in enumerate(corpus.examples) if ex.task == t],
                           dtype=np.intp)
               for t in TaskKind if cfg.regime in (None, t)}
    if cfg.regime is not None:
        if by_task[cfg.regime].size < cfg.batch_size:
            raise ConfigError(
                f"{cfg.regime.value} has {by_task[cfg.regime].size} examples, "
                f"need at least {cfg.batch_size}")
        return by_task
    usable = {t: rows for t, rows in by_task.items() if rows.size >= cfg.batch_size}
    if not usable:
        raise ConfigError(f"no task has {cfg.batch_size} examples to fill a batch")
    return usable


def _epoch_batches(inputs: TrainingInputs, tasks: dict[TaskKind, np.ndarray],
                   cfg: TrainConfig, epoch: int):
    """Task-homogeneous batches as (task, example indices, easy-negative
    pool positions), tasks interleaved round-robin, drop-last.

    An example's easy negative is never its positive or its semi-hard: one
    draw per task and epoch picks from each pool with those positions
    removed, then adds one for each removed position, in ascending order,
    at or below the draw."""
    per_task = {}
    for t, rows in tasks.items():
        lo, hi = np.sort(inputs.targets[rows], axis=1).T
        present = lo != hi
        # pool size (one offset fewer) minus the excluded positions
        high = len(inputs.candidates[t][1]) - 2 - present
        if np.any(high < 1):
            raise ConfigError(f"{t.value} pool has no easy negative available")
        easy = derive_rng(cfg.seed, "easy", t.value, epoch).integers(high)
        easy += easy >= lo
        easy += present & (easy >= hi)
        order = derive_rng(cfg.seed, "shuffle", t.value, epoch).permutation(rows.size)
        n_full = rows.size // cfg.batch_size
        per_task[t] = [(rows[b], easy[b])
                       for b in np.split(order[:n_full * cfg.batch_size], n_full)]
    longest = max(len(b) for b in per_task.values())
    for i in range(longest):
        for t in TaskKind:
            if t in per_task and i < len(per_task[t]):
                yield (t, *per_task[t][i])


def _steps(tasks: dict[TaskKind, np.ndarray], cfg: TrainConfig) -> int:
    return sum(rows.size // cfg.batch_size for rows in tasks.values())


def steps_per_epoch(corpus: Corpus, cfg: TrainConfig) -> int:
    return _steps(_task_examples(corpus, cfg), cfg)


def _batch_loss(inputs: TrainingInputs, task: TaskKind, batch: np.ndarray,
                easy: np.ndarray, params: dict[str, ad.Tensor], cfg: TrainConfig,
                tape: ad.Tape, frozen_selection: list[list[int]] | None = None):
    """The combined loss of a ``task`` batch of example indices, as one
    graph over the corpus's compiled ``inputs``: contexts and the distinct
    candidates (by pool position: each example's positive, semi-hard and
    ``easy`` negative) are encoded as matrices, and every score is an entry
    of their B x N product. An absent semi-hard score is never read; its
    position is the positive's."""
    enc, fus = param_views(params, inputs.vocab)
    contexts = encode_contexts(inputs, batch, cfg.mode, enc, fus, tape,
                               frozen_selection)
    pos, semi = inputs.targets[batch].T
    need, inverse = np.unique(np.concatenate([pos, semi, easy]), return_inverse=True)
    pos_cols, semi_cols, easy_cols = inverse.reshape(3, -1)
    cand_rows = encode_batch(*inputs.candidate_seqs(task, need), enc, tape)

    scores = ad.matmul(contexts, ad.transpose(cand_rows, tape), tape)
    rows = np.arange(len(batch))
    sims = batch_similarities(ad.gather(scores, (rows[:, None], pos_cols), tape),
                              ad.gather(scores, (rows, semi_cols), tape),
                              ad.gather(scores, (rows, easy_cols), tape),
                              semi != pos, tape)
    return combined_loss(sims, cfg.loss_config(), tape)


def train(corpus: Corpus, cfg: TrainConfig, start: Checkpoint | None = None,
          max_steps: int | None = None) -> tuple[Checkpoint, list[float]]:
    """Run (or resume) training; returns the checkpoint and per-step losses.

    ``start`` resumes from a saved checkpoint, which is copied and never
    changed: already-performed steps are skipped by schedule position, so
    the result is bit-identical to an uninterrupted run of the same config.
    ``max_steps`` caps how many optimizer steps this call performs.
    """
    tasks = _task_examples(corpus, cfg)
    ck = (initial_checkpoint(corpus, cfg) if start is None
          else replace(copy.deepcopy(start), cfg=cfg))
    inputs = corpus.training_inputs(ck.vocab, tasks)
    total_steps = cfg.epochs * _steps(tasks, cfg)
    schedule = itertools.chain.from_iterable(
        _epoch_batches(inputs, tasks, cfg, epoch) for epoch in range(cfg.epochs))
    stop = None if max_steps is None else ck.step + max(max_steps, 0)
    history: list[float] = []
    for task, batch, easy in itertools.islice(schedule, ck.step, stop):
        tape = ad.Tape()
        params = ck.tensors()
        loss = _batch_loss(inputs, task, batch, easy, params, cfg, tape)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at step {ck.step + 1}")
        # a pair-only objective over a batch with no semi-hard items is
        # the constant zero; step with zero gradients to keep the
        # schedule position (and resume equality) intact
        grads = ad.gradients(tape, loss, params)
        lr_t = schedule_lr(cfg, ck.step + 1, total_steps)
        optimizer_step(ck, grads, lr_t, cfg.weight_decay)
        history.append(value)
    return ck, history


def initial_checkpoint(corpus: Corpus, cfg: TrainConfig) -> Checkpoint:
    """Untrained checkpoint at the config's initialization; works on any
    corpus, including one with too few examples to train on."""
    enc = init_encoder_params(corpus.vocab, d=cfg.dim, seed=cfg.seed,
                              positions=cfg.positions)
    init = {**enc.tensors(), **init_fusion_params(cfg.dim, cfg.seed).tensors()}
    return Checkpoint(arrays={n: t.values.copy() for n, t in init.items()},
                      moments_m={n: np.zeros(t.shape) for n, t in init.items()},
                      moments_v={n: np.zeros(t.shape) for n, t in init.items()},
                      vocab=dict(corpus.vocab), cfg=cfg, step=0)
