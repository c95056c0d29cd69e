"""Dataset splitting, adam optimization, and the minibatch training loop.

The default recipe: adam at an initial learning rate of 1e-5 decayed by
0.75 every 256 epochs, minibatches of 32, L2 regularization with lambda 0.1
on weights, dropout 0.5, validation every 128 iterations, 1024 epochs, and
a 70/15/15 train/validation/test split with 5-fold cross-validation.
A training config file is the JSON object of TrainConfig's fields, read by
`volumes.config_from_fields`; the decay and adam settings are constants,
not fields.

A dataset here is anything with `ids` (a tuple of sample ids) and
`example(sample_id) -> (volume, label_index)`, the volume a float64
(3, D, H, W) array; voxcnn.volumes.VolumeDataset is the library's.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError
from .kernels import softmax_xent
from .metrics import classwise_metrics, confusion_matrix
from .models import Model, build_model, forward, model_backward, quiet_fp
from .seeding import derive_seed
from .volumes import check_fields


LR_FACTOR = 0.75
LR_PERIOD_EPOCHS = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1024
    lr0: float = 1e-5
    batch_size: int = 32
    l2_lambda: float = 0.1
    dropout_rate: float = 0.5
    validation_freq_iters: int = 128
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "training config")
        if self.epochs < 0:
            raise ValidationError("epochs must be non-negative")
        if self.lr0 <= 0:
            raise ValidationError("lr0 must be positive")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        if self.l2_lambda < 0:
            raise ValidationError("l2_lambda must be non-negative")
        if not 0 <= self.dropout_rate < 1:
            raise ValidationError("dropout_rate must be in [0, 1)")
        if self.validation_freq_iters < 1:
            raise ValidationError("validation_freq_iters must be positive")


@dataclass(frozen=True)
class SplitPlan:
    train_ids: tuple
    val_ids: tuple
    test_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "train_ids", tuple(self.train_ids))
        object.__setattr__(self, "val_ids", tuple(self.val_ids))
        object.__setattr__(self, "test_ids", tuple(self.test_ids))
        ids = self.train_ids + self.val_ids + self.test_ids
        if len(set(ids)) != len(ids):
            raise ValidationError("split groups must hold distinct ids")


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple

    def __post_init__(self):
        object.__setattr__(self, "folds",
                           tuple(tuple(f) for f in self.folds))

    @property
    def k(self) -> int:
        return len(self.folds)

    def eval_ids(self, fold_index: int) -> tuple:
        return self.folds[fold_index]

    def train_ids(self, fold_index: int) -> tuple:
        return tuple(i for j, f in enumerate(self.folds)
                     if j != fold_index for i in f)


@dataclass(frozen=True)
class HistoryRecord:
    iteration: int
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    records: list

    CSV_HEADER = "iteration,epoch,lr,train_loss,val_loss,val_acc"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            # float() strips numpy scalar types so reprs stay plain
            lines.append(f"{r.iteration},{r.epoch},{float(r.lr)!r},"
                         f"{float(r.train_loss)!r},{float(r.val_loss)!r},"
                         f"{float(r.val_acc)!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


# the recipe's validation and test fractions; training takes the rest (70%)
HELD_OUT_FRACTION = 0.15


def split_dataset(ids, seed: int = 0) -> SplitPlan:
    """Shuffle ids by seed and cut train/val/test 70/15/15, the validation
    and test sizes rounded down."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("dataset ids must be unique")
    if len(ids) < 3:
        raise ValidationError("need at least 3 ids to split")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_val = n_test = math.floor(HELD_OUT_FRACTION * n)
    n_train = n - n_val - n_test
    return SplitPlan(
        train_ids=shuffled[:n_train],
        val_ids=shuffled[n_train:n_train + n_val],
        test_ids=shuffled[n_train + n_val:],
    )


def make_kfold(ids, labels, k: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified k-fold partition.

    Items of each class are shuffled and dealt round-robin; the dealing
    cursor carries over between classes so overall fold sizes also differ by
    at most one, not just the per-class counts.
    """
    ids, labels = list(ids), list(labels)
    if len(ids) != len(labels):
        raise ValidationError("ids and labels must have equal length")
    if len(set(ids)) != len(ids):
        raise ValidationError("dataset ids must be unique")
    if k < 2:
        raise ValidationError("k must be at least 2")
    if k > len(ids):
        raise ValidationError(f"k={k} exceeds dataset size {len(ids)}")
    by_class: dict = {}
    for sid, lab in zip(ids, labels):
        by_class.setdefault(lab, []).append(sid)
    for lab, members in by_class.items():
        if len(members) < k:
            raise ValidationError(
                f"class {lab!r} has {len(members)} members, fewer than k={k}"
            )
    rng = np.random.default_rng(derive_seed(seed, "kfold"))
    folds: list = [[] for _ in range(k)]
    cursor = 0
    for lab in sorted(by_class, key=str):
        members = by_class[lab]
        order = rng.permutation(len(members))
        for idx in order:
            folds[cursor % k].append(members[idx])
            cursor += 1
    return FoldPlan(folds=tuple(tuple(f) for f in folds))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam_state(params: dict) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()},
                     t=0)


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    if epoch < 0:
        raise ValidationError("epoch must be non-negative")
    return config.lr0 * LR_FACTOR ** (epoch // LR_PERIOD_EPOCHS)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected adam update, in place; returns (params, state).
    All gradients are checked first: a raise changes no param or state."""
    if set(params) != set(grads):
        raise ValidationError("parameter and gradient stores disagree on keys")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ValidationError(f"gradient shape mismatch for {name!r}")
        if not np.isfinite(grads[name]).all():
            raise NumericError(f"non-finite gradient for {name!r}")
    state.t += 1
    c1, c2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def l2_term(params: dict, lam: float):
    """Penalty (lam/2)·sum(w²) and its gradient lam·w over weights only.

    Tensors named '*.b' are biases and are exempt.
    """
    if lam < 0:
        raise ValidationError("l2 lambda must be non-negative")
    penalty = 0.0
    contrib = {}
    for name, p in params.items():
        if name.endswith(".w") and lam > 0:
            penalty += 0.5 * lam * float(np.sum(np.square(p)))
            contrib[name] = lam * p
    return penalty, contrib


# ---------------------------------------------------------------------------
# evaluation helper
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    ids: tuple
    labels: tuple
    predictions: tuple
    probs: np.ndarray  # (n, class_count)
    mean_loss: float
    accuracy: float


def evaluate(model: Model, dataset, ids) -> EvalResult:
    """Eval-mode pass over `ids`: per-sample probabilities, loss, accuracy."""
    ids = tuple(ids)
    if not ids:
        raise ValidationError("cannot evaluate an empty id list")
    labels, preds, rows = [], [], []
    loss_sum = 0.0
    for sid in ids:
        x, y = dataset.example(sid)
        probs, cache = forward(model, x, mode="eval", record="none")
        _, loss, _ = softmax_xent(cache.logits, y)
        loss_sum += loss
        rows.append(probs)
        labels.append(y)
        preds.append(int(np.argmax(probs)))
    probs = np.stack(rows)
    correct = sum(p == y for p, y in zip(preds, labels))
    return EvalResult(ids=ids, labels=tuple(labels), predictions=tuple(preds),
                      probs=probs, mean_loss=loss_sum / len(ids),
                      accuracy=correct / len(ids))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def train(model: Model, dataset, split_plan: SplitPlan, config: TrainConfig,
          iteration_hook=None):
    """Run the full recipe; returns (model, TrainHistory).

    Per epoch the training ids are reshuffled; minibatches of batch_size
    (final short batch included) each do forward(train) -> cross-entropy +
    L2 -> backward -> adam with the epoch's learning rate.  Every
    validation_freq_iters iterations a checkpoint is appended: the mean
    training loss since the previous checkpoint plus eval-mode loss and
    accuracy on the validation split (nan when it is empty).  The returned
    model is the final-epoch model; no best-checkpoint selection happens.

    iteration_hook, when given, is called as hook(iteration, epoch, loss)
    after every optimizer step.
    """
    train_ids = list(split_plan.train_ids)
    if not train_ids:
        raise ValidationError("training split is empty")
    state = init_adam_state(model.params)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(config.seed, "dropout"))
    records: list = []
    iteration = 0
    since_ckpt: list = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        order = shuffle_rng.permutation(len(train_ids))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            iteration += 1
            grad_sum: dict = {}
            data_loss = 0.0
            try:
                with quiet_fp():
                    for idx in batch:
                        x, y = dataset.example(train_ids[idx])
                        _, cache = forward(model, x, mode="train",
                                           rng=dropout_rng,
                                           dropout_rate=config.dropout_rate)
                        grads, loss = model_backward(model, cache, y)
                        data_loss += loss
                        for name, g in grads.items():
                            if name in grad_sum:
                                grad_sum[name] += g
                            else:
                                grad_sum[name] = g.copy()
                    scale = 1.0 / len(batch)
                    data_loss *= scale
                    for g in grad_sum.values():
                        g *= scale
                    penalty, contrib = l2_term(model.params, config.l2_lambda)
                    for name, c in contrib.items():
                        grad_sum[name] += c
                    total_loss = data_loss + penalty
                    if not math.isfinite(total_loss):
                        raise NumericError("non-finite loss")
                    adam_step(model.params, grad_sum, state, lr)
            except NumericError as e:
                raise NumericError(f"iteration {iteration}: {e}") from e
            since_ckpt.append(total_loss)
            if iteration_hook is not None:
                iteration_hook(iteration, epoch, total_loss)
            if iteration % config.validation_freq_iters == 0:
                if split_plan.val_ids:
                    res = evaluate(model, dataset, split_plan.val_ids)
                    val_loss, val_acc = res.mean_loss, res.accuracy
                else:
                    val_loss = val_acc = float("nan")
                records.append(HistoryRecord(
                    iteration=iteration, epoch=epoch, lr=lr,
                    train_loss=sum(since_ckpt) / len(since_ckpt),
                    val_loss=val_loss, val_acc=val_acc))
                since_ckpt = []
    return model, TrainHistory(records=records)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


@dataclass
class FoldResult:
    fold_index: int
    confusion: np.ndarray
    classwise: dict
    accuracy: float
    n_eval: int


def _run_fold(dataset, fold_plan, arch_config, config, fold_index):
    fold_seed = derive_seed(config.seed, f"fold{fold_index}")
    fold_config = replace(config, seed=fold_seed)
    model = build_model(arch_config, seed=fold_seed)
    plan = SplitPlan(train_ids=fold_plan.train_ids(fold_index),
                     val_ids=(), test_ids=fold_plan.eval_ids(fold_index))
    model, _ = train(model, dataset, plan, fold_config)
    res = evaluate(model, dataset, plan.test_ids)
    cm = confusion_matrix(res.predictions, res.labels,
                          class_count=model.class_count)
    return FoldResult(fold_index=fold_index, confusion=cm,
                      classwise=classwise_metrics(cm),
                      accuracy=res.accuracy, n_eval=len(plan.test_ids))


def run_cross_validation(dataset, fold_plan: FoldPlan, arch_config,
                         config: TrainConfig, workers: int = 1) -> list:
    """Train one model per fold, evaluate on the held-out fold.

    Results come back ordered by fold index.  Fold seeds derive from the
    config seed, so runs are reproducible regardless of worker count.  A
    failing fold cancels the folds still queued.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(
            lambda i: _run_fold(dataset, fold_plan, arch_config, config, i),
            range(fold_plan.k)))
