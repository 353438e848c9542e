"""Source training: improvement, early stopping, gauge, determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adarc import (
    BaseTtaKind,
    EpochRecord,
    PropagationOperator,
    TrainConfig,
    TrainDivergedError,
    base_predict,
    featurize_hops,
    init_model,
    prediction_accuracy,
    pretrain_on,
    train_source,
)
from adarc import pretrain
from adarc.model import SoftPrediction, backward_ce, softmax
from adarc.pretrain import gauge_normalize

from conftest import TINY_TRAIN
from oracle_utils import with_f64_features


def erm_prediction(model, dataset):
    op = PropagationOperator(dataset.graph, "sym")
    return base_predict(BaseTtaKind(), model, featurize_hops(model, dataset, op), dataset)


def accuracy(model, dataset, mask):
    return prediction_accuracy(erm_prediction(model, dataset), dataset.labels, mask)


def ppr_norm(alpha: float, num_hops: int) -> float:
    gamma = alpha * (1 - alpha) ** np.arange(num_hops + 1)
    return float(np.linalg.norm(gamma))


def test_training_beats_initialization(tiny_source, tiny_model):
    fresh = init_model(
        dim=tiny_source.num_features,
        hidden=TINY_TRAIN.hidden,
        num_classes=tiny_source.num_classes,
        num_hops=TINY_TRAIN.num_hops,
        seed=TINY_TRAIN.seed,
    )
    test_mask = ~(tiny_source.masks["train"] | tiny_source.masks["val"])
    before = accuracy(fresh, tiny_source, test_mask)
    after = accuracy(tiny_model, tiny_source, test_mask)
    assert after > max(before, 0.75), (before, after)


def test_history_shape_and_objective_monotone(tiny_source):
    config = replace(TINY_TRAIN, epochs=40, patience=40)
    _, history = pretrain_on(tiny_source, config)
    assert history, "history must be nonempty"
    assert all(isinstance(r, EpochRecord) for r in history)
    assert [r.epoch for r in history] == list(range(len(history)))
    diffs = np.diff([r.loss for r in history])
    assert np.all(diffs <= 1e-12), "halve-on-increase keeps the objective non-increasing"
    assert all(0.0 <= r.accuracy <= 1.0 for r in history)


def test_early_stopping_restores_best_val(tiny_source):
    config = replace(TINY_TRAIN, epochs=400, patience=10)
    model, history = pretrain_on(tiny_source, config)
    assert len(history) < 400, "patience should truncate the run"
    val = accuracy(model, tiny_source, tiny_source.masks["val"])
    best_in_history = max(r.accuracy for r in history)
    assert val == pytest.approx(best_in_history, abs=1e-12)


def test_gauge_normalization_preserves_predictions(tiny_source, tiny_model):
    _, history = pretrain_on(tiny_source, TINY_TRAIN)
    expected_norm = ppr_norm(TINY_TRAIN.gamma_alpha, TINY_TRAIN.num_hops)
    assert np.linalg.norm(history[-1].gamma) != pytest.approx(expected_norm, rel=1e-6), (
        "training should drift the gamma norm; otherwise the gauge is vacuous"
    )
    drifted = tiny_model.copy()
    drifted.gamma *= 3.0
    drifted.W_cls /= 3.0
    before = erm_prediction(drifted, tiny_source)
    gauge_normalize(drifted, expected_norm)
    assert np.linalg.norm(drifted.gamma) == pytest.approx(expected_norm, rel=1e-12)
    after = erm_prediction(drifted, tiny_source)
    np.testing.assert_allclose(after.probs, before.probs, atol=1e-10)
    reference = erm_prediction(tiny_model, tiny_source)
    np.testing.assert_allclose(after.probs, reference.probs, atol=1e-10)


def test_pretrain_applies_gauge_by_default(tiny_model):
    expected_norm = ppr_norm(TINY_TRAIN.gamma_alpha, TINY_TRAIN.num_hops)
    assert np.linalg.norm(tiny_model.gamma) == pytest.approx(expected_norm, rel=1e-12)


def test_pretraining_is_deterministic(tiny_source):
    config = replace(TINY_TRAIN, epochs=30, patience=30)
    a, hist_a = pretrain_on(tiny_source, config)
    b, hist_b = pretrain_on(tiny_source, config)
    assert len(hist_a) == len(hist_b)
    for x, y in zip(hist_a, hist_b):
        assert (x.epoch, x.loss, x.accuracy, x.grad_norm) == (
            y.epoch, y.loss, y.accuracy, y.grad_norm
        )
        np.testing.assert_array_equal(x.gamma, y.gamma)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)


def test_train_source_requires_masks(tiny_target):
    model = init_model(
        dim=tiny_target.num_features,
        hidden=8,
        num_classes=2,
        num_hops=3,
        seed=0,
    )
    with pytest.raises((ValueError, KeyError)):
        train_source(model, tiny_target, replace(TINY_TRAIN, epochs=2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_at_absurd_learning_rate(tiny_source):
    # large enough that the squared-parameter regularizer overflows before
    # the halve-on-increase safeguard can pull the step size back down
    config = replace(TINY_TRAIN, learning_rate=1e160, epochs=30, patience=30)
    with pytest.raises(TrainDivergedError):
        pretrain_on(tiny_source, config)


def test_moderately_large_rate_is_rescued_by_halving(tiny_source):
    # a merely-too-big rate must not diverge: rejected steps halve the rate
    config = replace(TINY_TRAIN, learning_rate=20.0, epochs=60, patience=10)
    model, history = pretrain_on(tiny_source, config)
    objectives = [r.loss for r in history]
    assert np.all(np.diff(objectives) <= 1e-12)
    assert np.all(np.isfinite(objectives))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-1e-4)
    with pytest.raises(ValueError, match="hidden"):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError, match="num_hops"):
        TrainConfig(num_hops=-1)
    with pytest.raises(ValueError, match="prop_mode"):
        TrainConfig(prop_mode="col")
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="gamma_alpha"):
            TrainConfig(gamma_alpha=alpha)
    TrainConfig(hidden=1, num_hops=0, prop_mode="row", gamma_alpha=1.0)


class CountingOperator(PropagationOperator):
    """Counts forward and transpose applications separately."""

    def __init__(self, graph, mode="sym"):
        super().__init__(graph, mode)
        self.forward = 0
        self.transposed = 0

    def apply(self, dense, transpose=False):
        if transpose:
            self.transposed += 1
        else:
            self.forward += 1
        return super().apply(dense, transpose)


def retry_rows(history) -> int:
    """History rows that repeat the epoch a rejected step restored.

    In a run of equal objectives the first row is evaluated and the rest
    alternate rejection, retry, rejection, ...
    """
    objectives = [r.loss for r in history]
    retries = run = 0
    for a, b in zip(objectives, objectives[1:]):
        run = run + 1 if a == b else 0
        retries += run > 0 and run % 2 == 0
    return retries


def test_train_source_propagates_2k_times_per_evaluated_epoch(tiny_source):
    # Each evaluated epoch featurizes (K forward) and back-propagates (K
    # transposed), a rejected one included. The retry after a rejection
    # reuses the restored epoch and propagates nothing, and nothing is
    # propagated after the loop.
    config = replace(TINY_TRAIN, learning_rate=20.0, epochs=30, patience=30)
    model = init_model(
        dim=tiny_source.num_features,
        hidden=config.hidden,
        num_classes=tiny_source.num_classes,
        num_hops=config.num_hops,
        seed=config.seed,
    )
    op = CountingOperator(tiny_source.graph)
    _, history = train_source(model, tiny_source, config, op)
    retries = retry_rows(history)
    assert retries > 0, "no retry after a rejected epoch"
    k = config.num_hops
    evaluated = len(history) - retries
    assert op.forward == k * evaluated
    assert op.transposed == k * evaluated
    assert op.calls == 2 * k * evaluated < 2 * k * len(history)


def test_train_source_stores_source_statistics_at_returned_parameters(tiny_source):
    source = with_f64_features(tiny_source)
    config = replace(TINY_TRAIN, epochs=60, patience=10)
    model, _ = pretrain_on(source, config)
    pre = source.features @ model.W1 + model.b1[None, :]
    np.testing.assert_array_equal(model.running_mean, pre.mean(axis=0))
    np.testing.assert_array_equal(model.running_var, pre.var(axis=0))

def test_train_source_stamps_the_configured_prop_mode(tiny_source):
    for mode in ("row", "sym"):
        config = replace(TINY_TRAIN, epochs=2, prop_mode=mode)
        assert pretrain_on(tiny_source, config)[0].prop_mode == mode


def test_train_source_rejects_an_operator_of_another_mode(tiny_source):
    # Training under the row operator would stamp the model "sym" after it.
    model = init_model(tiny_source.num_features, 8, 2, 3, seed=0)
    config = replace(TINY_TRAIN, epochs=2, prop_mode="sym")
    op = PropagationOperator(tiny_source.graph, "row")
    with pytest.raises(ValueError, match="'row'.*must apply 'sym'"):
        train_source(model, tiny_source, config, op)


#: At this rate the tiny source rejects some steps, so a run has rejected
#: rows and the retries that follow them.
REJECTING = replace(TINY_TRAIN, learning_rate=20.0, epochs=40, patience=40)


def measured_at(start, dataset, config):
    """(objective, val accuracy, ‖∂CE/∂γ‖) at the parameters of ``start``."""
    op = PropagationOperator(dataset.graph, config.prop_mode)
    ce, grads, logits, _, _ = backward_ce(start, dataset, dataset.masks["train"], op)
    decay = float((start.W1**2).sum()) + float((start.W_cls**2).sum())
    objective = ce + 0.5 * config.weight_decay * decay
    prediction = SoftPrediction(softmax(logits))
    val = prediction_accuracy(prediction, dataset.labels, dataset.masks["val"])
    return objective, val, float(np.linalg.norm(grads["gamma"]))


def test_history_rows_are_measured_where_each_epoch_started(tiny_source, monkeypatch):
    starts = []  # the model at each evaluated epoch

    def recording(model, *args):
        starts.append(model.copy())
        return backward_ce(model, *args)

    monkeypatch.setattr(pretrain, "backward_ce", recording)
    _, history = pretrain_on(tiny_source, REJECTING)

    evaluated = iter(starts)
    accepted = None  # (loss, accuracy, grad_norm, γ) of the last accepted point
    rejected = 0
    retry = False
    for i, row in enumerate(history):
        assert isinstance(row, EpochRecord) and row.epoch == i
        if retry:
            # The retry reuses the restored point and evaluates nothing.
            retry = False
            assert (row.loss, row.accuracy, row.grad_norm) == accepted[:3]
            continue
        start = next(evaluated)
        if i:
            # Each epoch starts from the γ the one before it left.
            np.testing.assert_array_equal(start.gamma, history[i - 1].gamma)
        measured = measured_at(start, tiny_source, REJECTING)
        if accepted is not None and measured[0] > accepted[0]:
            # Rejected: the row repeats the restored point and carries its γ.
            rejected += 1
            retry = True
            assert (row.loss, row.accuracy, row.grad_norm) == accepted[:3]
            np.testing.assert_array_equal(row.gamma, accepted[3])
        else:
            assert (row.loss, row.accuracy, row.grad_norm) == measured
            accepted = (*measured, start.gamma)
    assert next(evaluated, None) is None
    assert rejected > 0, "no rejected step; the test would be vacuous"


def test_train_source_runs_one_forward_pass_per_evaluated_epoch(
    tiny_source, monkeypatch
):
    # An evaluated epoch is one backward_ce call, which propagates K times
    # forward and K times transposed; the val accuracy comes from its logits,
    # and the retry after a rejection calls nothing.
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return backward_ce(*args, **kwargs)

    monkeypatch.setattr(pretrain, "backward_ce", counting)
    model = init_model(
        dim=tiny_source.num_features,
        hidden=REJECTING.hidden,
        num_classes=tiny_source.num_classes,
        num_hops=REJECTING.num_hops,
        seed=REJECTING.seed,
    )
    op = PropagationOperator(tiny_source.graph)
    _, history = train_source(model, tiny_source, REJECTING, op)
    retries = retry_rows(history)
    assert retries > 0, "no retry after a rejected epoch"
    assert len(calls) == len(history) - retries
    assert op.calls == 2 * REJECTING.num_hops * len(calls)


def test_patience_running_out_on_a_rejected_row_restores_the_best_epoch(
    tiny_source, monkeypatch
):
    evaluated = []  # (W1, b1, mean, var) of each evaluated epoch

    def recording(model, *args):
        result = backward_ce(model, *args)
        evaluated.append((model.W1.copy(), model.b1.copy(), *result[3:]))
        return result

    monkeypatch.setattr(pretrain, "backward_ce", recording)
    # At this rate and patience the tiny source's best epoch is followed by
    # rejection, retry, rejection, retry, rejection.
    config = replace(TINY_TRAIN, learning_rate=20.0, epochs=200, patience=4)
    model, history = pretrain_on(tiny_source, config)

    objectives = [r.loss for r in history]
    best = int(np.argmax([r.accuracy for r in history]))
    assert best > 0 and len(history) == best + config.patience + 2
    # Every row after the best repeats it; in such a run the rows after the
    # evaluated one alternate rejection and retry, so an odd count ends on a
    # rejection. A rejected row carries the restored γ, the one the best
    # epoch started from; a retry row carries the γ of its own step.
    assert objectives[best:] == [objectives[best]] * (config.patience + 2)
    assert (len(history) - 1 - best) % 2 == 1
    np.testing.assert_array_equal(history[-1].gamma, history[best - 1].gamma)
    assert not np.array_equal(history[-2].gamma, history[best - 1].gamma)

    val = accuracy(model, tiny_source, tiny_source.masks["val"])
    assert val == pytest.approx(history[best].accuracy, abs=1e-12)
    matches = [
        e for e in evaluated
        if np.array_equal(e[0], model.W1) and np.array_equal(e[1], model.b1)
    ]
    assert matches, "the returned W1 and b1 were never evaluated"
    np.testing.assert_array_equal(model.running_mean, matches[0][2])
    np.testing.assert_array_equal(model.running_var, matches[0][3])
