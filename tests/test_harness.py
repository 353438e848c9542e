"""Experiment harness: scenarios, sweeps and gap decomposition."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from adarc import (
    PRESETS,
    AdaptConfig,
    BaseTtaKind,
    GapDecomposition,
    PropagationOperator,
    adapt,
    base_predict,
    featurize_hops,
    prediction_accuracy,
    ScenarioSpec,
    TrainConfig,
    attach_split_masks,
    build_scenario_datasets,
    decompose_gap,
    fit_linear_head,
    generate,
    preset_params,
    pretrain_on,
    run_scenario,
    scenario_seeds,
    sweep,
)
from adarc import harness
from adarc.harness import METHOD_NAMES, SWEEP_AXES
from adarc.model import cross_entropy

TINY_SPEC = ScenarioSpec("homo2hetero", n=320, dim=48)
TINY_TRAIN = TrainConfig(epochs=60, patience=15, hidden=16, num_hops=4)
TINY_ADAPT = AdaptConfig(learning_rate=0.1, epochs=3)


def test_scenario_seed_expansion():
    assert scenario_seeds(0) == {
        "source_graph": 0,
        "target_graph": 1,
        "split": 777,
        "model": 1,
    }
    assert scenario_seeds(5) == {
        "source_graph": 10,
        "target_graph": 11,
        "split": 782,
        "model": 6,
    }


def test_scenario_spec_validation_and_id():
    with pytest.raises(ValueError):
        ScenarioSpec("nosuch")
    assert ScenarioSpec("homo2hetero").scenario_id == "homo2hetero"
    composed = ScenarioSpec("hetero2homo", attribute_shift=True, source_h=0.8)
    assert composed.scenario_id == "hetero2homo+attr+source_h=0.8"


@pytest.mark.parametrize(
    "preset, shape, message",
    [
        ("homo2hetero", dict(n=161), "n must be positive and even"),
        ("homo2hetero", dict(source_h=1.5), "homophily must lie in"),
        ("high2low", dict(n=8), "infeasible edge probabilities"),
    ],
    ids=["odd-n", "source-h-above-1", "high2low-at-n-8"],
)
def test_scenario_spec_rejects_an_undrawable_scenario(preset, shape, message):
    with pytest.raises(ValueError, match=message):
        ScenarioSpec(preset, **shape)


def test_scenario_spec_params_override_the_source_only():
    spec = ScenarioSpec("high2low", attribute_shift=True, source_d=4.0, n=320, dim=48)
    source, target = spec.params("source", seed=7), spec.params("target", seed=8)
    assert (source.avg_degree, source.homophily, source.seed) == (4.0, 0.8, 7)
    assert (target.avg_degree, target.homophily, target.seed) == (2.0, 0.8, 8)
    assert not source.delta_mu.any() and target.delta_mu.all()


def test_build_datasets_masks_and_determinism():
    source, target = build_scenario_datasets(TINY_SPEC, seed=3)
    assert set(source.masks) == {"train", "val"}
    assert not target.masks
    again_source, again_target = build_scenario_datasets(TINY_SPEC, seed=3)
    np.testing.assert_array_equal(source.features, again_source.features)
    np.testing.assert_array_equal(target.labels, again_target.labels)
    np.testing.assert_array_equal(
        source.graph.edge_list(), again_source.graph.edge_list()
    )


def test_build_datasets_structure_shift_uses_independent_draws():
    source, target = build_scenario_datasets(TINY_SPEC, seed=0)
    assert not np.array_equal(source.labels, target.labels)


def test_build_datasets_pure_attribute_shift_is_paired():
    spec = ScenarioSpec(
        "hetero2homo", attribute_shift=True, source_h=0.8, n=320, dim=48
    )
    source, target = build_scenario_datasets(spec, seed=0)
    np.testing.assert_array_equal(source.labels, target.labels)
    np.testing.assert_array_equal(source.graph.edge_list(), target.graph.edge_list())
    shift = target.features.astype(np.float64) - source.features.astype(np.float64)
    np.testing.assert_allclose(shift, shift[0, 0], atol=1e-6)
    assert abs(float(shift[0, 0])) > 1e-4


def test_build_datasets_attribute_plus_structure_shift_not_paired():
    spec = ScenarioSpec("homo2hetero", attribute_shift=True, n=320, dim=48)
    source, target = build_scenario_datasets(spec, seed=0)
    assert not np.array_equal(source.labels, target.labels)


PAIRED_SPEC = ScenarioSpec(
    "hetero2homo", attribute_shift=True, source_h=0.8, n=320, dim=48
)


@pytest.mark.parametrize(
    "spec, target_seed, override_h",
    [(TINY_SPEC, 5, None), (PAIRED_SPEC, 4, 0.8)],
    ids=["homo2hetero", "paired-attribute-shift"],
)
def test_scenario_draws_equal_direct_generate(spec, target_seed, override_h):
    # Scenario seed 2 draws the source with seed 4; the paired spec draws
    # that same seed again for its target.
    source, target = build_scenario_datasets(spec, seed=2)
    shape = dict(attribute_shift=spec.attribute_shift, n=spec.n, dim=spec.dim)
    expected_source = attach_split_masks(
        generate(preset_params(spec.preset, "source", 4, override_h=override_h, **shape)),
        seed=779,
    )
    expected_target = generate(preset_params(spec.preset, "target", target_seed, **shape))
    for got, expected in ((source, expected_source), (target, expected_target)):
        assert np.array_equal(got.features, expected.features)
        assert np.array_equal(got.labels, expected.labels)
        assert np.array_equal(got.graph.row_offsets, expected.graph.row_offsets)
        assert np.array_equal(got.graph.neighbor_ids, expected.graph.neighbor_ids)
    for name in ("train", "val"):
        assert np.array_equal(source.masks[name], expected_source.masks[name])


@pytest.mark.parametrize("failing_role", ["source_graph", "target_graph"])
def test_a_failed_draw_raises_and_leaves_no_thread(monkeypatch, failing_role):
    failing_seed = scenario_seeds(3)[failing_role]

    def generate_or_fail(params):
        if params.seed == failing_seed:
            raise RuntimeError(f"draw {params.seed} failed")
        return generate(params)

    monkeypatch.setattr(harness, "generate", generate_or_fail)
    with pytest.raises(RuntimeError, match=f"draw {failing_seed} failed"):
        build_scenario_datasets(TINY_SPEC, seed=3)


def test_run_scenario_report_statistics():
    report = run_scenario(
        TINY_SPEC,
        methods=("erm", "erm+adarc"),
        seeds=(0, 1),
        train_config=TINY_TRAIN,
        adapt_config=TINY_ADAPT,
    )
    assert report.methods == ("erm", "erm+adarc")
    assert report.seeds == (0, 1)
    for method in report.methods:
        column = report.per_seed[method]
        assert len(column) == 2
        assert all(0.0 <= a <= 1.0 for a in column)
        assert report.mean[method] == pytest.approx(np.mean(column))
        assert report.sd[method] == pytest.approx(np.std(column, ddof=1))
    assert report.config["train"]["epochs"] == TINY_TRAIN.epochs
    assert report.config["adapt"]["epochs"] == TINY_ADAPT.epochs
    assert report.config["scenario"]["preset"] == "homo2hetero"


def test_run_scenario_single_seed_sd_is_zero():
    report = run_scenario(
        TINY_SPEC,
        methods=("erm",),
        seeds=(0,),
        train_config=TINY_TRAIN,
    )
    assert report.sd["erm"] == 0.0


def test_run_scenario_deterministic():
    kwargs = dict(
        methods=("erm", "erm+adarc"),
        seeds=(1,),
        train_config=TINY_TRAIN,
        adapt_config=TINY_ADAPT,
    )
    first = run_scenario(TINY_SPEC, **kwargs)
    second = run_scenario(TINY_SPEC, **kwargs)
    assert first.per_seed == second.per_seed


def test_run_scenario_all_method_names():
    report = run_scenario(
        TINY_SPEC,
        methods=METHOD_NAMES,
        seeds=(0,),
        train_config=TINY_TRAIN,
        adapt_config=TINY_ADAPT,
    )
    assert set(report.per_seed) == set(METHOD_NAMES)


@pytest.mark.parametrize("variant", ["erm", "tent", "t3a"])
def test_adarc_epoch_zero_scores_the_plain_base_prediction(
    tiny_model, tiny_target, variant
):
    # run_scenario reads a plain method's accuracy from here when the
    # method's +adarc partner runs too.
    kind = BaseTtaKind(variant)
    op = PropagationOperator(tiny_target.graph, tiny_model.prop_mode)
    config = AdaptConfig(learning_rate=0.1, epochs=2, base=kind, ablation="joint")
    result = adapt(tiny_model, tiny_target, op, config)
    plain = base_predict(
        kind, tiny_model, featurize_hops(tiny_model, tiny_target, op), tiny_target
    )
    assert result.trace[0].accuracy == prediction_accuracy(plain, tiny_target.labels)


@pytest.mark.parametrize(
    "methods, plain_featurizations",
    [
        (("erm", "erm+adarc"), 0),
        (("erm", "tent", "erm+adarc", "tent+adarc"), 0),
        (("erm", "tent+adarc"), 1),
        (("erm", "t3a"), 1),
    ],
)
def test_run_scenario_featurizes_for_plain_methods_only_without_partner(
    monkeypatch, methods, plain_featurizations
):
    calls = []

    def counting(*args):
        calls.append(args)
        return featurize_hops(*args)

    monkeypatch.setattr(harness, "featurize_hops", counting)
    report = run_scenario(
        TINY_SPEC,
        methods=methods,
        seeds=(0,),
        train_config=replace(TINY_TRAIN, epochs=5),
        adapt_config=TINY_ADAPT,
    )
    assert len(calls) == plain_featurizations
    assert set(report.per_seed) == set(methods)


def test_run_scenario_runs_each_base_with_the_configured_options():
    # Each method's variant comes from its name, its options from
    # adapt_config.base; plain tent reads its +adarc partner's epoch 0.
    options = BaseTtaKind("tent", steps=3, lr=0.5, keep_per_class=3)
    adapt_config = replace(TINY_ADAPT, base=options)
    report = run_scenario(
        TINY_SPEC,
        methods=("tent", "tent+adarc", "t3a"),
        seeds=(0,),
        train_config=TINY_TRAIN,
        adapt_config=adapt_config,
    )
    source, target = build_scenario_datasets(TINY_SPEC, 0)
    model, _ = pretrain_on(source, replace(TINY_TRAIN, seed=scenario_seeds(0)["model"]))
    op = PropagationOperator(target.graph, model.prop_mode)
    cache = featurize_hops(model, target, op)

    def accuracy(kind):
        prediction = base_predict(kind, model, cache, target)
        return prediction_accuracy(prediction, target.labels)

    for variant in ("tent", "t3a"):
        kind = replace(options, variant=variant)
        assert report.per_seed[variant] == (accuracy(kind),)
        # The options move the accuracy here, so dropping them would show.
        assert accuracy(kind) != accuracy(BaseTtaKind(variant))
    adapted = adapt(model, target, op, replace(adapt_config, base=options))
    expected = prediction_accuracy(adapted.prediction, target.labels)
    assert report.per_seed["tent+adarc"] == (expected,)


def test_run_scenario_reports_the_scenario_id():
    report = run_scenario(
        ScenarioSpec("homo2hetero", n=320, dim=48),
        methods=("erm",),
        seeds=(0,),
        train_config=TINY_TRAIN,
    )
    assert report.scenario == "homo2hetero"


def test_run_scenario_validation():
    with pytest.raises(ValueError):
        run_scenario(TINY_SPEC, methods=("nosuch",), seeds=(0,))
    with pytest.raises(ValueError):
        run_scenario(TINY_SPEC, methods=(), seeds=(0,))
    with pytest.raises(ValueError):
        run_scenario(TINY_SPEC, methods=("erm",), seeds=())
    with pytest.raises(ValueError, match="methods must not repeat"):
        run_scenario(TINY_SPEC, methods=("erm", "erm"), seeds=(0,))
    with pytest.raises(ValueError, match="seeds must not repeat"):
        run_scenario(TINY_SPEC, methods=("erm",), seeds=(0, 0))


@pytest.mark.parametrize(
    "preset, moved, kept, levels",
    [
        ("homo2hetero", "source_h", "source_d", (0.6, 0.9)),
        ("hetero2homo", "source_h", "source_d", (0.4, 0.1)),
        ("high2low", "source_d", "source_h", (4.0, 7.5)),
        ("low2high", "source_d", "source_h", (4.0, 7.5)),
    ],
    ids=["homo2hetero", "hetero2homo", "high2low", "low2high"],
)
def test_sweep_shift_level_moves_the_shifted_field(preset, moved, kept, levels):
    # The preset's source and target differ in exactly the moved field.
    index = ("source_d", "source_h").index(moved)
    source, target = PRESETS[preset]["source"], PRESETS[preset]["target"]
    assert source[index] != target[index] and source[1 - index] == target[1 - index]
    reports = sweep(
        "shift_level",
        levels,
        ScenarioSpec(preset, n=320, dim=48),
        methods=("erm",),
        seeds=(0,),
        train_config=TINY_TRAIN,
    )
    assert [r.scenario for r in reports] == [f"{preset}[{moved}={v:g}]" for v in levels]
    for report, level in zip(reports, levels):
        assert report.config["scenario"][moved] == level
        assert report.config["scenario"][kept] is None


def test_sweep_lr_epochs_axis():
    reports = sweep(
        "lr_epochs",
        [(0.05, 2), (0.2, 3)],
        TINY_SPEC,
        methods=("erm+adarc",),
        seeds=(0,),
        train_config=TINY_TRAIN,
        adapt_config=TINY_ADAPT,
    )
    assert reports[0].config["adapt"]["learning_rate"] == 0.05
    assert reports[0].config["adapt"]["epochs"] == 2
    assert reports[1].scenario == "homo2hetero[lr=0.2,T=3]"


def test_sweep_hops_axis_repretrains():
    reports = sweep(
        "hops_K",
        (3,),
        TINY_SPEC,
        methods=("erm",),
        seeds=(0,),
        train_config=TINY_TRAIN,
    )
    assert reports[0].config["train"]["num_hops"] == 3


def test_sweep_loss_kind_axis():
    reports = sweep(
        "loss_kind",
        ("entropy",),
        TINY_SPEC,
        methods=("erm+adarc",),
        seeds=(0,),
        train_config=TINY_TRAIN,
        adapt_config=TINY_ADAPT,
    )
    assert reports[0].config["adapt"]["loss"] == "entropy"
    assert reports[0].scenario == "homo2hetero[loss=entropy]"


@pytest.mark.parametrize(
    "axis, grid",
    [
        ("loss_kind", ("entropy", "nosuch")),
        ("lr_epochs", ((0.1, 2), (-1.0, 2))),
        ("lr_epochs", ((0.1, 2), (0.1, 0))),
        ("hops_K", (2, -1)),
        ("shift_level", (0.6, 1.5)),
        ("hops_K", (2, 2.7)),
        ("lr_epochs", ((0.1, 2), (0.1, 2.9))),
    ],
    ids=[
        "loss-nosuch", "lr-negative", "epochs-0", "K-negative", "source-h-1.5",
        "K-2.7", "epochs-2.9",
    ],
)
def test_sweep_rejects_a_bad_last_value_before_any_pretraining(monkeypatch, axis, grid):
    calls = []

    def counting(*args):
        calls.append(args)
        return pretrain_on(*args)

    monkeypatch.setattr(harness, "pretrain_on", counting)
    with pytest.raises(ValueError):
        sweep(
            axis,
            grid,
            TINY_SPEC,
            methods=("erm", "erm+adarc"),
            seeds=(0, 1),
            train_config=TINY_TRAIN,
            adapt_config=TINY_ADAPT,
        )
    assert len(calls) == 0


def test_sweep_takes_a_whole_float_count_as_an_int():
    _, train, _, tag = harness._apply_axis(
        "hops_K", 3.0, TINY_SPEC, TINY_TRAIN, TINY_ADAPT
    )
    assert (train.num_hops, type(train.num_hops), tag) == (3, int, "K=3")
    _, _, adapt_config, tag = harness._apply_axis(
        "lr_epochs", (0.1, 3.0), TINY_SPEC, TINY_TRAIN, TINY_ADAPT
    )
    assert (adapt_config.epochs, type(adapt_config.epochs)) == (3, int)
    assert tag == "lr=0.1,T=3"


@pytest.mark.parametrize(
    "methods, seeds",
    [(("erm", "erm+adarc", "erm"), (0, 1)), (("erm",), (0, 1, 0))],
    ids=["method-twice", "seed-twice"],
)
def test_sweep_rejects_a_repeat_before_any_pretraining(monkeypatch, methods, seeds):
    calls = []

    def counting(*args):
        calls.append(args)
        return pretrain_on(*args)

    monkeypatch.setattr(harness, "pretrain_on", counting)
    with pytest.raises(ValueError, match="must not repeat"):
        sweep("loss_kind", ("pic",), TINY_SPEC, methods, seeds, TINY_TRAIN, TINY_ADAPT)
    assert len(calls) == 0


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep("nosuch", (1,), TINY_SPEC)
    with pytest.raises(ValueError):
        sweep("shift_level", (), TINY_SPEC)
    with pytest.raises(ValueError):
        sweep("loss_kind", ("nosuch",), TINY_SPEC, seeds=(0,), train_config=TINY_TRAIN)
    assert SWEEP_AXES == ("shift_level", "lr_epochs", "hops_K", "loss_kind")


def blob_head_problem(rng, n=200, separation=1.2):
    labels = rng.integers(0, 2, size=n)
    Z = rng.normal(size=(n, 2)) + separation * (2 * labels[:, None] - 1)
    return Z, labels


def test_fit_linear_head_learns_blobs():
    Z, labels = blob_head_problem(np.random.default_rng(0))
    W, b, iterations, grad_norm = fit_linear_head(Z, labels, num_classes=2)
    accuracy = np.mean(np.argmax(Z @ W + b, axis=1) == labels)
    assert accuracy > 0.8
    assert iterations <= 5000
    assert grad_norm < 1e-3


def test_fit_linear_head_survives_huge_rate():
    # At this scale the fixed unit rate is huge: its first step from W = 0
    # raises the cross-entropy, so the halving branch has to run.
    Z, labels = blob_head_problem(np.random.default_rng(1))
    Z = Z * 1e3
    ce0, g = cross_entropy(np.zeros((Z.shape[0], 2)), labels)
    ce1, _ = cross_entropy(-Z @ (Z.T @ g) - g.sum(axis=0), labels)
    assert ce1 > ce0
    W, b, _, _ = fit_linear_head(Z, labels, num_classes=2)
    assert np.all(np.isfinite(W)) and np.all(np.isfinite(b))
    accuracy = np.mean(np.argmax(Z @ W + b, axis=1) == labels)
    assert accuracy > 0.8


def test_decompose_gap_identity_and_fields(tiny_model, tiny_source, tiny_target):
    gap = decompose_gap(tiny_model, tiny_source, tiny_target)
    assert gap.delta_f + gap.delta_g == pytest.approx(
        gap.acc_source - gap.acc_target, abs=1e-12
    )
    assert isinstance(gap.fit_converged, bool)
    assert gap.fit_iterations >= 1
    keys = {f.name for f in fields(gap)}
    assert {"delta_f", "delta_g", "acc_source", "sup_g_acc", "acc_target"} <= keys


def test_decompose_gap_paired_attribute_shift_cancels():
    # Identical graph + a shared feature translation: normalization strips the
    # translation, so with a head that is already optimal for the source
    # representations the featurizer deficit must vanish.  Fitting the head
    # with the same routine the decomposition uses makes that optimality hold
    # by construction instead of depending on pretraining luck.
    from adarc.graph import PropagationOperator
    from adarc.model import aggregate, featurize_hops, init_model

    spec = ScenarioSpec(
        "hetero2homo", attribute_shift=True, source_h=0.8, n=480, dim=64
    )
    source, target = build_scenario_datasets(spec, seed=0)
    model = init_model(dim=64, hidden=16, num_classes=2, num_hops=4, seed=1)
    op = PropagationOperator(source.graph, "sym")
    z = aggregate(featurize_hops(model, source, op), model.gamma, model.scale, model.shift)
    W, b, _, _ = fit_linear_head(z, source.labels, num_classes=2)
    model.W_cls[...] = W
    model.b_cls[...] = b
    gap = decompose_gap(model, source, target)
    assert abs(gap.acc_source - gap.acc_target) <= 0.01, (
        "normalization should strip the shared translation"
    )
    assert abs(gap.delta_f) <= 0.01
