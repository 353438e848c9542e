"""End-to-end command-line tests driving the installed entry point.

Commands run in a subprocess against tiny synthetic scenarios (one test calls
``cli.main`` in-process to substitute the training history); the double-run
checks pin the byte-determinism contract for all ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

CLI = [sys.executable, "-m", "adarc.cli"]

TINY_TRAIN_CONFIG = """\
# small, fast training setup
train.epochs=40
train.patience=10
train.hidden=16
train.num_hops=3
"""


def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        CLI + [str(a) for a in args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict:
    """One generated tiny scenario plus a pretrained checkpoint, reused below."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "train.cfg"
    config.write_text(TINY_TRAIN_CONFIG)
    data = root / "data"
    generated = run_cli(
        "generate", "--preset", "homo2hetero", "--n", "160", "--dim", "24",
        "--seed", "3", "--out", data,
    )
    assert generated.returncode == 0, generated.stderr
    ckpt = root / "model.ckpt"
    trained = run_cli(
        "pretrain", "--data", data / "source", "--config", config,
        "--seed", "1", "--out", ckpt,
    )
    assert trained.returncode == 0, trained.stderr
    return {"root": root, "config": config, "data": data, "ckpt": ckpt}


def test_help_lists_every_subcommand():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in (
        "generate", "pretrain", "adapt", "eval", "sweep", "decompose", "theory",
    ):
        assert name in result.stdout


def test_generate_layout_and_determinism(workspace, tmp_path):
    data = workspace["data"]
    for role in ("source", "target"):
        for name in ("edges.csv", "features.bin", "labels.csv"):
            assert (data / role / name).exists(), f"missing {role}/{name}"
    assert (data / "source" / "masks.csv").exists()
    assert not (data / "target" / "masks.csv").exists(), (
        "target carries no supervision masks"
    )

    again = tmp_path / "again"
    result = run_cli(
        "generate", "--preset", "homo2hetero", "--n", "160", "--dim", "24",
        "--seed", "3", "--out", again,
    )
    assert result.returncode == 0, result.stderr
    for rel in sorted(p.relative_to(data) for p in data.rglob("*") if p.is_file()):
        assert (again / rel).read_bytes() == (data / rel).read_bytes(), (
            f"{rel} differs between identical invocations"
        )


def test_generate_single_role_writes_flat_directory(tmp_path):
    out = tmp_path / "src_only"
    result = run_cli(
        "generate", "--preset", "low2high", "--role", "source",
        "--n", "120", "--dim", "16", "--seed", "0", "--out", out,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "edges.csv").exists()
    assert not (out / "source").exists()


def test_pretrain_is_byte_deterministic(workspace, tmp_path):
    second = tmp_path / "again.ckpt"
    result = run_cli(
        "pretrain", "--data", workspace["data"] / "source",
        "--config", workspace["config"], "--seed", "1", "--out", second,
    )
    assert result.returncode == 0, result.stderr
    assert second.read_bytes() == workspace["ckpt"].read_bytes()


def test_pretrain_prints_best_val_acc_not_last(workspace, tmp_path, monkeypatch, capsys):
    from adarc import cli

    real = cli.pretrain_on
    seen = {}

    def worse_last_epoch(dataset, config):
        model, history = real(dataset, config)
        last = replace(history[-1], epoch=len(history), accuracy=0.0)
        seen["history"] = history + [last]
        return model, seen["history"]

    monkeypatch.setattr(cli, "pretrain_on", worse_last_epoch)
    code = cli.main([
        "pretrain", "--data", str(workspace["data"] / "source"),
        "--config", str(workspace["config"]), "--seed", "1",
        "--out", str(tmp_path / "m.ckpt"),
    ])
    assert code == 0
    best = max(record.accuracy for record in seen["history"])
    assert best > 0.0
    assert f"best-restored val acc {best:.4f})" in capsys.readouterr().out


def test_eval_reports_masked_accuracies(workspace, tmp_path):
    out = tmp_path / "eval.json"
    result = run_cli(
        "eval", "--ckpt", workspace["ckpt"],
        "--data", workspace["data"] / "source", "--out", out,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    for key in ("accuracy_all", "accuracy_train", "accuracy_val", "accuracy_test"):
        assert key in report, f"missing {key}"
        assert 0.0 <= report[key] <= 1.0


def test_eval_without_out_prints_json(workspace):
    result = run_cli(
        "eval", "--ckpt", workspace["ckpt"], "--data", workspace["data"] / "target"
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert "accuracy_all" in report
    assert "accuracy_train" not in report


def test_eval_uses_the_configured_prop_mode(tmp_path):
    # Under row propagation the sym-mode prediction differs on this scenario,
    # so eval must read train.prop_mode from --config as adapt does.
    from adarc import cli

    config = tmp_path / "row.cfg"
    config.write_text("train.prop_mode=row\ntrain.epochs=40\n")
    data, ckpt = tmp_path / "data", tmp_path / "row.ckpt"
    assert cli.main([
        "generate", "--preset", "high2low", "--n", "600", "--dim", "40",
        "--seed", "1", "--out", str(data),
    ]) == 0
    assert cli.main([
        "pretrain", "--data", str(data / "source"), "--config", str(config),
        "--seed", "1", "--out", str(ckpt),
    ]) == 0
    target = [
        "--ckpt", str(ckpt), "--data", str(data / "target"), "--config", str(config),
    ]
    assert cli.main([
        "adapt", *target, "--base-tta", "erm", "--out", str(tmp_path / "adapt.json"),
    ]) == 0
    assert cli.main(["eval", *target, "--out", str(tmp_path / "eval.json")]) == 0
    adapted = json.loads((tmp_path / "adapt.json").read_text())
    evaluated = json.loads((tmp_path / "eval.json").read_text())
    assert evaluated["accuracy_all"] == adapted["accuracy_before"]


def test_eval_rejects_unknown_config_key(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not.a_key=1\n")
    result = run_cli(
        "eval", "--ckpt", workspace["ckpt"], "--data", workspace["data"] / "target",
        "--config", bad,
    )
    assert result.returncode == 2
    assert "not.a_key" in result.stderr


@pytest.mark.parametrize("variant", ["erm", "tent", "t3a"])
def test_adapt_accuracy_before_is_a_fresh_base_prediction(workspace, tmp_path, variant):
    from adarc import (
        BaseTtaKind,
        PropagationOperator,
        base_predict,
        cli,
        featurize_hops,
        load_checkpoint,
        prediction_accuracy,
        read_dataset,
    )

    out = tmp_path / "adapt.json"
    assert cli.main([
        "adapt", "--ckpt", str(workspace["ckpt"]),
        "--data", str(workspace["data"] / "target"),
        "--base-tta", variant, "--epochs", "2", "--out", str(out),
    ]) == 0
    dataset = read_dataset(workspace["data"] / "target")
    model = load_checkpoint(workspace["ckpt"])
    cache = featurize_hops(model, dataset, PropagationOperator(dataset.graph, "sym"))
    fresh = base_predict(BaseTtaKind(variant=variant), model, cache, dataset)
    expected = prediction_accuracy(fresh, dataset.labels)
    assert json.loads(out.read_text())["accuracy_before"] == expected


def test_adapt_out_echoes_every_adapt_and_base_setting(workspace, tmp_path):
    from adarc import cli

    blocks = {}
    for name, extra in (("plain", []), ("persist", ["--persist-base-tta"])):
        out = tmp_path / f"{name}.json"
        assert cli.main([
            "adapt", "--ckpt", str(workspace["ckpt"]),
            "--data", str(workspace["data"] / "target"),
            "--ablation", "joint", "--epochs", "1", *extra, "--out", str(out),
        ]) == 0
        blocks[name] = json.loads(out.read_text())["config"]
    assert blocks["plain"] != blocks["persist"]
    # JSON booleans, not the 0/1 a bool-as-int report would carry.
    assert blocks["plain"]["adapt.persist_base_tta"] is False
    assert blocks["persist"]["adapt.persist_base_tta"] is True
    # Every setting is echoed under its config key, so it pastes back into --config.
    settings = {k for k in cli._known_keys() if k.startswith(("adapt.", "base."))}
    assert set(blocks["plain"]) == settings | {"prop_mode"}
    assert blocks["plain"]["adapt.ablation"] == "joint"
    assert blocks["plain"]["adapt.epochs"] == 1


def test_adapt_report_trace_and_determinism(workspace, tmp_path):
    outputs = []
    for attempt in ("one", "two"):
        out = tmp_path / f"adapt_{attempt}.json"
        trace = tmp_path / f"trace_{attempt}.csv"
        result = run_cli(
            "adapt", "--ckpt", workspace["ckpt"],
            "--data", workspace["data"] / "target",
            "--lr", "0.1", "--epochs", "3", "--loss", "pic",
            "--out", out, "--trace", trace,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        outputs.append((out.read_bytes(), trace.read_bytes()))

    assert outputs[0] == outputs[1], "adapt outputs must be byte-deterministic"

    report = json.loads(outputs[0][0])
    for key in ("accuracy_before", "accuracy_after", "gamma_before", "gamma_after"):
        assert key in report
    assert report["convergence"]["epochs"] == 3
    assert len(report["gamma_after"]) == 4  # num_hops=3 at pretraining time
    text = outputs[0][0].decode()
    assert "wall-clock" not in text and "seconds" not in text, (
        "timing must never enter --out files"
    )

    lines = outputs[0][1].decode().splitlines()
    assert lines[0] == "epoch,loss,grad_norm,accuracy,gamma_0,gamma_1,gamma_2,gamma_3"
    assert len(lines) == 4  # header + one row per epoch
    first = lines[1].split(",")
    assert first[0] == "0"
    assert 0.0 <= float(first[3]) <= 1.0


def test_adapt_without_out_prints_the_same_bytes_and_nothing_on_stderr(workspace):
    # No command measures time, so nothing run-dependent reaches either stream.
    results = [
        run_cli(
            "adapt", "--ckpt", workspace["ckpt"],
            "--data", workspace["data"] / "target", "--epochs", "2",
        )
        for _ in range(2)
    ]
    for result in results:
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
    assert results[0].stdout == results[1].stdout
    assert "accuracy_after" in results[0].stdout


@pytest.mark.parametrize("command", ["adapt", "eval"])
def test_target_with_a_class_the_checkpoint_cannot_predict_exits_2(
    workspace, tmp_path, command
):
    data = tmp_path / "target"
    data.mkdir()
    for source in (workspace["data"] / "target").iterdir():
        (data / source.name).write_bytes(source.read_bytes())
    labels = (data / "labels.csv").read_text().splitlines(True)
    (data / "labels.csv").write_text("2\n" * 5 + "".join(labels[5:]))
    result = run_cli(command, "--ckpt", workspace["ckpt"], "--data", data)
    assert result.returncode == 2, result.stdout
    assert "3 classes" in result.stderr and "only 2" in result.stderr


def test_adapt_divergence_exits_3(workspace, tmp_path):
    result = run_cli(
        "adapt", "--ckpt", workspace["ckpt"],
        "--data", workspace["data"] / "target",
        "--lr", "1e160", "--epochs", "10", "--loss", "diff",
        "--out", tmp_path / "boom.json",
    )
    assert result.returncode == 3
    assert "numerical failure" in result.stderr
    assert "adaptation diverged" in result.stderr


# Besides a made-up key: two keys an older config file may still set.
@pytest.mark.parametrize(
    "line", ["not.a_key=1", "adapt.affine_lr=0.02", "train.gauge_normalize=false"]
)
def test_unknown_config_key_exits_2(workspace, tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"train.epochs=5\n{line}\n")
    result = run_cli(
        "pretrain", "--data", workspace["data"] / "source",
        "--config", bad, "--out", tmp_path / "x.ckpt",
    )
    assert result.returncode == 2
    assert "unknown config keys" in result.stderr
    assert line.split("=")[0] in result.stderr


def test_malformed_config_line_exits_2(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs 5\n")
    result = run_cli(
        "pretrain", "--data", workspace["data"] / "source",
        "--config", bad, "--out", tmp_path / "x.ckpt",
    )
    assert result.returncode == 2
    assert "key=value" in result.stderr


def test_pretrain_rejects_zero_hidden_width_with_exit_2(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_TRAIN_CONFIG + "train.hidden=0\n")
    out = tmp_path / "x.ckpt"
    result = run_cli(
        "pretrain", "--data", workspace["data"] / "source", "--config", bad, "--out", out,
    )
    assert result.returncode == 2, result.stderr
    assert "hidden" in result.stderr
    assert not out.exists()


def test_missing_dataset_exits_2(workspace, tmp_path):
    result = run_cli(
        "eval", "--ckpt", workspace["ckpt"], "--data", tmp_path / "nowhere"
    )
    assert result.returncode == 2


def _negative_first_label(path: Path) -> None:
    rows = path.read_text().splitlines(True)
    path.write_text("-1\n" + "".join(rows[1:]))


def _nan_first_feature(path: Path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + b"\x00\x00\xc0\x7f" + raw[20:])  # f32 NaN


def _truncated_header(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:10])


def _three_column_edges(path: Path) -> None:
    # Valid node ids that would re-pair silently into a different edge set.
    ids = np.loadtxt(path, dtype=np.int64, delimiter=",").reshape(-1)
    ids = ids[: ids.size - ids.size % 6].reshape(-1, 3)
    path.write_text("".join(f"{a},{b},{c}\n" for a, b, c in ids))


def _fractional_first_label(path: Path) -> None:
    rows = path.read_text().splitlines(True)
    path.write_text("1.5\n" + "".join(rows[1:]))


def _non_integer_edge(path: Path) -> None:
    path.write_text(path.read_text() + "0,x\n")


def _mask_value_2(path: Path) -> None:
    n = len((path.parent / "labels.csv").read_text().splitlines())
    path.write_text("train,val\n2,0\n" + "0,0\n" * (n - 1))


def _masks_under_another_header(path: Path) -> None:
    n = len((path.parent / "labels.csv").read_text().splitlines())
    path.write_text("val,train\n" + "0,1\n" * n)


def _two_column_labels(path: Path) -> None:
    # Without the check this loads as N×2 and fails later in a broadcast.
    path.write_text("".join(f"{y} {y}\n" for y in path.read_text().split()))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("labels.csv", _negative_first_label),
        ("features.bin", _nan_first_feature),
        ("features.bin", _truncated_header),
        ("edges.csv", _three_column_edges),
        ("masks.csv", _mask_value_2),
        ("labels.csv", _fractional_first_label),
        ("edges.csv", _non_integer_edge),
        ("masks.csv", _masks_under_another_header),
        ("labels.csv", _two_column_labels),
    ],
    ids=[
        "labels.csv",
        "features.bin",
        "features.bin-truncated-header",
        "edges.csv-three-columns",
        "masks.csv-value-2",
        "labels.csv-not-an-integer",
        "edges.csv-not-an-integer",
        "masks.csv-another-header",
        "labels.csv-two-columns",
    ],
)
def test_adapt_rejects_bad_input_file_with_exit_2(workspace, tmp_path, name, corrupt):
    data = tmp_path / "target"
    data.mkdir()
    for source in (workspace["data"] / "target").iterdir():
        (data / source.name).write_bytes(source.read_bytes())
    corrupt(data / name)
    result = run_cli(
        "adapt", "--ckpt", workspace["ckpt"], "--data", data,
        "--out", tmp_path / "report.json",
    )
    assert result.returncode == 2
    assert name in result.stderr


def _nan_gamma(path: Path) -> None:
    from adarc import load_checkpoint, save_checkpoint

    model = load_checkpoint(path)
    model.gamma[0] = np.nan
    save_checkpoint(model, path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda path: path.write_bytes(path.read_bytes()[:7]), "truncated header"),
        (_nan_gamma, "non-finite parameter"),
    ],
    ids=["truncated-header", "nan-gamma"],
)
def test_adapt_rejects_bad_checkpoint_with_exit_2(workspace, tmp_path, corrupt, message):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(workspace["ckpt"].read_bytes())
    corrupt(ckpt)
    result = run_cli(
        "adapt", "--ckpt", ckpt, "--data", workspace["data"] / "target",
        "--out", tmp_path / "report.json",
    )
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    assert "bad.ckpt" in result.stderr


def test_theory_report_and_determinism(tmp_path):
    args = (
        "theory", "--d", "10", "--h", "0.8", "--mu-norm", "1.0",
        "--delta-mu-norm", "0.5", "--cos-sim", "0.9",
        "--mc-trials", "200", "--mc-dim", "8", "--seed", "5",
    )
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    for out in (one, two):
        result = run_cli(*args, "--out", out)
        assert result.returncode == 0, result.stderr
    assert one.read_bytes() == two.read_bytes()

    report = json.loads(one.read_text())
    assert 0.5 <= report["accuracy"] <= 1.0
    assert report["accuracy"] <= report["accuracy_at_optimal"] + 1e-12
    assert report["attribute_shift"]["delta_mu_norm"] == 0.5
    assert report["monte_carlo"]["trials"] == 200


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mu-norm", "nan"], "mu_norm must be finite"),
        (["--d", "inf"], "d must be finite"),
        (["--gamma", "nan"], "gamma must be finite"),
        # Finite, but gamma**2 overflows: an input error, not a numerical failure.
        (["--gamma", "1e200"], "gamma=1e+200 is too large"),
        (["--gamma=-1e200"], "gamma=-1e+200 is too large"),
        (["--delta-mu-norm", "0.5", "--cos-sim", "5"], "cos_sim must lie in [-1, 1]"),
        (["--delta-mu-norm", "inf"], "delta_mu_norm must be finite"),
    ],
    ids=[
        "mu-norm-nan", "d-inf", "gamma-nan", "gamma-1e200", "gamma-minus-1e200",
        "cos-sim-5", "delta-mu-norm-inf",
    ],
)
def test_theory_rejects_bad_input_with_exit_2(tmp_path, capsys, flags, message):
    # Written out, NaN and Infinity would not be valid JSON.
    from adarc import cli

    out = tmp_path / "theory.json"
    argv = ["theory", "--d", "5", "--h", "0.8", *flags, "--out", str(out)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "hops_K", "--grid", "2", "--seed", "1"],
        ["eval", "--ckpt", "m.ckpt", "--data", "data", "--seed", "1"],
        ["adapt", "--ckpt", "m.ckpt", "--data", "data", "--seed", "1"],
        ["theory", "--d", "5", "--h", "0.8", "--config", "run.cfg"],
    ],
    ids=["sweep-seed", "eval-seed", "adapt-seed", "theory-config"],
)
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    # sweep derives every seed from --seeds (and must not read --seed as an
    # abbreviation of it); eval and adapt draw nothing; theory reads no config.
    from adarc import cli

    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_sweep_writes_json_and_csv(workspace, tmp_path):
    out = tmp_path / "sweep.json"
    result = run_cli(
        "sweep", "--preset", "homo2hetero", "--axis", "hops_K", "--grid", "2",
        "--methods", "erm", "--seeds", "0", "--n", "160", "--dim", "24",
        "--config", workspace["config"], "--out", out,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["axis"] == "hops_K"
    (report,) = payload["reports"]
    assert report["scenario"] == "homo2hetero[K=2]"
    assert "erm" in report["mean"]

    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "scenario,method,mean,sd,seed_0"
    assert len(csv_lines) == 2


@pytest.mark.parametrize(
    "axis, grid, message",
    [
        ("loss_kind", "pic,nosuch", "error: loss must be one of"),
        ("lr_epochs", "0.1:2,0.1:0", "error: epochs must be >= 1"),
        ("hops_K", "2,two", "error: invalid literal for int()"),
    ],
    ids=["loss-nosuch", "epochs-0", "K-not-a-number"],
)
def test_sweep_bad_grid_value_exits_2_before_pretraining(
    monkeypatch, capsys, tmp_path, axis, grid, message
):
    from adarc import cli, harness

    def never(*args):
        raise AssertionError("sweep pretrained before checking its grid")

    monkeypatch.setattr(harness, "pretrain_on", never)
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--axis", axis, "--grid", grid, "--n", "160", "--dim", "24"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_decompose_cli_identity_and_config_override(tmp_path):
    config = tmp_path / "cfg"
    config.write_text(TINY_TRAIN_CONFIG + "scenario.source_h=0.8\n")
    out = tmp_path / "gap.json"
    result = run_cli(
        "decompose", "--preset", "hetero2homo", "--attribute-shift",
        "--n", "160", "--dim", "24", "--config", config, "--out", out,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["scenario"] == "hetero2homo+attr+source_h=0.8"
    identity = report["delta_f"] + report["delta_g"]
    assert identity == pytest.approx(
        report["acc_source"] - report["acc_target"], abs=1e-9
    )
    assert set(report["fit"]) >= {"iterations", "grad_norm", "converged", "stop"}
    assert isinstance(report["fit"]["converged"], bool)


# --- one source per setting: flags are config keys, merged over the file ---

#: (config key, its value in the file, the flag that sets it, the flag's value).
FLAG_CASES = [
    ("scenario.preset", "high2low", ["--preset", "low2high"], "low2high"),
    ("scenario.attribute_shift", "false", ["--attribute-shift"], True),
    ("scenario.n", "100", ["--n", "120"], 120),
    ("scenario.dim", "10", ["--dim", "12"], 12),
    ("adapt.learning_rate", "0.2", ["--lr", "0.3"], 0.3),
    ("adapt.epochs", "2", ["--epochs", "3"], 3),
    ("adapt.loss", "entropy", ["--loss", "diff"], "diff"),
    ("adapt.ablation", "theta", ["--ablation", "joint"], "joint"),
    ("adapt.persist_base_tta", "false", ["--persist-base-tta"], True),
    ("base.variant", "tent", ["--base-tta", "t3a"], "t3a"),
    ("train.seed", "5", ["--seed", "7"], 7),
]


class _Captured(Exception):
    """Stops a command once it has built its configuration."""


@pytest.mark.parametrize(
    "key, in_file, flag, expected", FLAG_CASES, ids=[case[0] for case in FLAG_CASES]
)
def test_flag_beats_the_config_file(
    workspace, tmp_path, monkeypatch, key, in_file, flag, expected
):
    from adarc import cli

    seen = []

    def capture(*args):
        seen.extend(args)
        raise _Captured

    config = tmp_path / "file.cfg"
    config.write_text(f"{key}={in_file}\n")
    section, name = key.split(".")
    if section == "scenario":
        monkeypatch.setattr(cli, "build_scenario_datasets", capture)
        argv = ["generate", "--out", str(tmp_path / "data")]
    elif section == "train":
        monkeypatch.setattr(cli, "pretrain_on", capture)
        argv = ["pretrain", "--data", str(workspace["data"] / "source")]
    else:
        monkeypatch.setattr(cli, "adapt", capture)
        argv = [
            "adapt", "--ckpt", str(workspace["ckpt"]),
            "--data", str(workspace["data"] / "target"),
        ]
    with pytest.raises(_Captured):
        cli.main([*argv, "--config", str(config), *flag])
    # build_scenario_datasets(spec, seed), pretrain_on(dataset, config) or
    # adapt(model, dataset, op, config): the configuration is the last argument
    # but for build_scenario_datasets.
    built = seen[0] if section == "scenario" else seen[-1]
    if section == "base":
        built = built.base
    assert getattr(built, name) == expected


def test_every_dotted_flag_dest_is_a_config_key():
    # A dest that is not a known key would be dropped without a word.
    from adarc import cli

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        action.dest
        for command in commands.choices.values()
        for action in command._actions
        if "." in action.dest
    }
    assert dests <= cli._known_keys()
    assert dests == {case[0] for case in FLAG_CASES}


#: Paths that are never read: each case fails before any file is opened.
_ADAPT = ["adapt", "--ckpt", "m.ckpt", "--data", "data"]


@pytest.mark.parametrize(
    "argv, in_file, message",
    [
        ([*_ADAPT, "--epochs", "abc"], None, "adapt.epochs: expected int, got 'abc'"),
        (_ADAPT, "adapt.epochs=abc", "adapt.epochs: expected int, got 'abc'"),
        (_ADAPT, "adapt.learning_rate=fast", "adapt.learning_rate: expected float"),
        ([*_ADAPT, "--lr", "nan"], None, "adapt.learning_rate: expected a finite"),
        (
            ["pretrain", "--data", "data"],
            "train.learning_rate=nan",
            "train.learning_rate: expected a finite float, got 'nan'",
        ),
        (
            ["pretrain", "--data", "data", "--seed", "abc"],
            None,
            "train.seed: expected int, got 'abc'",
        ),
    ],
    ids=[
        "int-flag", "int-file", "float-file", "nan-flag", "nan-file",
        "pretrain-seed-not-an-int",
    ],
)
def test_unconvertible_value_exits_2_naming_the_key(
    tmp_path, capsys, argv, in_file, message
):
    # A NaN learning rate used to fail mid-run: exit 2 from a prediction
    # check in adapt, exit 3 as a numerical failure in pretrain.
    from adarc import cli

    if in_file:
        (tmp_path / "bad.cfg").write_text(in_file + "\n")
        argv = [*argv, "--config", str(tmp_path / "bad.cfg")]
    assert cli.main(argv) == 2
    assert f"config key {message}" in capsys.readouterr().err


#: A bad line for a section the command does not read; sweep reads every
#: section, and a base option reaches each method's base TTA.
UNREAD_SECTION_LINES = {
    "generate": "train.hidden=0",
    "pretrain": "scenario.n=7",
    "adapt": "scenario.n=7",
    "eval": "adapt.epochs=0",
    "sweep": "base.keep_per_class=0",
    "decompose": "base.steps=-1",
}


@pytest.mark.parametrize("command, line", UNREAD_SECTION_LINES.items())
def test_bad_value_in_any_section_exits_2(workspace, tmp_path, capsys, command, line):
    # Every command that takes --config builds every section from it.
    from adarc import cli

    data, ckpt = workspace["data"], str(workspace["ckpt"])
    shape = ["--n", "160", "--dim", "24"]
    argv = {
        "generate": shape,
        "pretrain": ["--data", str(data / "source")],
        "adapt": ["--ckpt", ckpt, "--data", str(data / "target")],
        "eval": ["--ckpt", ckpt, "--data", str(data / "target")],
        "sweep": ["--axis", "hops_K", "--grid", "2", "--seeds", "0", *shape],
        "decompose": shape,
    }[command]
    # Small settings otherwise, so that ignoring the bad line would finish.
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_TRAIN_CONFIG + line + "\n")
    out = tmp_path / "out"
    code = cli.main([command, *argv, "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_runs_each_base_with_the_configured_options(tmp_path):
    # Each method's variant comes from its name, its options from base.*.
    from adarc import (
        BaseTtaKind,
        PropagationOperator,
        ScenarioSpec,
        TrainConfig,
        base_predict,
        build_scenario_datasets,
        cli,
        featurize_hops,
        prediction_accuracy,
        pretrain_on,
        scenario_seeds,
    )

    config = tmp_path / "run.cfg"
    options = "base.steps=3\nbase.lr=0.5\nbase.keep_per_class=3\n"
    config.write_text(TINY_TRAIN_CONFIG + options)
    out = tmp_path / "sweep.json"
    assert cli.main([
        "sweep", "--preset", "high2low", "--n", "160", "--dim", "24",
        "--axis", "loss_kind", "--grid", "pic", "--methods", "tent,t3a",
        "--seeds", "0", "--config", str(config), "--out", str(out),
    ]) == 0
    (report,) = json.loads(out.read_text())["reports"]
    # The echo holds the base options; each method's name gives its variant.
    assert report["config"]["adapt"]["base"] == {"steps": 3, "lr": 0.5, "keep_per_class": 3}

    source, target = build_scenario_datasets(
        ScenarioSpec("high2low", n=160, dim=24), 0
    )
    train = TrainConfig(epochs=40, patience=10, hidden=16, num_hops=3)
    model, _ = pretrain_on(source, replace(train, seed=scenario_seeds(0)["model"]))
    cache = featurize_hops(model, target, PropagationOperator(target.graph, "sym"))
    for variant in ("tent", "t3a"):
        options = BaseTtaKind(variant, steps=3, lr=0.5, keep_per_class=3)
        expected = prediction_accuracy(
            base_predict(options, model, cache, target), target.labels
        )
        default = prediction_accuracy(
            base_predict(BaseTtaKind(variant), model, cache, target), target.labels
        )
        assert report["per_seed"][variant] == [expected]
        assert expected != default, "the options must move the accuracy here"


# --- the checkpoint carries its propagation mode ---


@pytest.fixture(scope="module")
def row_checkpoint(tmp_path_factory) -> dict:
    """A high2low scenario and a checkpoint pretrained under row propagation."""
    from adarc import cli

    root = tmp_path_factory.mktemp("row")
    config = root / "row.cfg"
    config.write_text("train.prop_mode=row\ntrain.epochs=40\n")
    assert cli.main([
        "generate", "--preset", "high2low", "--n", "600", "--dim", "40",
        "--seed", "1", "--out", str(root / "data"),
    ]) == 0
    ckpt = root / "row.ckpt"
    assert cli.main([
        "pretrain", "--data", str(root / "data" / "source"), "--config", str(config),
        "--seed", "1", "--out", str(ckpt),
    ]) == 0
    return {"ckpt": str(ckpt), "target": str(root / "data" / "target")}


def test_eval_takes_the_prop_mode_from_the_checkpoint(row_checkpoint, tmp_path):
    # Propagating under sym instead reads 0.585 on this scenario.
    from adarc import cli

    out = tmp_path / "eval.json"
    assert cli.main([
        "eval", "--ckpt", row_checkpoint["ckpt"], "--data", row_checkpoint["target"],
        "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["accuracy_all"] == pytest.approx(0.5767, abs=5e-5)


@pytest.mark.parametrize("command", ["adapt", "eval"])
def test_contradicting_prop_mode_exits_2(row_checkpoint, tmp_path, capsys, command):
    from adarc import cli

    config = tmp_path / "sym.cfg"
    config.write_text("train.prop_mode=sym\n")
    assert cli.main([
        command, "--ckpt", row_checkpoint["ckpt"], "--data", row_checkpoint["target"],
        "--config", str(config), "--out", str(tmp_path / "report.json"),
    ]) == 2
    assert "train.prop_mode=sym contradicts" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_version_1_checkpoint_exits_2_naming_the_version(workspace, tmp_path):
    # Version 1: magic, u32 version, four u32 dims, then the f32 payload.
    blob = workspace["ckpt"].read_bytes()
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(blob[:5] + struct.pack("<I", 1) + blob[9:25] + blob[29:])
    result = run_cli("eval", "--ckpt", ckpt, "--data", workspace["data"] / "target")
    assert result.returncode == 2
    assert "unsupported version 1" in result.stderr
