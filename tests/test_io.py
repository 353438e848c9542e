"""Dataset and checkpoint serialization, JSON report formatting."""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    AdaptConfig,
    BaseTtaKind,
    CsbmParams,
    Dataset,
    FormatError,
    PropagationOperator,
    adapt,
    attach_split_masks,
    base_predict,
    cli,
    featurize_hops,
    generate,
    init_model,
    load_checkpoint,
    prediction_accuracy,
    read_dataset,
    save_checkpoint,
    write_dataset,
    write_json_report,
)
from adarc.graph import build_graph
from adarc.io import _row_blocks, report_text

from conftest import TINY_N, tiny_params


def test_dataset_roundtrip_exact(tmp_path):
    dataset = attach_split_masks(generate(tiny_params(0.7, seed=31)), seed=5)
    write_dataset(dataset, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(back.features, dataset.features)
    assert back.features.dtype == np.float32
    np.testing.assert_array_equal(back.labels, dataset.labels)
    np.testing.assert_array_equal(back.graph.row_offsets, dataset.graph.row_offsets)
    np.testing.assert_array_equal(back.graph.neighbor_ids, dataset.graph.neighbor_ids)
    assert back.num_classes == dataset.num_classes
    assert set(back.masks) == set(dataset.masks)
    for key in dataset.masks:
        np.testing.assert_array_equal(back.masks[key], dataset.masks[key])


def test_dataset_roundtrip_without_masks(tmp_path):
    dataset = generate(tiny_params(0.7, seed=32))
    write_dataset(dataset, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    assert not back.masks
    np.testing.assert_array_equal(back.labels, dataset.labels)


def test_dataset_write_is_byte_deterministic(tmp_path):
    dataset = attach_split_masks(generate(tiny_params(0.7, seed=33)), seed=5)
    write_dataset(dataset, tmp_path / "a")
    write_dataset(dataset, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


# --- features.bin is streamed through one block of about 1 MiB ---


def _dense_dataset(n: int, d: int, seed: int = 2024) -> Dataset:
    """Gaussian features on a path graph, three cycling labels, both masks."""
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    edges = np.column_stack([nodes[:-1], nodes[1:]]) if n > 1 else np.zeros((0, 2))
    return Dataset(
        build_graph(edges.astype(np.int64), n),
        rng.standard_normal((n, d)),
        nodes % 3,
        3,
        {"train": nodes % 5 == 0, "val": nodes % 5 == 1},
    )


# 300×1000 f32 values are 1.2 MB: more than one block, not a multiple of it.
MULTI_BLOCK = (300, 1000)


@pytest.mark.parametrize("n, d", [MULTI_BLOCK, (7, 0)], ids=["multi-block", "empty"])
def test_streamed_features_round_trip(tmp_path, n, d):
    dataset = _dense_dataset(n, d)
    write_dataset(dataset, tmp_path / "ds")
    assert (tmp_path / "ds" / "features.bin").stat().st_size == 16 + 4 * n * d
    back = read_dataset(tmp_path / "ds")
    assert back.features.shape == (n, d)
    assert back.features.dtype == np.float32
    np.testing.assert_array_equal(
        back.features, dataset.features.astype(np.float32).astype(np.float64)
    )
    np.testing.assert_array_equal(back.labels, dataset.labels)


@pytest.mark.parametrize("n, d", [MULTI_BLOCK, (7, 0)], ids=["multi-block", "empty"])
def test_read_features_are_a_read_only_view_of_the_payload(tmp_path, n, d):
    write_dataset(_dense_dataset(n, d), tmp_path)
    features = read_dataset(tmp_path).features
    assert features.dtype == np.dtype("<f4")
    assert features.flags.c_contiguous
    assert not features.flags.writeable
    assert features.tobytes() == (tmp_path / "features.bin").read_bytes()[16:]


def test_rewriting_a_read_dataset_keeps_its_bytes_and_its_features(tmp_path):
    # The writer replaces features.bin, so a dataset mapped from the old file
    # keeps its pages; truncating the mapped file would kill the process.
    write_dataset(_dense_dataset(*MULTI_BLOCK), tmp_path)
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    held = read_dataset(tmp_path)
    write_dataset(held, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written
    write_dataset(_dense_dataset(3, 2), tmp_path)
    assert held.features.tobytes() == written["features.bin"][16:]
    assert read_dataset(tmp_path).features.shape == (3, 2)


@pytest.mark.parametrize("variant", ["erm", "tent", "t3a"])
def test_read_dataset_featurizes_and_adapts_like_the_in_memory_dataset(
    tmp_path, tiny_model, tiny_target, variant
):
    write_dataset(tiny_target, tmp_path)
    datasets = (tiny_target, read_dataset(tmp_path))
    ops = [PropagationOperator(ds.graph, tiny_model.prop_mode) for ds in datasets]
    caches = [featurize_hops(tiny_model, ds, op) for ds, op in zip(datasets, ops)]
    np.testing.assert_array_equal(caches[1].hop0, caches[0].hop0)
    np.testing.assert_array_equal(
        caches[1].class_scores(tiny_model), caches[0].class_scores(tiny_model)
    )
    config = AdaptConfig(base=BaseTtaKind(variant))
    results = [adapt(tiny_model, ds, op, config) for ds, op in zip(datasets, ops)]
    np.testing.assert_array_equal(results[1].model.gamma, results[0].model.gamma)
    np.testing.assert_array_equal(
        results[1].prediction.probs, results[0].prediction.probs
    )


def test_streamed_write_matches_golden_bytes(tmp_path):
    # Recorded from the single-buffer writer that streaming replaced.
    golden = {
        "edges.csv": "455f6eba7b99ad3cbed340768ce06c00f9b81d832ae7ea15f7e4f1e6876b85c5",
        "features.bin": "08b8d8ced55bf0d9996a8f39962479931648e208ae681740780ee259fcacfd9f",
        "labels.csv": "5f44fd7e34ec0bfaaedf9887da89e7352d1728515f96980df9017b99b8c0f15d",
        "masks.csv": "e0257803865fc159430793876366537d9f8198ff63ae6f76fc6eb070a9b2731d",
    }
    write_dataset(_dense_dataset(*MULTI_BLOCK), tmp_path)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == golden


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_last_block_is_a_format_error(tmp_path, value):
    write_dataset(_dense_dataset(*MULTI_BLOCK), tmp_path)
    features = tmp_path / "features.bin"
    raw = bytearray(features.read_bytes())
    raw[-4:] = np.array([value], dtype="<f4").tobytes()
    features.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="features.bin: non-finite"):
        read_dataset(tmp_path)


@pytest.mark.parametrize("delta", [-1, 1], ids=["one-byte-short", "one-byte-long"])
def test_features_off_by_one_byte_is_a_format_error(tmp_path, delta):
    write_dataset(_dense_dataset(*MULTI_BLOCK), tmp_path)
    features = tmp_path / "features.bin"
    raw = features.read_bytes()
    features.write_bytes(raw[:-1] if delta < 0 else raw + b"\0")
    with pytest.raises(
        FormatError,
        match=f"features.bin: expected {len(raw)} bytes, found {len(raw) + delta}",
    ):
        read_dataset(tmp_path)


def test_read_dataset_peak_memory_is_the_matrix_plus_one_block(tmp_path):
    n, d = 1000, 1000
    write_dataset(_dense_dataset(n, d), tmp_path)
    tracemalloc.start()
    try:
        read_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The mapped matrix is not traced, and the finiteness check allocates no
    # mask. Measured 144,790 bytes; 264,551 with one block's mask (262,000).
    # Reading into an allocated f32 matrix read 0.26 MiB above 4·n·d, an f64
    # matrix plus one f32 block 1.26 MiB above 8·n·d.
    assert peak <= 2**18 + 2**14


# --- a full pass over read features releases the pages it has read ---

# 1000×1000 f32 values are 4 MB: 4 blocks of 250 rows, for the check and X·W1.
RELEASED = (1000, 1000)


def _f32_dataset(n: int, d: int) -> Dataset:
    """``_dense_dataset`` with the f32 features that ``features.bin`` stores."""
    dataset = _dense_dataset(n, d)
    return replace(dataset, features=dataset.features.astype(np.float32))


def _mapped_rss(path: Path) -> int:
    """Resident bytes of this process's mappings of ``path``, from ``/proc/self/smaps``."""
    smaps = Path("/proc/self/smaps")
    if not smaps.exists():
        pytest.skip("no /proc/self/smaps on this platform")
    kib, mappings, inside = 0, 0, False
    for line in smaps.read_text().splitlines():
        key = line.split(maxsplit=1)[0]
        if not key.endswith(":"):
            inside = line.endswith(f" {path}")
            mappings += inside
        elif inside and key == "Rss:":
            kib += int(line.split()[1])
    assert mappings, f"{path} is not mapped"
    return kib * 1024


def test_a_read_dataset_holds_one_block_of_features_bin(tmp_path):
    n, d = RELEASED
    write_dataset(_dense_dataset(n, d), tmp_path)
    rows = next(_row_blocks(np.empty((n, d), np.float32)))
    bound = (rows.stop - rows.start) * 4 * d + mmap.PAGESIZE
    dataset = read_dataset(tmp_path)
    path = tmp_path / "features.bin"
    # Measured 4 KiB after each; 3,908 KiB, the whole payload, before the
    # passes released their pages.
    assert _mapped_rss(path) <= bound
    model = init_model(d, 8, dataset.num_classes, 3, seed=0)
    featurize_hops(model, dataset, PropagationOperator(dataset.graph, model.prop_mode))
    assert _mapped_rss(path) <= bound


def test_released_pages_read_back_the_same_bits(tmp_path):
    n, d = RELEASED
    in_memory = _f32_dataset(n, d)
    write_dataset(in_memory, tmp_path)
    read = read_dataset(tmp_path)
    model = init_model(d, 8, read.num_classes, 3, seed=0)
    op = PropagationOperator(read.graph, model.prop_mode)
    caches = [featurize_hops(model, ds, op) for ds in (in_memory, read, read)]
    for cache in caches[1:]:
        np.testing.assert_array_equal(cache.hop0, caches[0].hop0)
        np.testing.assert_array_equal(
            cache.class_scores(model), caches[0].class_scores(model)
        )
    assert read.features.tobytes() == (tmp_path / "features.bin").read_bytes()[16:]


def test_a_copy_on_write_memmap_keeps_its_writes(tmp_path):
    # Released pages of a private mapping would read back the file, not the
    # writes: only the matrix that the reader mapped is released.
    n, d = RELEASED
    dataset = _f32_dataset(n, d)
    dataset.features.tofile(tmp_path / "x.f32")
    features = np.memmap(tmp_path / "x.f32", "<f4", "c", shape=(n, d))
    features += 1.0
    model = init_model(d, 8, dataset.num_classes, 3, seed=0)
    op = PropagationOperator(dataset.graph, model.prop_mode)
    featurize_hops(model, replace(dataset, features=features), op)
    np.testing.assert_array_equal(features, dataset.features + np.float32(1.0))


def test_eval_of_a_read_dataset_reports_the_in_memory_accuracies(tmp_path):
    n, d = RELEASED
    in_memory = _f32_dataset(n, d)
    write_dataset(in_memory, tmp_path / "data")
    save_checkpoint(init_model(d, 8, 3, 3, seed=4), tmp_path / "model.ckpt")
    model = load_checkpoint(tmp_path / "model.ckpt")
    op = PropagationOperator(in_memory.graph, model.prop_mode)
    prediction = base_predict(
        BaseTtaKind(), model, featurize_hops(model, in_memory, op), in_memory
    )
    out = tmp_path / "eval.json"
    argv = [
        "eval", "--ckpt", str(tmp_path / "model.ckpt"),
        "--data", str(tmp_path / "data"), "--out", str(out),
    ]
    assert cli.main(argv) == 0
    covered = in_memory.masks["train"] | in_memory.masks["val"]
    assert json.loads(out.read_text()) == {
        "accuracy_all": prediction_accuracy(prediction, in_memory.labels),
        "accuracy_train": prediction_accuracy(
            prediction, in_memory.labels, in_memory.masks["train"]
        ),
        "accuracy_val": prediction_accuracy(
            prediction, in_memory.labels, in_memory.masks["val"]
        ),
        "accuracy_test": prediction_accuracy(prediction, in_memory.labels, ~covered),
    }


def test_a_dataset_with_no_nodes_is_rejected_where_it_enters(tmp_path):
    with pytest.raises(ValueError, match="dataset has no nodes"):
        _dense_dataset(0, 4)
    # An N = 0 features.bin with empty labels and edges reads up to the
    # Dataset, which rejects it; nothing warns on the way.
    (tmp_path / "features.bin").write_bytes(struct.pack("<4sIII", b"ADRC", 1, 0, 4))
    (tmp_path / "labels.csv").write_text("")
    (tmp_path / "edges.csv").write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dataset has no nodes"):
            read_dataset(tmp_path)


def test_read_dataset_missing_directory(tmp_path):
    with pytest.raises((FormatError, OSError)):
        read_dataset(tmp_path / "nope")


def test_read_dataset_rejects_negative_label(tmp_path):
    write_dataset(generate(tiny_params(0.7, seed=31)), tmp_path / "ds")
    labels = tmp_path / "ds" / "labels.csv"
    rows = labels.read_text().splitlines(True)
    labels.write_text("-1\n" + "".join(rows[1:]))
    with pytest.raises(FormatError, match="labels.csv"):
        read_dataset(tmp_path / "ds")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_dataset_rejects_non_finite_features(tmp_path, value):
    write_dataset(generate(tiny_params(0.7, seed=31)), tmp_path / "ds")
    features = tmp_path / "ds" / "features.bin"
    raw = bytearray(features.read_bytes())
    raw[16 + 4 * 5 : 16 + 4 * 6] = np.array([value], dtype="<f4").tobytes()
    features.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="features.bin"):
        read_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "name, text",
    [
        ("edges.csv", "0,1,2\n3,4,5\n"),
        ("edges.csv", "0\n1\n2\n3\n"),
        ("masks.csv", "train,val\n2,0\n" + "0,1\n" * (TINY_N - 1)),
        ("labels.csv", "1.5\n" + "0\n" * (TINY_N - 1)),
        ("labels.csv", "0 0\n" * TINY_N),
        ("edges.csv", "0,1\n0,x\n"),
    ],
    ids=[
        "edges-three-columns",
        "edges-one-column",
        "masks-value-2",
        "labels-not-an-integer",
        "labels-two-columns",
        "edges-not-an-integer",
    ],
)
def test_read_dataset_rejects_malformed_csv(tmp_path, name, text):
    # Without the check, edges re-pair across lines and a 2 reads as True;
    # numpy's own parse errors do not name the file.
    write_dataset(generate(tiny_params(0.7, seed=31)), tmp_path / "ds")
    (tmp_path / "ds" / name).write_text(text)
    with pytest.raises(FormatError, match=name):
        read_dataset(tmp_path / "ds")


def test_read_dataset_rejects_masks_under_another_header(tmp_path):
    # Swapping both columns and the header would otherwise load the column
    # headed ``val`` as the train mask.
    write_dataset(attach_split_masks(generate(tiny_params(0.7, seed=31)), seed=5), tmp_path)
    masks = tmp_path / "masks.csv"
    rows = [line.split(",") for line in masks.read_text().splitlines()]
    masks.write_text("".join(f"{b},{a}\n" for a, b in rows))
    with pytest.raises(FormatError, match="masks.csv: expected header 'train,val'"):
        read_dataset(tmp_path)


def test_dataset_rejects_negative_label():
    dataset = generate(tiny_params(0.7, seed=31))
    labels = dataset.labels.copy()
    labels[0] = -1
    with pytest.raises(ValueError, match="out of range"):
        Dataset(dataset.graph, dataset.features, labels, dataset.num_classes)


def test_checkpoint_roundtrip_is_f32_exact(tmp_path, tiny_model, tiny_target):
    # The declared format stores parameters as little-endian f32: loading
    # recovers the f32 cast exactly, and a second save is a fixpoint.
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    back = load_checkpoint(path)
    for ours, theirs in zip(tiny_model.arrays(), back.arrays()):
        np.testing.assert_array_equal(
            ours.astype(np.float32).astype(ours.dtype), theirs
        )
    save_checkpoint(back, tmp_path / "again.ckpt")
    assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()
    op = PropagationOperator(tiny_target.graph, "sym")
    a = base_predict(
        BaseTtaKind(), tiny_model, featurize_hops(tiny_model, tiny_target, op), tiny_target
    )
    b = base_predict(BaseTtaKind(), back, featurize_hops(back, tiny_target, op), tiny_target)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-5)


@pytest.mark.parametrize("mode", ["row", "sym"])
def test_checkpoint_round_trips_prop_mode(tmp_path, tiny_model, mode):
    model = replace(tiny_model, prop_mode=mode)
    assert model.copy().prop_mode == mode
    save_checkpoint(model, tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt").prop_mode == mode


def test_checkpoint_write_is_byte_deterministic(tmp_path, tiny_model):
    save_checkpoint(tiny_model, tmp_path / "a.ckpt")
    save_checkpoint(tiny_model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises((FormatError, ValueError, OSError)):
        load_checkpoint(bad)


def test_checkpoint_rejects_truncation(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises((FormatError, ValueError, OSError)):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_truncated_features_header_is_a_format_error(tmp_path):
    write_dataset(generate(tiny_params(0.7, seed=31)), tmp_path / "ds")
    features = tmp_path / "ds" / "features.bin"
    features.write_bytes(features.read_bytes()[:10])
    with pytest.raises(FormatError, match="features.bin"):
        read_dataset(tmp_path / "ds")


def test_truncated_checkpoint_header_is_a_format_error(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model, path)
    path.write_bytes(path.read_bytes()[:7])
    with pytest.raises(FormatError, match="model.ckpt"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, tiny_model, value):
    model = tiny_model.copy()
    model.gamma[0] = value
    save_checkpoint(model, tmp_path / "model.ckpt")
    with pytest.raises(FormatError, match="checkpoint: non-finite parameter"):
        load_checkpoint(tmp_path / "model.ckpt")


@pytest.mark.parametrize("variant", ["erm", "t3a"])
def test_adapt_from_f32_checkpoint_matches_in_memory(
    tmp_path, tiny_model, tiny_target, variant
):
    # The tolerance stated in the io module docstring.
    save_checkpoint(tiny_model, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    config = AdaptConfig(base=BaseTtaKind(variant))
    results = [
        adapt(model, tiny_target, PropagationOperator(tiny_target.graph), config)
        for model in (tiny_model, loaded)
    ]
    accuracies = [prediction_accuracy(r.prediction, tiny_target.labels) for r in results]
    assert accuracies[0] == accuracies[1]
    np.testing.assert_allclose(
        results[1].prediction.probs, results[0].prediction.probs, rtol=0, atol=1e-5
    )


# --- fuzzing: a damaged file is either still readable or a FormatError ---


SMALL = CsbmParams(
    n=40, dim=3, mu=np.full(3, 0.5), delta_mu=np.zeros(3),
    avg_degree=3.0, homophily=0.7, seed=0,
)


def _valid_files() -> dict[str, bytes]:
    """Every file of a small dataset directory, plus ``m.ckpt`` of a small model."""
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(generate(SMALL), tmp)
        save_checkpoint(init_model(3, 4, 2, 3, seed=0), Path(tmp) / "m.ckpt")
        return {path.name: path.read_bytes() for path in Path(tmp).iterdir()}


VALID = _valid_files()


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` cut to any length, or with up to four bytes overwritten.

    Half of the cut points and positions fall in the first 32 bytes, where
    the headers are.
    """

    def position(end: int) -> int:
        return draw(st.one_of(st.integers(0, min(31, end)), st.integers(0, end)))

    if draw(st.booleans()):
        return blob[: position(len(blob))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        out[position(len(blob) - 1)] = draw(st.integers(0, 255))
    return bytes(out)


def _read_damaged(name: str, blob: bytes, reader) -> None:
    """Run ``reader`` on a directory of VALID files where ``name`` holds ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        for other, data in VALID.items():
            (Path(tmp) / other).write_bytes(blob if other == name else data)
        try:
            reader(Path(tmp))
        except FormatError:
            pass


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@_FUZZ
@given(damaged(VALID["features.bin"]))
def test_fuzz_read_dataset_features(blob):
    _read_damaged("features.bin", blob, read_dataset)


@_FUZZ
@given(damaged(VALID["m.ckpt"]))
def test_fuzz_load_checkpoint(blob):
    _read_damaged("m.ckpt", blob, lambda directory: load_checkpoint(directory / "m.ckpt"))


def test_report_text_writes_booleans_as_json_booleans():
    # ``bool`` is a subclass of ``int``; neither kind may turn into the other.
    text = report_text({"t": True, "f": np.bool_(False), "one": 1, "n": np.int64(0)})
    assert '"t": true' in text and '"f": false' in text
    assert '"one": 1' in text and '"n": 0' in text


def test_report_text_is_canonical():
    report = {"b": 1, "a": [1.5, 2], "nested": {"z": True, "y": None}}
    text = report_text(report)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"'), "keys must be sorted"
    assert report_text(report) == text, "formatting must be deterministic"


def test_report_text_writes_numpy_values_as_their_python_values():
    report = {
        "array": np.array([[0.5, 1.0], [2.0, -0.25]], dtype=np.float32),
        "bool": np.bool_(True),
        "f32": np.float32(0.1),
        "f64": np.float64(0.1),
        "i64": np.int64(-3),
        "tuple": (np.int64(1), (np.float64(2.5), np.arange(2))),
    }
    plain = {
        "array": [[0.5, 1.0], [2.0, -0.25]],
        "bool": True,
        "f32": 0.10000000149011612,
        "f64": 0.1,
        "i64": -3,
        "tuple": [1, [2.5, [0, 1]]],
    }
    expected = (
        '{\n  "array": [\n    [\n      0.5,\n      1.0\n    ],\n    [\n      2.0,\n'
        '      -0.25\n    ]\n  ],\n  "bool": true,\n  "f32": 0.10000000149011612,\n'
        '  "f64": 0.1,\n  "i64": -3,\n  "tuple": [\n    1,\n    [\n      2.5,\n'
        '      [\n        0,\n        1\n      ]\n    ]\n  ]\n}\n'
    )
    assert report_text(report) == expected
    assert report_text(plain) == expected


def test_report_text_rejects_what_json_cannot_encode():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        report_text({"names": {"a"}})


def test_write_json_report_byte_deterministic(tmp_path):
    report = {"x": 0.1 + 0.2, "names": ["b", "a"]}
    write_json_report(tmp_path / "r1.json", report)
    write_json_report(tmp_path / "r2.json", report)
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_model_init_seed_determinism():
    a = init_model(dim=12, hidden=8, num_classes=2, num_hops=4, seed=7)
    b = init_model(dim=12, hidden=8, num_classes=2, num_hops=4, seed=7)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)
    c = init_model(dim=12, hidden=8, num_classes=2, num_hops=4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))