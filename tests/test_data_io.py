import json

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataFormatError,
    MulticlassSpace,
    three_level_taxonomy,
)
from semistruct.data_io import (
    load_dataset,
    load_taxonomy,
    make_folds,
    mask_labels,
    save_dataset,
    save_taxonomy,
    synth_blobs,
    synth_chains,
    synth_taxonomy_blobs,
    taxonomy_leaf_centers,
)
from semistruct import data_io


def _write(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_mixed_labels(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(
        tmp_path,
        ['{"id": 0, "x": [1.0, 2.0], "y": 1}', '{"id": 1, "x": [0.0, 0.0], "y": null}'],
    )
    ds = load_dataset(path, space)
    assert ds.labeled.tolist() == [True, False]
    assert ds.points[0].y == 1


def test_load_rejects_duplicate_id(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(
        tmp_path,
        ['{"id": 0, "x": [1, 2], "y": 1}', '{"id": 0, "x": [0, 0], "y": 0}'],
    )
    with pytest.raises(DataFormatError, match="duplicate id 0"):
        load_dataset(path, space)


def test_load_rejects_output_outside_space(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(tmp_path, ['{"id": 0, "x": [1, 2], "y": 5}'])
    with pytest.raises(DataFormatError, match=":1:"):
        load_dataset(path, space)


def test_load_rejects_ragged_input(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(
        tmp_path,
        ['{"id": 0, "x": [1, 2], "y": 1}', '{"id": 1, "x": [[1], [2]], "y": 0}'],
    )
    with pytest.raises(DataFormatError, match=":2:"):
        load_dataset(path, space)


def test_load_rejects_bad_json_with_line_number(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(tmp_path, ['{"id": 0, "x": [1, 2], "y": 1}', "{broken"])
    with pytest.raises(DataFormatError, match=":2:"):
        load_dataset(path, space)


def test_load_rejects_id_gaps(tmp_path):
    space = MulticlassSpace(2, 2)
    path = _write(
        tmp_path,
        ['{"id": 0, "x": [1, 2], "y": 1}', '{"id": 2, "x": [0, 0], "y": 0}'],
    )
    with pytest.raises(DataFormatError, match="contiguous"):
        load_dataset(path, space)


def test_load_chain_records(tmp_path):
    space = ChainSequenceSpace(2, 2)
    path = _write(
        tmp_path,
        [
            '{"id": 0, "x": [[1, 0], [0, 1]], "y": [0, 1]}',
            '{"id": 1, "x": [[1, 1]], "y": null}',
        ],
    )
    ds = load_dataset(path, space)
    assert ds.points[0].y == (0, 1)
    assert ds.points[1].y is None


def test_load_chain_rejects_length_mismatch(tmp_path):
    space = ChainSequenceSpace(2, 2)
    path = _write(tmp_path, ['{"id": 0, "x": [[1, 0], [0, 1]], "y": [0, 1, 1]}'])
    with pytest.raises(DataFormatError, match="not valid for this input"):
        load_dataset(path, space)


def test_round_trip_multiclass(tmp_path):
    space = MulticlassSpace(8, 4)
    ds = synth_blobs(classes=8, per_class=5, dim=4, spread=0.3, seed=2)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path, space)
    back = load_dataset(path, space)
    assert len(back.points) == len(ds.points)
    for a, b in zip(ds.points, back.points):
        assert a.id == b.id and a.y == b.y
        assert np.array_equal(a.x, b.x)


def test_round_trip_chains(tmp_path):
    space = ChainSequenceSpace(3, 2)
    ds = synth_chains(3, (2, 4), count=12, dim=2, seed=3)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path, space)
    back = load_dataset(path, space)
    for a, b in zip(ds.points, back.points):
        assert a.y == b.y
        assert np.array_equal(a.x, b.x)


def test_save_is_byte_deterministic(tmp_path):
    space = MulticlassSpace(3, 3)
    ds = synth_blobs(classes=3, per_class=4, dim=3, spread=0.5, seed=4)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1, space)
    save_dataset(ds, p2, space)
    assert p1.read_bytes() == p2.read_bytes()


# --- taxonomy files ------------------------------------------------------------


def test_taxonomy_round_trip(tmp_path):
    tree = three_level_taxonomy()
    path = tmp_path / "tree.json"
    save_taxonomy(tree, path)
    back = load_taxonomy(path)
    assert back.parents == tree.parents
    assert back.names == tree.names


def test_taxonomy_rejects_multiple_roots(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"nodes": [
        {"id": 0, "parent": None, "name": "r1"},
        {"id": 1, "parent": None, "name": "r2"},
    ]}))
    with pytest.raises(DataFormatError, match="root"):
        load_taxonomy(path)


def test_taxonomy_rejects_gapped_ids(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"nodes": [
        {"id": 0, "parent": None},
        {"id": 2, "parent": 0},
    ]}))
    with pytest.raises(DataFormatError, match="contiguous"):
        load_taxonomy(path)


# --- generators ----------------------------------------------------------------


def test_blobs_shape_and_balance():
    ds = synth_blobs(classes=8, per_class=50, dim=5, spread=0.4, seed=0)
    assert len(ds.points) == 400
    counts = {}
    for p in ds.points:
        counts[p.y] = counts.get(p.y, 0) + 1
    assert counts == {k: 50 for k in range(8)}


def test_blobs_seed_determinism(tmp_path):
    space = MulticlassSpace(4, 3)
    a = synth_blobs(4, 6, 3, 0.5, seed=9)
    b = synth_blobs(4, 6, 3, 0.5, seed=9)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(a, pa, space)
    save_dataset(b, pb, space)
    assert pa.read_bytes() == pb.read_bytes()


def test_blobs_zero_spread_leaves_pure_centroids():
    ds = synth_blobs(classes=4, per_class=5, dim=3, spread=0.0, seed=1)
    centroids = {}
    for p in ds.points:
        centroids.setdefault(p.y, p.x)
    for p in ds.points:
        dists = {k: float(np.sum((p.x - c) ** 2)) for k, c in centroids.items()}
        assert min(dists, key=dists.get) == p.y


def test_blobs_rejects_degenerate_parameters():
    with pytest.raises(ContractViolation):
        synth_blobs(1, 5, 3, 0.5, seed=0)
    with pytest.raises(ContractViolation):
        synth_blobs(3, 5, 1, 0.5, seed=0)


def test_taxonomy_blobs_counts_and_labels():
    tree = three_level_taxonomy()
    ds = synth_taxonomy_blobs(tree, per_leaf=10, dim=4, spread=0.2, seed=2)
    assert len(ds.points) == 150
    assert {p.y for p in ds.points} == set(tree.leaves)


def test_taxonomy_blob_centers_respect_tree_metric():
    tree = three_level_taxonomy()
    centers = taxonomy_leaf_centers(tree, dim=4)
    sibling_max = 0.0
    cross_min = np.inf
    for a in tree.leaves:
        for b in tree.leaves:
            if a >= b:
                continue
            dist = float(np.linalg.norm(centers[a] - centers[b]))
            if tree.parents[a] == tree.parents[b]:
                sibling_max = max(sibling_max, dist)
            else:
                cross_min = min(cross_min, dist)
    assert sibling_max < cross_min


def test_taxonomy_blobs_seed_determinism():
    tree = three_level_taxonomy()
    a = synth_taxonomy_blobs(tree, 3, 3, 0.3, seed=7)
    b = synth_taxonomy_blobs(tree, 3, 3, 0.3, seed=7)
    assert all(np.array_equal(p.x, q.x) for p, q in zip(a.points, b.points))


def test_chains_counts_and_length_bounds():
    ds = synth_chains(2, (4, 6), count=100, dim=3, seed=6)
    assert len(ds.points) == 100
    lengths = {len(p.y) for p in ds.points}
    assert lengths <= {4, 5, 6}
    assert len(lengths) > 1  # the range is actually exercised
    for p in ds.points:
        assert p.x.shape == (len(p.y), 3)


def test_chains_seed_determinism():
    a = synth_chains(3, (2, 5), count=15, dim=2, seed=8)
    b = synth_chains(3, (2, 5), count=15, dim=2, seed=8)
    for p, q in zip(a.points, b.points):
        assert p.y == q.y
        assert np.array_equal(p.x, q.x)


def _choice_chain_labels(num_labels, length_range, count, dim, seed):
    """The labels of synth_chains drawn the way it once did, one
    ``Generator.choice(p=row)`` call per label of its sticky matrix."""
    transition = np.full((num_labels, num_labels), 0.4 / (num_labels - 1))
    np.fill_diagonal(transition, 0.6)
    rng = np.random.default_rng((seed, data_io._SEED_TAG_CHAINS))
    lo, hi = length_range
    out = []
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        labels = [int(rng.integers(num_labels))]
        for _ in range(length - 1):
            labels.append(int(rng.choice(num_labels, p=transition[labels[-1]])))
        rng.standard_normal((length, dim))
        out.append(tuple(labels))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_labels_equal_generator_choice_draws(seed):
    ds = synth_chains(4, (1, 7), count=40, dim=2, seed=seed)
    assert ds.outputs == _choice_chain_labels(4, (1, 7), 40, 2, seed)


# --- folds and masking ------------------------------------------------------------


def test_folds_partition_with_balanced_sizes():
    ds = synth_blobs(4, 11, 3, 0.5, seed=3)  # 44 points
    plan = make_folds(ds, seed=1)
    sizes = [plan.fold_of.count(f) for f in range(10)]
    assert sum(sizes) == 44
    assert max(sizes) - min(sizes) <= 1


def test_folds_require_ten_points():
    ds = synth_blobs(2, 4, 2, 0.5, seed=0)  # 8 points
    with pytest.raises(ContractViolation):
        make_folds(ds, seed=0)


def test_mask_rotation_covers_every_fold_once():
    ds = synth_blobs(4, 10, 3, 0.5, seed=4)
    plan = make_folds(ds, seed=2)
    seen_test_sizes = 0
    for run in range(10):
        split = mask_labels(ds, plan, run)
        seen_test_sizes += len(split.test.points)
        assert len(split.train.points) + len(split.test.points) == 40
    assert seen_test_sizes == 40  # each point is in the test fold exactly once


def test_mask_labeled_fraction_is_two_ninths():
    ds = synth_blobs(8, 45, 4, 0.5, seed=5)  # 360 points, folds of 36
    plan = make_folds(ds, seed=3)
    for run in range(10):
        split = mask_labels(ds, plan, run)
        labeled = sum(1 for p in split.train.points if p.y is not None)
        assert labeled / len(split.train.points) == pytest.approx(2 / 9, abs=0.01)


def test_mask_preserves_inputs_and_carries_truth():
    ds = synth_blobs(4, 10, 3, 0.5, seed=6)
    plan = make_folds(ds, seed=4)
    split = mask_labels(ds, plan, 0)
    originals = {tuple(np.round(p.x, 12)): p.y for p in ds.points}
    for p in split.train.points:
        key = tuple(np.round(p.x, 12))
        assert key in originals
        if p.y is None:
            assert split.masked_truth[p.id] == originals[key]
        else:
            assert p.y == originals[key]
    for p in split.test.points:
        assert p.y is not None


def test_mask_labeled_folds_fixed_per_run():
    ds = synth_blobs(4, 10, 3, 0.5, seed=7)
    plan_a = make_folds(ds, seed=5)
    plan_b = make_folds(ds, seed=5)
    assert plan_a.labeled_folds == plan_b.labeled_folds
    for run, pair in enumerate(plan_a.labeled_folds):
        assert len(pair) == 2
        assert run not in pair
