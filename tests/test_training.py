"""Dataset ingestion, partitioning, gradients, adversaries, evaluation."""
import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from auditfl import protocol, run_training, training
from auditfl.cli import write_metrics_csv
from auditfl.fixedpoint import FixedPointOverflowError, FpVector
from auditfl.protocol import pretrain
from auditfl.randomness import derive_seed, prg
from auditfl.training import (
    FORWARD_BLOCK,
    RENDER_ROWS,
    AdversarySpec,
    Architecture,
    Dataset,
    DatasetError,
    corrupt_gradient,
    corrupt_shard,
    _forward,
    _layers,
    evaluate,
    flip_labels,
    init_params,
    load_idx,
    local_gradient,
    local_gradients,
    loss_and_grad,
    make_synthetic_corpus,
    participants_per_group,
    partition,
    write_idx,
)
from util import make_dataset, small_config


def features(ds: Dataset) -> np.ndarray:
    """Every feature row of ds as float32: float32(v) / divisor in float32."""
    return np.divide(ds.stored(), ds.divisor, dtype=np.float32)


@pytest.fixture(scope="module")
def idx_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    paths = make_synthetic_corpus(root, seed=99, n_train=600, n_test=120, side=6,
                                  n_classes=4)
    return paths


class TestIdxIO:
    def test_roundtrip(self, tmp_path):
        imgs = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        labs = np.array([1, 0], dtype=np.uint8)
        write_idx(imgs, labs, tmp_path / "im", tmp_path / "lb")
        ds = load_idx(tmp_path / "im", tmp_path / "lb", n_classes=2)
        assert len(ds) == 2 and ds.n_features == 9
        assert ds.features.dtype == np.uint8
        assert np.array_equal(ds.features, imgs.reshape(2, 9))
        assert np.allclose(features(ds)[0] * 255, np.arange(9))
        assert ds.labels.tolist() == [1, 0]

    def test_every_pixel_value_scales_like_the_copying_formula(self, tmp_path):
        # features are the bits of `astype(float32) / 255.0`, as when the
        # whole matrix was scaled at load time
        imgs = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        write_idx(imgs, np.zeros(1, np.uint8), tmp_path / "im", tmp_path / "lb")
        ds = load_idx(tmp_path / "im", tmp_path / "lb", n_classes=2)
        old = imgs.reshape(1, 256).astype(np.float32) / 255.0
        assert ds.features.dtype == np.uint8
        X = features(ds)
        assert X.dtype == old.dtype == np.float32
        assert np.array_equal(X.view(np.uint32), old.view(np.uint32))

    def test_corpus_loads(self, idx_corpus):
        ds = load_idx(idx_corpus["train_images"], idx_corpus["train_labels"], 4)
        assert len(ds) == 600 and ds.n_features == 36
        assert ds.features.dtype == np.uint8
        X = features(ds)
        assert 0.0 <= X.min() and X.max() <= 1.0 and X.max() > 0.0

    def test_holds_the_pixels_once(self, tmp_path):
        # the uint8 pixels, and at the peak the read buffer they are copied
        # out of; a float32 matrix made it 4x held and 5x at the peak
        imgs = (prg(derive_seed(4000, "idx-pixels"), 4000 * 784 // 8)
                .view(np.uint8).reshape(4000, 28, 28))
        write_idx(imgs, np.zeros(4000, np.uint8), tmp_path / "im", tmp_path / "lb")
        tracemalloc.start()
        try:
            ds = load_idx(tmp_path / "im", tmp_path / "lb")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.features, imgs.reshape(4000, 784))
        assert held <= 1.1 * imgs.nbytes and peak <= 2.1 * imgs.nbytes

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        lp = tmp_path / "lb"
        lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(DatasetError, match="bad magic"):
            load_idx(p, lp)

    def test_truncated_names_expected_length(self, tmp_path, idx_corpus):
        data = idx_corpus["train_images"].read_bytes()
        p = tmp_path / "trunc"
        p.write_bytes(data[:-10])
        with pytest.raises(DatasetError, match="expected"):
            load_idx(p, idx_corpus["train_labels"])

    def test_count_mismatch(self, tmp_path):
        write_idx(np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8),
                  tmp_path / "im", tmp_path / "lb3")
        write_idx(np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8),
                  tmp_path / "im2", tmp_path / "lb2")
        with pytest.raises(DatasetError, match="count"):
            load_idx(tmp_path / "im", tmp_path / "lb2")

    def test_out_of_range_labels_rejected(self, tmp_path):
        write_idx(np.zeros((2, 2, 2), np.uint8), np.array([0, 11], np.uint8),
                  tmp_path / "im", tmp_path / "lb")
        with pytest.raises(DatasetError, match="label 11"):
            load_idx(tmp_path / "im", tmp_path / "lb", n_classes=10)


class TestSyntheticCorpus:
    # SHA-256 of the four IDX files, pinned when rows were first rendered in
    # blocks (the third before streams were drawn a block at a time): blocks,
    # in-place scaling and streamed draws must leave every byte as it was.
    # The second and third corpora span more than one RENDER_ROWS block.
    PINNED = {
        (7, 300, 100, 10): {
            "test_images": "d69c5524bc1a27ccdea3574daa148ffc0f4e11e5dc46a14ada29cda4055a0c4d",
            "test_labels": "92ec9ca7c6fc6f24707cbe94537609d8d2780578a007697767a007fe620cb3cd",
            "train_images": "8649c9163eb5fb49ffac1c075aff3a92c2d6b86ba40c94011d441c4412dcbb83",
            "train_labels": "ea75b6635b1cd36df09cbc363dca62d04c79bfa0fe5d2d4e37e19c21f6297e49",
        },
        (11, 1100, 257, 28): {
            "test_images": "406320fb1ece2d9cbe7bc60514182f5539321efa38ca3b04b3277ce14c61bb61",
            "test_labels": "5deddeb425e70a6a2622934550646ce0307a014090d8b59f44342e6c0fbf51ad",
            "train_images": "47c4e5a8baf469c72c3f9998b4b285a0c99ffe5c78c55869ce6e9cf20318cdf0",
            "train_labels": "1fc0b03444f6d1d437cb111ec43ce992aff4e61ba05a79dde29d643bac8440e3",
        },
        (13, 2100, 1030, 8): {
            "test_images": "8f218cd7f51cc7483e28175fcfdede2e9a66e1822a9f02dc6e75d9e5aeef3b54",
            "test_labels": "03bd688e658816a1065a0651fa86bee8e3c3590fbf7eb4495421f9bc9cfa62c7",
            "train_images": "1d05b8576b248b737632a5d12938d732a37be55a4f6c218222bd9c3197517341",
            "train_labels": "5b19ccde57ee872336fc09ad5e31f8aef27b5bb116819cb8275d12aaa9153c35",
        },
    }

    @pytest.mark.parametrize("seed, n_train, n_test, side", sorted(PINNED))
    def test_idx_bytes_pinned(self, tmp_path, seed, n_train, n_test, side):
        paths = make_synthetic_corpus(tmp_path, seed, n_train=n_train, n_test=n_test,
                                      side=side)
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
        assert digests == self.PINNED[(seed, n_train, n_test, side)]

    def test_idx_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        # 7-row blocks start the per-sample streams at word offsets that are
        # not multiples of Philox's 4-word output
        monkeypatch.setattr(training, "RENDER_ROWS", 7)
        self.test_idx_bytes_pinned(tmp_path, 13, 2100, 1030, 8)

    def test_peak_memory_is_a_few_image_arrays(self, tmp_path):
        # one block's float32 rows, uint8 rows and streams, about 12 bytes
        # per pixel of a block at side 28, and not the images, which are
        # written a block at a time; holding them made it 13.6 MB here,
        # drawing every stream whole 25 MB
        n, dim = 6000, 28 * 28
        tracemalloc.start()
        try:
            make_synthetic_corpus(tmp_path, 5, n_train=n, n_test=10, side=28)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * RENDER_ROWS * dim


class TestPartition:
    def test_21_way_of_60000(self):
        ds = Dataset(features=np.zeros((60000, 2), np.float32),
                     labels=np.zeros(60000, np.int64), n_classes=10)
        parts = partition(ds, 21, seed=1)
        sizes = sorted(len(p) for p in parts)
        assert set(sizes) == {2857, 2858}
        assert sum(sizes) == 60000

    def test_disjoint_cover(self):
        # the shards' rows cover 0..n-1 exactly once, and each shard's
        # samples and labels are its rows of the parent
        n = 500
        ds = Dataset(features=np.arange(n, dtype=np.float32)[:, None] / n,
                     labels=np.arange(n, dtype=np.int64) % 2, n_classes=2)
        parts = partition(ds, 7, seed=3)
        rows = np.concatenate([p.rows for p in parts])
        assert np.array_equal(np.sort(rows), np.arange(n))
        for p in parts:
            assert np.array_equal(features(p), ds.features[p.rows])
            assert np.array_equal(p.labels, ds.labels[p.rows])

    def test_two_parts_of_four(self):
        ds = Dataset(features=np.zeros((4, 1), np.float32),
                     labels=np.zeros(4, np.int64), n_classes=2)
        parts = partition(ds, 2, seed=1)
        assert [len(p) for p in parts] == [2, 2]

    def test_deterministic(self):
        ds = make_dataset(1, 100, 3, 2)
        a = partition(ds, 5, seed=9)
        b = partition(ds, 5, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rows, pb.rows)
            assert np.array_equal(pa.labels, pb.labels)

    def test_too_few_samples(self):
        ds = Dataset(features=np.zeros((3, 1), np.float32),
                     labels=np.zeros(3, np.int64), n_classes=2)
        with pytest.raises(ValueError):
            partition(ds, 4, seed=1)

    def test_allocates_no_feature_rows(self):
        ds = make_dataset(6, 3000, 784, 10)
        tracemalloc.start()
        try:
            parts = partition(ds, 21, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(p.features is ds.features for p in parts)
        # indices and labels only: 3000 rows cost 24 kB each, the features 9.4 MB
        assert peak < ds.features.nbytes // 50

    def test_shard_of_a_shard_indexes_the_parent(self):
        ds = make_dataset(7, 200, 3, 2)
        inner = partition(partition(ds, 2, seed=1)[1], 3, seed=2)
        for p in inner:
            assert p.features is ds.features
            assert np.array_equal(p.labels, ds.labels[p.rows])

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    def test_features_must_be_uint8_or_float32(self, dtype):
        # only those two dtypes have a divisor that maps them to features
        with pytest.raises(DatasetError, match="uint8 or float32"):
            Dataset(features=np.zeros((2, 1), dtype), labels=np.zeros(2, np.int64),
                    n_classes=2)

    def test_rows_and_labels_must_agree(self):
        with pytest.raises(DatasetError, match="3 samples but 2 labels"):
            Dataset(features=np.zeros((5, 1), np.float32),
                    labels=np.zeros(2, np.int64), n_classes=2,
                    rows=np.arange(3))


def copied(shard: Dataset) -> Dataset:
    """The shard with its own copy of its feature rows, as shards once were."""
    return Dataset(features=features(shard), labels=shard.labels.copy(),
                   n_classes=shard.n_classes)


class TestRowShards:
    @pytest.mark.parametrize("attack", ["honest", "label_flip"])
    def test_shard_and_copy_draw_equal_batches(self, attack):
        ds = make_dataset(8, 400, 5, 4)
        spec = AdversarySpec(attack)
        for shard in partition(ds, 4, seed=5):
            a = corrupt_shard(shard, spec, seed=11)
            b = corrupt_shard(copied(shard), spec, seed=11)
            assert np.array_equal(a.labels, b.labels)
            arch = Architecture(5, 4, hidden=3)
            w = init_params(arch, 2)
            for seed in range(5):
                assert local_gradient(arch, w, a, 32, seed) == local_gradient(arch, w, b, 32, seed)

    def test_label_flip_keeps_rows_and_features(self):
        shard = partition(make_dataset(9, 100, 2, 3), 2, seed=1)[1]
        flipped = flip_labels(shard, seed=4)
        assert flipped.features is shard.features
        assert flipped.rows is shard.rows
        assert np.all(flipped.labels != shard.labels)

    def test_evaluate_on_a_shard_is_evaluate_on_its_copy(self):
        shard = partition(make_dataset(10, 300, 6, 3), 3, seed=2)[2]
        arch = Architecture(6, 3, hidden=4)
        w = init_params(arch, 5)
        assert evaluate(arch, w, shard) == evaluate(arch, w, copied(shard))


def finite_difference_gradient(arch, params, X, y, eps=1e-5):
    """Central-difference oracle for the analytic gradient."""
    base = params.astype(np.float64).copy()
    out = np.zeros_like(base)
    for k in range(base.size):
        up = base.copy()
        up[k] += eps
        down = base.copy()
        down[k] -= eps
        lu, _ = loss_and_grad(arch, up, X[None], y[None])
        ld, _ = loss_and_grad(arch, down, X[None], y[None])
        out[k] = (lu[0] - ld[0]) / (2 * eps)
    return out


class TestGradients:
    def test_zero_weight_closed_form(self):
        # at zero parameters the softmax is uniform; the gradient has the
        # closed form X^T (1/C - onehot) / B
        arch = Architecture(n_features=3, n_classes=2)
        X = np.array([[0.2, 0.4, 0.8], [0.9, 0.1, 0.3]])
        y = np.array([0, 1])
        _, (grad,) = loss_and_grad(arch, np.zeros(arch.param_count), X[None], y[None])
        onehot = np.eye(2)[y]
        delta = (np.full((2, 2), 0.5) - onehot) / 2
        expected_W = X.T @ (-delta * -1)  # = X^T delta
        expected = np.concatenate([(X.T @ delta).ravel(), delta.sum(axis=0)])
        assert np.allclose(grad, expected, atol=1e-12)
        assert expected_W.shape == (3, 2)

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_matches_finite_differences(self, hidden):
        arch = Architecture(n_features=2, n_classes=2, hidden=hidden)
        assert arch.param_count <= 20
        words = prg(derive_seed(hidden, "fd"), 8 + 20 * arch.param_count)
        vals = (words % np.uint64(2001)).astype(np.float64) / 1000.0 - 1.0
        X = vals[:8].reshape(4, 2) * 0.5 + 0.5
        y = np.array([0, 1, 0, 1])
        for trial in range(20):
            params = vals[8 + trial * arch.param_count :
                          8 + (trial + 1) * arch.param_count] * 0.7
            # keep clear of relu kinks for the mlp case
            _, (analytic,) = loss_and_grad(arch, params, X[None], y[None])
            fd = finite_difference_gradient(arch, params, X, y)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_local_gradient_deterministic(self):
        ds = make_dataset(2, 64, 4, 3)
        arch = Architecture(4, 3)
        w = init_params(arch, 1)
        g1, l1 = local_gradient(arch, w, ds, 16, seed=77)
        g2, l2 = local_gradient(arch, w, ds, 16, seed=77)
        assert g1 == g2 and l1 == l2

    def test_batch_exceeding_shard_rejected(self):
        ds = make_dataset(3, 10, 2, 2)
        arch = Architecture(2, 2)
        with pytest.raises(ValueError, match="batch 11 exceeds shard size 10"):
            local_gradient(arch, init_params(arch, 1), ds, 11, seed=1)


def one_batch_loss_and_grad(arch, params, X, y):
    """The loss and gradient of one minibatch as 2-d products, one per
    layer and direction: the pass each participant made on its own before
    minibatches were stacked."""
    n = X.shape[0]
    layers = _layers(arch, params)
    inputs = [X.astype(np.float64)]
    out = np.dot(inputs[0], layers[0][0]) + layers[0][1]
    for W, b in layers[1:]:
        inputs.append(np.maximum(out, 0.0))
        out = inputs[-1] @ W + b
    e = np.exp(out - out.max(axis=1, keepdims=True))
    delta = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(delta[np.arange(n), y] + 1e-300).mean())
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        a = inputs[k]
        grads[:0] = [(a.T @ delta).ravel(), delta.sum(axis=0)]
        if k > 0:
            delta = (delta @ layers[k][0].T) * (a > 0.0)
    return loss, np.concatenate(grads)


@pytest.fixture(scope="module")
def stacking_shards(tmp_path_factory):
    """(uint8 shards, their float32 twins): five participant shards of 120
    samples at 100 features (the many-small benchmark's shape), the second
    label-flipped."""
    paths = make_synthetic_corpus(tmp_path_factory.mktemp("stack"), 31, n_train=720,
                                  n_test=10, side=10)
    stored = load_idx(paths["train_images"], paths["train_labels"])
    twin = Dataset(features(stored), stored.labels, stored.n_classes)
    out = []
    for ds in (stored, twin):
        shards = partition(ds, 6, seed=4)[1:]
        shards[1] = corrupt_shard(shards[1], AdversarySpec("label_flip"), seed=8)
        out.append(shards)
    return out


def seeded_model(arch, seed):
    """A model at the default scale with seeded weights in [-0.25, 0.25]."""
    words = prg(derive_seed(seed, arch.hidden, "stack-model"), arch.param_count)
    return FpVector.from_floats(
        ((words % np.uint64(2001)).astype(np.float64) / 1000.0 - 1.0) * 0.25)


def drawn_batch(shard, batch, seed):
    """The features and labels of the minibatch that `seed` draws from shard."""
    idx = (prg(seed, batch) % np.uint64(len(shard))).astype(np.int64)
    return np.divide(shard.stored(idx), shard.divisor, dtype=np.float32), shard.labels[idx]


class TestStackedGradients:
    """`local_gradients` differentiates a stack of minibatches in one pass;
    every shard's gradient and loss keep the bits of its one-shard call, and
    those are the bits of a plain per-minibatch pass, at any group size."""

    @pytest.mark.parametrize("stored", ["uint8", "float32"])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("hidden", [0, 1, 8, 64])
    def test_every_group_gives_the_one_shard_bits(self, stacking_shards, stored,
                                                  batch, hidden):
        shards = stacking_shards[stored == "float32"]
        arch = Architecture(100, 10, hidden)
        w = seeded_model(arch, batch)
        seeds = [derive_seed(batch, hidden, "stack", j) for j in range(len(shards))]
        singles = [local_gradient(arch, w, s, batch, seed) for s, seed in zip(shards, seeds)]
        for (g, loss), shard, seed in zip(singles, shards, seeds):
            expected_loss, grad = one_batch_loss_and_grad(
                arch, w.to_floats(), *drawn_batch(shard, batch, seed))
            assert g == FpVector.from_floats(grad, w.scale)
            assert loss.hex() == expected_loss.hex()
        for size in range(1, len(shards) + 1):
            grouped = []
            for lo in range(0, len(shards), size):
                grouped += local_gradients(arch, w, shards[lo : lo + size], batch,
                                           seeds[lo : lo + size])
            assert [g for g, _ in grouped] == [g for g, _ in singles]
            assert [l.hex() for _, l in grouped] == [l.hex() for _, l in singles]

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("hidden", [0, 1, 8, 64])
    def test_every_stack_gives_the_one_minibatch_float_bits(self, stacking_shards,
                                                            batch, hidden):
        # before quantization, which would hide a difference in the last
        # bits: one output (hidden 1) is where numpy sums a column pairwise
        shards = stacking_shards[0]
        arch = Architecture(100, 10, hidden)
        w = seeded_model(arch, batch).to_floats()
        drawn = [drawn_batch(s, batch, derive_seed(batch, "float", j))
                 for j, s in enumerate(shards)]
        expected = [one_batch_loss_and_grad(arch, w, X, y) for X, y in drawn]
        for size in range(1, len(shards) + 1):
            X = np.stack([X for X, _ in drawn[:size]])
            losses, grads = loss_and_grad(arch, w, X, np.stack([y for _, y in drawn[:size]]))
            for j in range(size):
                assert losses[j].hex() == expected[j][0].hex()
                assert grads[j].tobytes() == expected[j][1].tobytes()

    @staticmethod
    def scaled(shards, factors):
        """The float32 shards over one copy of their feature matrix in which
        each shard's rows are multiplied by its factor."""
        X = shards[0].features.copy()
        for shard, factor in zip(shards, factors):
            X[shard.rows] *= np.float32(factor)
        return [dataclasses.replace(shard, features=X) for shard in shards]

    def test_a_group_past_the_fast_path_gives_the_one_shard_bits(self, stacking_shards):
        # features of 1e11 give gradient raws past 2^52: every gradient of
        # the group is then quantized on its own, and still fits int64
        shards = self.scaled(stacking_shards[1][:3], [1, 1e11, 1])
        arch = Architecture(100, 10)
        w = seeded_model(arch, 2)
        grouped = local_gradients(arch, w, shards, 16, [5, 6, 7])
        assert np.abs(grouped[1][0].raw).max() > 2**52
        assert grouped == [local_gradient(arch, w, s, 16, seed)
                           for s, seed in zip(shards, [5, 6, 7])]

    def test_the_first_overflowing_gradient_raises_its_one_shard_error(
        self, stacking_shards
    ):
        # shard 1 overflows the raw range, and shard 2 would overflow too
        shards = self.scaled(stacking_shards[1][:3], [1, 1e16, 1e17])
        arch = Architecture(100, 10)
        w = seeded_model(arch, 3)
        with pytest.raises(FixedPointOverflowError) as alone:
            local_gradient(arch, w, shards[1], 16, 6)
        with pytest.raises(FixedPointOverflowError) as grouped:
            local_gradients(arch, w, shards, 16, [5, 6, 7])
        assert "exceeds the signed 64-bit raw range" in str(alone.value)
        assert str(grouped.value) == str(alone.value)

    def test_the_dequantized_stack_is_the_float32_features_widened(
        self, stacking_shards, monkeypatch
    ):
        # the stored uint8 rows reach the pass as float32(v) / 255 in
        # float32, widened to float64, as the features of load time were
        shards = stacking_shards[0][:2]
        passed = []

        def capture(arch, params, X, y):
            passed.append((X.copy(), y.copy()))
            return loss_and_grad(arch, params, X, y)

        monkeypatch.setattr(training, "loss_and_grad", capture)
        arch = Architecture(100, 10)
        local_gradients(arch, init_params(arch, 1), shards, 9, [3, 4])
        (X, y), = passed
        assert X.dtype == np.float64 and X.shape == (2, 9, 100)
        for j, (shard, seed) in enumerate(zip(shards, [3, 4])):
            idx = (prg(seed, 9) % np.uint64(len(shard))).astype(np.int64)
            old = shard.stored(idx).astype(np.float32) / np.float32(255.0)
            assert np.array_equal(X[j], old.astype(np.float64))
            assert np.array_equal(y[j], shard.labels[idx])

    def test_one_pass_and_one_model_conversion_per_group(self, stacking_shards,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(training, "loss_and_grad", lambda *a: calls.append("pass")
                            or loss_and_grad(*a))
        to_floats = FpVector.to_floats
        monkeypatch.setattr(FpVector, "to_floats", lambda self, *a: calls.append(
            "convert") or to_floats(self, *a))
        arch = Architecture(100, 10)
        local_gradients(arch, init_params(arch, 1), stacking_shards[0], 8, range(5))
        assert calls == ["convert", "pass"]

    def test_the_shards_of_a_group_share_their_features(self, stacking_shards):
        uint8, float32 = stacking_shards
        arch = Architecture(100, 10)
        with pytest.raises(ValueError, match="share one feature matrix"):
            local_gradients(arch, init_params(arch, 1), [uint8[0], float32[1]], 8, [1, 2])

    def test_group_sizes(self):
        # one 64-row minibatch at 784 features, ten at 100 (the benchmark
        # workloads' shapes); never fewer than one
        assert participants_per_group(784, 64) == 1
        assert participants_per_group(100, 64) == 10
        assert participants_per_group(16, 64) == 64
        assert participants_per_group(784, 1000) == 1

    @pytest.mark.parametrize("hidden", [0, 1, 8])
    def test_run_bytes_do_not_depend_on_the_group_size(self, tmp_path, monkeypatch,
                                                       hidden):
        train, test = make_dataset(3, 600, 16, 4), make_dataset(4, 150, 16, 4)
        cfg = small_config(participants=5, rounds=2, hidden=hidden, metrics_every=1,
                           malicious={2: AdversarySpec("sign_flip"),
                                      4: AdversarySpec("label_flip")})
        digests, passes, masked = set(), [], []
        monkeypatch.setattr(training, "loss_and_grad",
                            lambda *a: passes.append(len(a[3])) or loss_and_grad(*a))
        masked_forms = protocol.masked_forms
        monkeypatch.setattr(protocol, "masked_forms",
                            lambda *a: masked.append(len(a[1])) or masked_forms(*a))
        for group in (1, 2, 3, 5):
            monkeypatch.setattr(training, "GROUP_FEATURES", group * 64 * 16)
            assert participants_per_group(16, 64) == group
            path = tmp_path / f"{group}.bin"
            passes.clear()
            masked.clear()
            result = run_training(cfg, train, test, ledger_path=path)
            # per round, one pass per group of participants and the server's;
            # the participants mask each group as one stack, and the server
            # checks the same groups
            groups = [min(group, 5 - lo) for lo in range(0, 5, group)]
            assert passes == (groups + [1]) * cfg.rounds
            assert masked == (groups + groups) * cfg.rounds
            write_metrics_csv(tmp_path / f"{group}.csv", result.metrics)
            digests.add(tuple(hashlib.sha256((tmp_path / f"{group}.{ext}").read_bytes())
                              .hexdigest() for ext in ("bin", "csv")))
        assert len(digests) == 1


class TestAdversaries:
    def test_honest_identity(self):
        g = FpVector(np.array([1, -2, 3]), 20)
        assert corrupt_gradient(g, AdversarySpec("honest")) == g

    def test_sign_flip_antiparallel(self):
        from auditfl.fixedpoint import dot

        g = FpVector(np.array([5, -7, 11]), 20)
        flipped = corrupt_gradient(g, AdversarySpec("sign_flip"))
        assert dot(g, flipped) == -(25 + 49 + 121)

    def test_scale_amplify(self):
        g = FpVector(np.array([2, -3]), 20)
        out = corrupt_gradient(g, AdversarySpec("scale_amplify", factor=10))
        assert out.raw.tolist() == [20, -30]

    def test_amplify_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            AdversarySpec("scale_amplify", factor=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AdversarySpec("melt_gradients")

    def test_label_flip_never_keeps_label(self):
        ds = make_dataset(4, 300, 2, 5)
        flipped = flip_labels(ds, seed=9)
        assert np.all(flipped.labels != ds.labels)
        assert np.all(flipped.labels < 5)

    def test_label_flip_applied_once_via_corrupt_shard(self):
        ds = make_dataset(5, 100, 2, 3)
        out = corrupt_shard(ds, AdversarySpec("label_flip"), seed=3)
        assert np.all(out.labels != ds.labels)
        again = corrupt_shard(ds, AdversarySpec("label_flip"), seed=3)
        assert np.array_equal(out.labels, again.labels)


class TestEvaluate:
    @pytest.mark.parametrize("hidden", [0, 3])
    def test_constant_class_predictor_exact_count(self, hidden):
        # bias strongly favoring class 0 on a known label distribution; with
        # zero hidden weights the MLP's logits are its output biases too
        arch = Architecture(n_features=2, n_classes=4, hidden=hidden)
        params = np.zeros(arch.param_count)
        params[-4] = 10.0  # output bias of class 0
        labels = np.array([0, 1, 2, 3] * 25)
        ds = Dataset(features=np.random.default_rng(0).random((100, 2)).astype(np.float32),
                     labels=labels, n_classes=4)
        acc = evaluate(arch, FpVector.from_floats(params, 20), ds)
        assert acc == 0.25

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_accuracy_is_the_argmax_accuracy_of_the_training_logits(self, hidden):
        # evaluation and training compute one model: the logits whose
        # cross-entropy loss_and_grad returns give evaluate's accuracy
        arch = Architecture(n_features=4, n_classes=3, hidden=hidden)
        words = prg(derive_seed(hidden, "eval-loss"), arch.param_count)
        vals = (words % np.uint64(2001)).astype(np.float64) / 1000.0 - 1.0
        params = FpVector.from_floats(vals, 20)
        ds = make_dataset(4, 50, 4, 3)
        X = features(ds).astype(np.float64)
        logits, _ = _forward(_layers(arch, params.to_floats()), X)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(len(ds)), ds.labels] + 1e-300).mean())
        assert loss_and_grad(arch, params.to_floats(), X[None], ds.labels[None])[0].tolist() == [loss]
        acc = float((logits.argmax(axis=1) == ds.labels).mean())
        assert 0.0 < acc < 1.0
        assert evaluate(arch, params, ds) == acc

    def test_loss_monotone_in_logit_magnitude(self):
        arch = Architecture(n_features=1, n_classes=2)
        X, y = np.ones((4, 1)), np.array([0, 0, 0, 0])
        losses = []
        for mag in (0.5, 2.0, 8.0):
            params = np.array([mag, -mag, mag, -mag])  # W row + biases
            losses.append(loss_and_grad(arch, params, X[None], y[None])[0][0])
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-6

    def test_empty_test_set_rejected(self):
        arch = Architecture(1, 2)
        ds = Dataset(features=np.zeros((0, 1), np.float32),
                     labels=np.zeros(0, np.int64), n_classes=2)
        with pytest.raises(ValueError):
            evaluate(arch, FpVector.zeros(arch.param_count), ds)


def one_shot_logits(arch, params, X):
    """The forward pass as one product per layer, the whole input in float64."""
    a = X.astype(np.float64)
    layers = _layers(arch, params)
    for W, b in layers[:-1]:
        a = np.maximum(a @ W + b, 0.0)
    W, b = layers[-1]
    return a @ W + b


def one_shot_evaluate(arch, params, X, y):
    logits = one_shot_logits(arch, params, X)
    return float((logits.argmax(axis=1) == y).mean())


def params_48_bits(arch, rows):
    """Seeded weights in [-0.05, 0.05) with 48 fractional bits: products of
    pixels and weights round in float64, so a change in the order of
    accumulation shows in the logit bits."""
    words = prg(derive_seed(arch.hidden, rows, "blockwise-params"), arch.param_count)
    return FpVector.from_floats(
        (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 * 0.1 - 0.05, 48
    )


def assert_float32_predicts_as_float64(arch, params, ds):
    """`evaluate`'s precision contract: its float32 forward pass predicts
    every row as the float64 forward pass of one product per layer does,
    so its accuracy is the float64 accuracy."""
    X = features(ds)
    expected = one_shot_logits(arch, params.to_floats(), X).argmax(axis=1)
    logits, _ = _forward(_layers(arch, params.to_floats(np.float32)), ds.stored(),
                         ds.divisor)
    assert logits.dtype == np.float32
    assert np.array_equal(logits.argmax(axis=1), expected)
    assert evaluate(arch, params, ds) == float((expected == ds.labels).mean())
    return expected


@pytest.fixture(scope="module")
def synthetic_split(tmp_path_factory):
    """A synthetic corpus's (train, test) datasets: 784 uint8 pixels, 2000
    test rows, so evaluate's input layer takes several blocks."""
    paths = make_synthetic_corpus(tmp_path_factory.mktemp("split"), 23,
                                  n_train=1200, n_test=2000, side=28)
    return tuple(load_idx(paths[f"{part}_images"], paths[f"{part}_labels"])
                 for part in ("train", "test"))


@pytest.fixture(scope="module")
def test_set_4000():
    # a test set of the default shape: 4000 rows of 784 pixels, 10 classes
    words = prg(derive_seed(4000, "blockwise"), 4000 * 784 // 8 + 4000)
    pixels = words[: 4000 * 784 // 8].view(np.uint8).reshape(4000, 784)
    X = pixels.astype(np.float32)
    X /= 255.0
    y = (words[4000 * 784 // 8 :] % np.uint64(10)).astype(np.int64)
    return X, y


class TestBlockwiseForward:
    # 784 inputs: blocks of at most FORWARD_BLOCK rows; 100 inputs (the
    # many-small benchmark's): fewer, longer blocks, so that none is small
    # enough for OpenBLAS's small-matrix kernel
    @pytest.mark.parametrize("features", [784, 100])
    @pytest.mark.parametrize("hidden", [0, 8, 64])
    @pytest.mark.parametrize(
        "rows", [1, FORWARD_BLOCK - 1, FORWARD_BLOCK, FORWARD_BLOCK + 1, 4000]
    )
    def test_bit_identical_to_one_shot(self, test_set_4000, features, hidden, rows):
        arch = Architecture(features, 10, hidden)
        params = params_48_bits(arch, rows)
        X, y = test_set_4000[0][:rows, :features], test_set_4000[1][:rows]
        logits, _ = _forward(_layers(arch, params.to_floats()), X)
        expected = one_shot_logits(arch, params.to_floats(), X)
        assert np.array_equal(logits.view(np.uint64), expected.view(np.uint64))
        ds = Dataset(features=X, labels=y, n_classes=10)
        assert evaluate(arch, params, ds) == one_shot_evaluate(
            arch, params.to_floats(), X, y
        )

    @pytest.mark.parametrize("features", [784, 100])
    @pytest.mark.parametrize("hidden", [0, 8, 64])
    def test_float32_predictions_of_48_bit_models(self, test_set_4000, features, hidden):
        arch = Architecture(features, 10, hidden)
        X, y = test_set_4000[0][:, :features], test_set_4000[1]
        assert_float32_predicts_as_float64(
            arch, params_48_bits(arch, 4000), Dataset(features=X, labels=y, n_classes=10)
        )

    @pytest.mark.parametrize("hidden", [0, 64])
    def test_float32_predictions_of_trained_models(self, synthetic_split, hidden):
        train, test = synthetic_split
        arch = Architecture(train.n_features, train.n_classes, hidden)
        cfg = small_config(hidden=hidden, pretrain_steps=40, eta="0.5", master_seed=hidden)
        predicted = assert_float32_predicts_as_float64(arch, pretrain(cfg, arch, train), test)
        # a model that has learnt something: its predictions are not one class
        assert (predicted == test.labels).mean() > 0.3
        assert len(np.unique(predicted)) > 2

    # float32 weights, features, activations and logits: the buffers are
    # half the float64 pass's, under an eighth of a float64 copy of the rows
    @pytest.mark.parametrize("hidden", [0, 64])
    def test_evaluate_allocates_under_a_quarter_of_a_float64_copy(
        self, test_set_4000, hidden
    ):
        X, y = test_set_4000
        ds = Dataset(features=X, labels=y, n_classes=10)
        arch = Architecture(784, 10, hidden)
        params = init_params(arch, 3)
        tracemalloc.start()
        try:
            evaluate(arch, params, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.size * 8 // 8


class TestStoredPixels:
    """A Dataset of uint8 pixels and its float32 twin (the same pixels / 255,
    divisor 1) are one dataset: every number a run computes from them agrees
    bit for bit."""

    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        # 784 inputs and 600 test rows: evaluate's input layer takes 2 or 3
        # blocks
        root = tmp_path_factory.mktemp("twins")
        paths = make_synthetic_corpus(root, 17, n_train=600, n_test=600, side=28)
        out = []
        for part in ("train", "test"):
            stored = load_idx(paths[f"{part}_images"], paths[f"{part}_labels"])
            twin = stored.features.astype(np.float32)
            twin /= np.float32(255)
            out.append((stored, Dataset(twin, stored.labels, stored.n_classes)))
        return out

    @pytest.mark.parametrize("hidden", [0, 8])
    def test_gradients_and_accuracy(self, twins, hidden):
        (train, train32), (test, test32) = twins
        assert train.features.dtype == np.uint8 and train32.divisor == 1
        arch = Architecture(train.n_features, train.n_classes, hidden)
        w = init_params(arch, 3)
        shard, shard32 = (partition(ds, 3, seed=2)[1] for ds in (train, train32))
        for seed in range(3):
            assert (local_gradient(arch, w, shard, 32, seed)
                    == local_gradient(arch, w, shard32, 32, seed))
        assert evaluate(arch, w, test) == evaluate(arch, w, test32)

    @pytest.mark.parametrize("hidden", [0, 8])
    def test_ledger_and_metrics_bytes(self, twins, tmp_path, hidden):
        (train, train32), (test, test32) = twins
        cfg = small_config(hidden=hidden, metrics_every=1, pretrain_steps=5)
        digests = []
        for name, tr, te in (("stored", train, test), ("twin", train32, test32)):
            result = run_training(cfg, tr, te, ledger_path=tmp_path / f"{name}.bin")
            write_metrics_csv(tmp_path / f"{name}.csv", result.metrics)
            digests.append([hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes())
                            .digest() for ext in ("bin", "csv")])
        assert digests[0] == digests[1]
