"""Local data handling and SGD: the ML substrate the protocol masks.

Datasets are read from IDX files (MNIST's distribution format) and keep
their pixels as the bytes they were read from; a minibatch is dequantized
when it is drawn, and an evaluation one block of rows at a time. Models are
flattened parameter vectors in fixed point. Training's forward and backward
passes run in float64 from the fixed-point snapshot and only the resulting
gradient is quantized, so training numerics stay conventional while the
protocol path stays exact. Evaluation runs the same forward pass in
float32: its accuracy feeds only the metrics.

A round's participants are differentiated in stacked groups:
`local_gradients` draws the minibatches of a group into one float64 stack
and makes one forward and backward pass, one conversion of the model to
floats and one quantization for the whole group; `local_gradient` is its
one-shard case. Each step of the pass acts on every minibatch alone (one
BLAS call per minibatch, reductions along its own rows), so every gradient
and loss is bit-identical to the one-shard pass. A group holds as many
minibatches as GROUP_FEATURES stacked features allow; the measurements
that sized it are given there. On the `many-small` benchmark config (48
participants, 100 features, seed 3) a FedAvg round takes 4.7 ms against
5.9 ms with one pass per participant (perfbench medians, README).
"""
from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fixedpoint import DEFAULT_SCALE, FpVector
from .randomness import derive_seed, prg

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
PIXEL_MAX = np.float32(255)  # an IDX pixel byte v is the feature v / 255


class DatasetError(Exception):
    """Raised when dataset files are malformed or inconsistent."""


@dataclass
class Dataset:
    """Labelled samples with features in [0, 1], stored as they were read.

    `features` holds the stored values: uint8 pixels as read from IDX files,
    or float32 features as given. The feature of stored value v is
    float32(v) / divisor in float32, with divisor 255 for uint8 and 1 for
    float32. `local_gradients` applies it to the rows of each minibatch,
    and `evaluate` to one block of rows at a time, so no float copy of the
    whole matrix is ever held.

    A loaded dataset has `rows` None: sample k is `features[k]`. A shard from
    `partition` shares its parent's feature matrix and holds only its row
    indices into it and its own labels, so splitting a training set copies
    no features and label flipping still acts on one shard.
    """

    features: np.ndarray  # (N, dim) uint8 or float32, shared by every shard of it
    labels: np.ndarray  # (n,) int64, one per sample
    n_classes: int
    rows: np.ndarray | None = None  # (n,) int64 into features; None: all N

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-d array")
        if self.features.dtype not in (np.uint8, np.float32):
            raise DatasetError(f"features must be uint8 or float32, not {self.features.dtype}")
        n = self.features.shape[0] if self.rows is None else self.rows.shape[0]
        if n != self.labels.shape[0]:
            raise DatasetError(f"{n} samples but {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def divisor(self) -> np.float32:
        return PIXEL_MAX if self.features.dtype == np.uint8 else np.float32(1)

    def stored(self, idx=slice(None)) -> np.ndarray:
        """Stored rows of samples `idx`, all of them by default: a view of a
        loaded dataset's slice, a gathered copy of a shard's rows."""
        return self.features[idx if self.rows is None else self.rows[idx]]


def _read_exact(f, n: int, path: Path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DatasetError(
            f"{path}: truncated while reading {what}: expected {n} bytes "
            f"at offset {f.tell() - len(data)}, got {len(data)}"
        )
    return data


def load_idx(images_path, labels_path, n_classes: int = 10) -> Dataset:
    """Load an IDX image/label pair; the pixels stay uint8, features v / 255."""
    images_path = Path(images_path)
    labels_path = Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, images_path, "image header")
        )
        if magic != IDX_IMAGES_MAGIC:
            raise DatasetError(
                f"{images_path}: bad magic 0x{magic:08x} at offset 0, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        pixels = _read_exact(f, count * rows * cols, images_path, "pixel data")
        if f.read(1):
            raise DatasetError(f"{images_path}: trailing bytes after pixel data")
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(
            ">II", _read_exact(f, 8, labels_path, "label header")
        )
        if magic != IDX_LABELS_MAGIC:
            raise DatasetError(
                f"{labels_path}: bad magic 0x{magic:08x} at offset 0, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        raw_labels = _read_exact(f, lcount, labels_path, "label data")
    if count != lcount:
        raise DatasetError(
            f"image count {count} != label count {lcount} "
            f"({images_path} vs {labels_path})"
        )
    # Copied out, and the read buffer freed, instead of kept as the array's
    # memory (`frombuffer` alone): glibc raises its dynamic mmap and trim
    # thresholds only when it frees a large mmapped chunk. Freeing this one
    # lets the large temporaries of every later training step reuse heap
    # memory instead of each mapping and faulting in fresh pages.
    features = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols).copy()
    del pixels
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    bad = labels >= n_classes
    if bad.any():
        k = int(np.argmax(bad))
        raise DatasetError(
            f"{labels_path}: label {labels[k]} at index {k} outside 0..{n_classes - 1}"
        )
    return Dataset(features=features, labels=labels, n_classes=n_classes)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write uint8 images (n, rows, cols) and labels to IDX files."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim == 2:
        images = images[:, :, None]
    n, rows, cols = images.shape
    write_idx_blocks([images], n, rows, cols, labels, images_path, labels_path)


def write_idx_blocks(
    blocks, n: int, rows: int, cols: int, labels, images_path, labels_path
) -> None:
    """`write_idx` of n images handed over as contiguous uint8 blocks of
    rows, in order, each written as it arrives, so the images are never
    held whole. The labels file is written last: a directory that holds it
    holds a complete images file."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        for block in blocks:
            f.write(block.data)  # not `tobytes()`, a second copy
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels.tobytes())


RENDER_ROWS = 1024  # rows per block of make_synthetic_corpus: its streams and float32 image

# the four files of an MNIST-layout directory
IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def make_synthetic_corpus(
    out_dir,
    seed: int,
    n_train: int = 22000,
    n_test: int = 4000,
    side: int = 28,
    n_classes: int = 10,
) -> dict[str, Path]:
    """Deterministic MNIST-shaped classification corpus written as IDX files.

    Images are sparse "stroke" patterns: every class activates a pixel set
    drawn from one shared pool (so classes overlap, like digits sharing
    strokes), each sample keeps a random subset at random intensity and adds
    background clutter. Class frequencies are imbalanced, which is what
    makes uniform label flipping genuinely destructive to an undefended
    average: the flipped mass systematically distorts the class priors.

    Rows are rendered RENDER_ROWS at a time into one reused float32 block,
    rounded into one reused uint8 block and written to the images file.
    Each per-sample stream is drawn for one block's rows at a time, as a
    slice of the whole stream, so the peak memory is about one block plus
    the labels, whatever the number of samples.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dim = side * side

    def uniform(*tag_and_count, start=0):
        *tag, count = tag_and_count
        u = prg(derive_seed(seed, "synth", *tag), count, start).astype(np.float64)
        u *= 2.0**-64
        return u

    pool_size = max(min(dim, round(0.153 * dim)), min(dim, 2 * n_classes))
    per_class = max(1, round(0.833 * pool_size))
    clutter = max(1, round(0.23 * dim))
    drop = 0.65

    pool = np.argsort(uniform("pool", dim))[:pool_size]
    class_pixels = [
        pool[np.argsort(uniform("class", c, pool_size))[:per_class]]
        for c in range(n_classes)
    ]
    prior = 1.0 / (np.arange(n_classes) + 2.0)
    prior_cdf = np.cumsum(prior / prior.sum())

    def render(tag: str, labels: np.ndarray) -> Iterator[np.ndarray]:
        """The images of `labels`, one uint8 block of rows at a time."""
        n = len(labels)
        block = np.empty((min(RENDER_ROWS, n), dim), dtype=np.float32)
        pixels = np.empty(block.shape, dtype=np.uint8)
        for start in range(0, n, RENDER_ROWS):
            m = min(RENDER_ROWS, n - start)
            a, b = start * per_class, start * clutter  # stream offsets of the block
            intensity = uniform(tag, "intensity", m * per_class, start=a)
            intensity *= 0.65
            intensity += 0.35
            intensity = intensity.astype(np.float32).reshape(m, per_class)
            kept = uniform(tag, "keep", m * per_class, start=a).reshape(m, per_class) > drop
            clut_pos = prg(derive_seed(seed, "synth", tag, "clutter-pos"), m * clutter, b)
            clut_pos %= np.uint64(dim)
            clut_pos = clut_pos.astype(np.int32).reshape(m, clutter)
            clut_val = uniform(tag, "clutter-val", m * clutter, start=b)
            clut_val *= 0.8
            clut_val = clut_val.astype(np.float32).reshape(m, clutter)
            X = block[:m]
            X.fill(0.0)
            for j in range(m):
                X[j, class_pixels[labels[start + j]][kept[j]]] = intensity[j][kept[j]]
                X[j, clut_pos[j]] = np.maximum(X[j, clut_pos[j]], clut_val[j])
            X *= 255.0
            np.round(X, out=X)
            pixels[:m] = X
            yield pixels[:m]

    paths = {k: out_dir / name for k, name in IDX_FILES.items()}
    for tag, n in (("train", n_train), ("test", n_test)):
        labels = np.searchsorted(prior_cdf, uniform(tag, "labels", n), side="right")
        labels = np.minimum(labels, n_classes - 1).astype(np.int64)
        write_idx_blocks(render(tag, labels), n, side, side, labels,
                         paths[f"{tag}_images"], paths[f"{tag}_labels"])
    return paths


def partition(ds: Dataset, parts: int, seed: int) -> list[Dataset]:
    """Seeded shuffle split into `parts` disjoint near-equal shards.

    Each shard shares `ds.features` and holds its row indices and a copy of
    its labels; no feature row is copied. Part 0 is conventionally the
    server's benign root dataset.
    """
    if parts < 2:
        raise ValueError(f"need at least 2 parts, got {parts}")
    if len(ds) < parts:
        raise ValueError(f"cannot split {len(ds)} samples into {parts} parts")
    order = np.argsort(prg(derive_seed(seed, "partition"), len(ds)), kind="stable")
    return [
        Dataset(
            features=ds.features,
            labels=ds.labels[idx],
            n_classes=ds.n_classes,
            rows=idx if ds.rows is None else ds.rows[idx],
        )
        for idx in np.array_split(order, parts)
    ]


# ---------------------------------------------------------------------------
# Models: a ReLU network, defined once; logistic regression is its one-layer
# case. Parameters are one flattened vector: each layer's W then its b.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Architecture:
    """Layer sizes for the flattened parameter vector, input layer first.

    hidden == 0: logistic regression, params = [W (f*c), b (c)].
    hidden  > 0: one ReLU hidden layer, params = [W1 (f*h), b1 (h),
    W2 (h*c), b2 (c)]. Each W is row-major, (inputs, outputs).
    """

    n_features: int
    n_classes: int
    hidden: int = 0

    @property
    def layer_sizes(self) -> tuple[tuple[int, int], ...]:
        """(inputs, outputs) of each layer, input layer first."""
        f, c, h = self.n_features, self.n_classes, self.hidden
        return ((f, c),) if h == 0 else ((f, h), (h, c))

    @property
    def param_count(self) -> int:
        return sum(i * o + o for i, o in self.layer_sizes)


def init_params(arch: Architecture, seed: int, scale: int = DEFAULT_SCALE) -> FpVector:
    """Initial parameter vector: zeros for logreg, small seeded values for MLP."""
    if arch.hidden == 0:
        return FpVector.zeros(arch.param_count, scale)
    words = prg(derive_seed(seed, "init"), arch.param_count)
    vals = ((words % np.uint64(2001)).astype(np.float64) / 1000.0 - 1.0) * 0.05
    return FpVector.from_floats(vals, scale)


def _layers(arch: Architecture, params: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """(W, b) views of each layer in the flat parameter vector."""
    layers, at = [], 0
    for i, o in arch.layer_sizes:
        W = params[at : at + i * o].reshape(i, o)
        layers.append((W, params[at + i * o : at + i * o + o]))
        at += i * o + o
    return layers


# `_forward`'s input-layer blocks: up to FORWARD_BLOCK rows (1.6 MB in float64
# at 784 inputs), or as many as FORWARD_WORK multiply-adds need where that is
# more
FORWARD_BLOCK = 256
FORWARD_WORK = 1 << 21


def _forward(
    layers, X: np.ndarray, divisor=np.float32(1)
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The logits, and each layer's input: X as given, then every ReLU output.

    Every product runs in the layers' dtype: float64 when `loss_and_grad`
    trains, float32 when `evaluate` predicts. Training passes a stack of
    minibatches, X of shape (k, batch, features) in float64, and every
    layer runs as `np.matmul`, one BLAS call per minibatch whose shape does
    not depend on k, so each minibatch's logits have the bits of its own
    one-minibatch pass.

    Evaluation passes X as the stored rows (n, features) of a `Dataset`
    with its divisor. The input layer then turns X into features one block
    of rows at a time, as `local_gradients` does a batch, in one reused
    buffer of the layers' dtype, and multiplies each block into one
    preallocated output, so a whole test set never exists as floats. In
    float64 the logits stay bit-identical to one product over all rows as
    long as every block takes the BLAS kernel the whole product takes.
    OpenBLAS uses a separate small-matrix kernel, with other bits, up to
    10^6 multiply-adds, so the blocks of a split product are near-equal and
    each does at least FORWARD_WORK / 2 of them. Later layers run once on
    the whole matrix: splitting those by rows does change their bits.
    """
    W, b = layers[0]
    if X.ndim == 3:
        out = np.matmul(X, W)
    else:
        n = X.shape[0]
        rows = max(FORWARD_BLOCK, -(-FORWARD_WORK // W.size))
        blocks = -(-n // rows) or 1
        out = np.empty((n, b.size), dtype=W.dtype)
        buf = None
        if X.dtype != W.dtype:
            buf = np.empty((-(-n // blocks), X.shape[1]), dtype=W.dtype)
        for k in range(blocks):
            lo, hi = n * k // blocks, n * (k + 1) // blocks
            block = X[lo:hi]
            if buf is not None:  # float32(v) / divisor in float32, in the buffer's dtype
                block = np.divide(block, divisor, out=buf[: hi - lo], dtype=np.float32)
            np.dot(block, W, out=out[lo:hi])
    out += b
    inputs = [X]
    for W, b in layers[1:]:
        inputs.append(np.maximum(out, 0.0, out=out))
        out = out @ W + b
    return out, inputs


def loss_and_grad(
    arch: Architecture, params: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the flattened parameters,
    of each of a stack of k minibatches: X (k, batch, features), y (k, batch).

    Returns the k losses and the (k, d) gradients. The forward pass is
    `evaluate`'s, run in float64; each loss is the mean of
    -log(p_y + 1e-300) over its minibatch's rows, and back-propagation
    starts at the output layer. Every step acts on each minibatch alone, as
    one BLAS call or one reduction along its own rows, so minibatch j gets
    the same bits in any stack."""
    k, n = y.shape
    layers = _layers(arch, params)
    X = X.astype(np.float64, copy=False)  # back-propagation reads it
    logits, inputs = _forward(layers, X)
    # The row maxima and the bias gradients reduce across rows of a
    # transposed copy: numpy pays a call per row of a reduction along a
    # short contiguous axis. A maximum is exact in any order, and a sum
    # across rows adds them one by one in either layout. A layer of one
    # output is the exception: numpy sums one minibatch's single column as
    # a contiguous run, pairwise, so its bias gradient is that sum along
    # each minibatch's rows.
    c = logits.shape[2]
    top = _across(logits.reshape(-1, c).T, np.maximum).reshape(k, n, 1)
    delta = np.exp(logits - top)
    delta /= delta.sum(axis=2, keepdims=True)  # the softmax probabilities
    at_label = np.arange(0, delta.size, c) + y.ravel()  # in delta.flat
    flat = delta.reshape(-1)
    losses = -np.log(flat[at_label].reshape(k, n) + 1e-300).mean(axis=1)
    flat[at_label] -= 1.0
    delta /= n
    grads = np.empty((k, arch.param_count))
    end = arch.param_count
    for layer in range(len(layers) - 1, -1, -1):
        a, W = inputs[layer], layers[layer][0]
        i, o = W.shape
        start = end - i * o - o
        np.matmul(a.transpose(0, 2, 1), delta,
                  out=grads[:, start : end - o].reshape(k, i, o))
        if o == 1:
            grads[:, end - 1] = delta[:, :, 0].sum(axis=1)
        else:
            grads[:, end - o : end] = _across(delta.transpose(1, 0, 2), np.add)
        end = start
        if layer > 0:  # a is a ReLU output: a > 0 exactly where its input was
            delta = (delta @ W.T) * (a > 0.0)
    return losses, grads


def _across(a: np.ndarray, op: np.ufunc) -> np.ndarray:
    """op.reduce of a along its first axis, from a contiguous copy."""
    return op.reduce(np.ascontiguousarray(a), axis=0)


# The float64 features of the minibatches `local_gradients` stacks into one
# pass, 512 KB: the round loop of `protocol.run_training` groups as many
# participants as `participants_per_group` gives. At 64-row batches that is
# one participant at 784 features (`reference`, `wide-mlp`), whose pass is
# large already, and ten at 100 (`many-small`), where numpy's per-call cost
# outweighs a minibatch's arithmetic. Sized on `many-small` (perfbench,
# seed 3, 2-vCPU VM, one BLAS thread, 4 alternating runs each, medians, with
# each minibatch gathered on its own): FedAvg rounds took 5.91 ms with one
# participant per pass, 5.32 ms at 2^15 features (5 per group) and 5.03 ms
# at 2^16, and the published run peaked at 49.88, 49.86 and 49.71 MB. At
# 2^17 (20 per group) rounds were 3% faster again in one process, but the
# published run peaked 0.4 MB higher (3 runs).
GROUP_FEATURES = 1 << 16


def participants_per_group(n_features: int, batch: int) -> int:
    """How many minibatches of `batch` rows one `local_gradients` call
    stacks: as many as fit GROUP_FEATURES, and at least one."""
    return max(1, GROUP_FEATURES // (batch * n_features))


def local_gradients(
    arch: Architecture,
    params: FpVector,
    shards: list[Dataset],
    batch: int,
    seeds: list[int],
) -> list[tuple[FpVector, float]]:
    """One seeded minibatch cross-entropy gradient per shard, quantized to
    fixed point, with its loss: (g_j, loss_j) of shards[j] under seeds[j].
    The shards are shards of one dataset: they share its stored features.

    Each shard draws `batch` sample indices with replacement from its
    seed's PRG stream (the bias is negligible at these sizes). The drawn
    rows of every shard are gathered at once and dequantized,
    float32(v) / divisor in float32 as `evaluate` does a block, into one
    float64 stack. The model is converted to floats once, and one
    `loss_and_grad` pass differentiates the stack. Every gradient has the
    bits of its shard's one-shard call. `FpVector.from_float_rows`
    quantizes them, in one pass when every entry takes `from_floats`'s fast
    path and row by row otherwise, so the first one that overflows raises
    what its one-shard call raises."""
    features, divisor = shards[0].features, shards[0].divisor
    rows = np.empty((len(shards), batch), dtype=np.int64)
    y = np.empty((len(shards), batch), dtype=np.int64)
    for j, (shard, seed) in enumerate(zip(shards, seeds, strict=True)):
        if batch > len(shard):
            raise ValueError(f"batch {batch} exceeds shard size {len(shard)}")
        if shard.features is not features:
            raise ValueError("the shards of one call must share one feature matrix")
        idx = (prg(seed, batch) % np.uint64(len(shard))).astype(np.int64)
        rows[j] = idx if shard.rows is None else shard.rows[idx]
        y[j] = shard.labels[idx]
    X = np.empty((len(shards), batch, arch.n_features))
    np.divide(features[rows], divisor, out=X, dtype=np.float32)
    losses, grads = loss_and_grad(arch, params.to_floats(), X, y)
    del X  # before the quantization's temporaries
    return list(zip(FpVector.from_float_rows(grads, params.scale), losses.tolist()))


def local_gradient(
    arch: Architecture,
    params: FpVector,
    shard: Dataset,
    batch: int,
    seed: int,
) -> tuple[FpVector, float]:
    """`local_gradients` of one shard: its quantized gradient and loss."""
    return local_gradients(arch, params, [shard], batch, [seed])[0]


def evaluate(arch: Architecture, params: FpVector, ds: Dataset) -> float:
    """Accuracy fraction on a nonempty dataset, from the forward pass that
    `loss_and_grad` trains with, fed the stored rows block by block.

    It runs in float32: the weights are rounded once from the fixed-point
    raws, and each block of rows becomes the float32 features that training
    widens to float64. An accuracy reaches only the metrics, never the
    ledger, and the tests pin that every prediction equals the float64
    forward pass's."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    layers = _layers(arch, params.to_floats(np.float32))
    logits, _ = _forward(layers, ds.stored(), ds.divisor)
    return float((logits.argmax(axis=1) == ds.labels).mean())


# ---------------------------------------------------------------------------
# Adversaries.
# ---------------------------------------------------------------------------

ADVERSARY_KINDS = ("honest", "label_flip", "sign_flip", "scale_amplify")


@dataclass(frozen=True)
class AdversarySpec:
    """What a participant does to corrupt training, if anything."""

    kind: str = "honest"
    factor: int = 10  # scale_amplify only

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind == "scale_amplify" and self.factor <= 1:
            raise ValueError("scale_amplify factor must be > 1")


def flip_labels(ds: Dataset, seed: int) -> Dataset:
    """Remap every label to a uniformly random *different* class."""
    c = ds.n_classes
    words = prg(derive_seed(seed, "label-flip"), len(ds))
    shift = 1 + (words % np.uint64(c - 1)).astype(np.int64)
    return replace(ds, labels=(ds.labels + shift) % c)


def corrupt_shard(ds: Dataset, spec: AdversarySpec, seed: int) -> Dataset:
    """Apply the data-level attack (label flipping) to a shard, once."""
    if spec.kind == "label_flip":
        return flip_labels(ds, seed)
    return ds


def corrupt_gradient(g: FpVector, spec: AdversarySpec) -> FpVector:
    """Apply the gradient-level attack to a computed local gradient."""
    if spec.kind == "sign_flip":
        return -g
    if spec.kind == "scale_amplify":
        return g.scalar_mul(spec.factor)
    return g
