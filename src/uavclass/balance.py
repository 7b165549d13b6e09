"""Training-fold class rebalancing: the five techniques of the imbalance grid.

All methods operate on lists of SampledInstance and only ever see training
data; assert_test_fold_purity enforces that held-out folds stay untouched.
The three oversamplers share one loop, ``_grow``, and differ only in how they
make one class's new instances. Every generated or duplicated instance is
marked synthetic; generated ones are built by ``_synthetic``.

SMOTE's neighbour search and k-means compare rows only through
``_sq_distances``: one Gram matrix X @ X.T per call gives the n x n squared
distances, and X enters no other product. On the grid's folds they pick the
same neighbours and clusters as the elementwise sum((X - X[i]) ** 2), so the
rebalanced instances keep their bits; where exact duplicate rows tie, the tie
rule of ``kmeans`` decides. Each centroid is the mean of its rows of X in
row order, built after the last Lloyd step. A call holds about 34 n^2 bytes
for n rows, so cluster centroids refuse over ``KMEANS_MAX_ROWS`` majority rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import UavclassError
from .resample import SampledInstance
from .ulog import VehicleType

MINORITY_CLASSES = (VehicleType.FIXED_WING, VehicleType.HEXAROTOR)
MAJORITY_CLASS = VehicleType.QUADROTOR

METHOD_NONE = "none"
METHOD_RANDOM_OVERSAMPLE = "random_oversample"
METHOD_RANDOM_UNDERSAMPLE = "random_undersample"
METHOD_SMOTE = "smote"
METHOD_CLUSTER_CENTROID = "cluster_centroid"
METHOD_AUGMENTATION = "augmentation"

OVERSAMPLE_METHODS = (METHOD_RANDOM_OVERSAMPLE, METHOD_SMOTE, METHOD_AUGMENTATION)
UNDERSAMPLE_METHODS = (METHOD_RANDOM_UNDERSAMPLE, METHOD_CLUSTER_CENTROID)
ALL_METHODS = (METHOD_NONE,) + OVERSAMPLE_METHODS + UNDERSAMPLE_METHODS
MAX_MINORITY_FACTOR = 100.0  # the paper's grid tops out at 2.5; far more only fills memory

# augmentation magnitudes; crop and drift are drawn per instance
AUGMENT_CROP_MIN = 0.7  # cropped fraction drawn from [AUGMENT_CROP_MIN, 1]
AUGMENT_DRIFT_MAX = 0.1  # max |drift| as a fraction of the feature range
AUGMENT_REVERSE_PROB = 0.5

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-4  # Lloyd stops once every center moves less than this
# kmeans holds about 4.5 n^2 doubles (34 n^2 bytes) for n rows: 519 MiB at
# 4000 rows, about 19 GB at the paper's roughly 24 000 training quadrotors
KMEANS_MAX_ROWS = 4000


class BalanceError(UavclassError):
    pass


class ContaminatedTestFold(BalanceError):
    pass


@dataclass
class BalanceConfig:
    method: str = METHOD_NONE
    minority_factor: float = 1.5  # oversampling: final = original * factor
    majority_reduction: float = 0.25  # undersampling: final = original * (1 - reduction)
    smote_k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise BalanceError(f"unknown balance method {self.method!r}")
        if not 1 <= self.minority_factor <= MAX_MINORITY_FACTOR:
            raise BalanceError(f"minority_factor must be in [1, {MAX_MINORITY_FACTOR:g}]")
        if not 0 <= self.majority_reduction <= 1:
            raise BalanceError("majority_reduction must be in [0, 1]")
        if self.smote_k < 1:
            raise BalanceError("smote_k must be >= 1")
        if self.seed < 0:
            raise BalanceError("seed must be >= 0")

    def describe(self) -> str:
        if self.method == METHOD_NONE:
            return "-"
        if self.method in OVERSAMPLE_METHODS:
            return f"{self.minority_factor * 100:g}"
        return f"{self.majority_reduction * 100:g}"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def oversampled_count(original: int, factor: float) -> int:
    return _round_half_up(original * factor)


def undersampled_count(original: int, reduction: float) -> int:
    return _round_half_up(original * (1.0 - reduction))


def _grow(instances, factor, seed, make, min_members=1):
    """Grow each minority class to round(n * factor) members; the majority is untouched.

    ``make(cls, members, extra, rng)`` yields the ``extra`` new instances of
    class ``cls`` from its ``members``. One random generator, seeded once,
    serves the classes in MINORITY_CLASSES order.
    """
    rng = np.random.default_rng(seed)
    out = list(instances)
    for cls in MINORITY_CLASSES:
        members = [inst for inst in instances if inst.label is cls]
        if len(members) < min_members:
            raise BalanceError(f"{cls.value} has {len(members)} instances; need >= {min_members}")
        extra = oversampled_count(len(members), factor) - len(members)
        if extra > 0:
            out.extend(make(cls, members, extra, rng))
    return out


def _synthetic(src: SampledInstance, values, source_id):
    """A generated instance of ``src``'s class; every cell counts as data."""
    return SampledInstance(values, np.ones_like(values, dtype=bool), src.label, source_id,
                           synthetic=True)


def random_oversample(instances, factor, seed):
    """Duplicate minority instances uniformly with replacement up to round(n * factor).

    A duplicate shares its source's arrays; nothing writes instance arrays in place.
    """
    def duplicate(cls, members, extra, rng):
        for j, p in enumerate(rng.integers(0, len(members), size=extra)):
            yield replace(members[p], source_id=f"{members[p].source_id}+dup{j}", synthetic=True)

    return _grow(instances, factor, seed, duplicate)


def random_undersample(instances, reduction, seed):
    """Drop a uniform sample of the majority class, keeping round(n * (1 - r))."""
    rng = np.random.default_rng(seed)
    members = [i for i, inst in enumerate(instances) if inst.label is MAJORITY_CLASS]
    kept = set()
    if members:
        target = min(undersampled_count(len(members), reduction), len(members))
        kept = {members[p] for p in rng.choice(len(members), size=target, replace=False)}
    return [inst for i, inst in enumerate(instances)
            if inst.label is not MAJORITY_CLASS or i in kept]


def _nearest_neighbors(X, k):
    """Indices of the k nearest other rows of each row of X, nearest first.

    Exhaustive, on the n x n distances of ``_sq_distances``: a row's copies
    read exactly 0 and come first, and ``argsort`` breaks other ties by
    row index. The only temporaries are n x n.
    """
    d2 = _sq_distances(X)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1)[:, :k]


def smote_oversample(instances, factor, k, seed):
    """Interpolate between minority points and their k nearest same-class neighbors.

    k is clamped to class size - 1; a class needs at least 2 members.
    """
    def interpolate(cls, members, extra, rng):
        X = np.stack([inst.values.ravel() for inst in members])
        k_eff = min(k, len(members) - 1)
        neighbors = _nearest_neighbors(X, k_eff)
        for j in range(extra):
            base = rng.integers(0, len(members))
            mate = neighbors[base, rng.integers(0, k_eff)]
            vec = X[base] + rng.random() * (X[mate] - X[base])
            src = members[base]
            yield _synthetic(src, vec.reshape(src.values.shape), f"smote-{cls.value}-{j}")

    return _grow(instances, factor, seed, interpolate, min_members=2)


def _sq_distances(X):
    """Squared distances between all rows of X, from one Gram matrix G = X @ X.T.

    d2[i, j] = max(G_ii + G_jj - 2 G_ij, 0). numpy forms X @ X.T as a
    symmetric product, so d2 is symmetric. The squared norms come from the
    diagonal, so a row reads exactly 0 against itself and against every copy
    of itself (the product sums each entry over the columns in one order), as
    the elementwise sum((X - X[i]) ** 2) does. Other distances may differ
    from that sum in the last bits. The distances overwrite the Gram
    matrix, so this holds one n x n array.
    """
    d2 = X @ X.T
    sq = d2.diagonal().copy()
    d2 *= -2.0  # exact
    for i, row in enumerate(d2):
        # -2 G_ij + (G_ii + G_jj) rounds as (G_ii + G_jj) - 2 G_ij does
        row += sq + sq[i]
    return np.maximum(d2, 0.0, out=d2)


def _cluster_sums(d2, members, bounds):
    """Sums over each cluster's rows of d2, and each cluster's spread.

    Cluster c holds the rows ``members[bounds[c] : bounds[c + 1]]``; none is
    empty. Returns ``sums`` [k, n], where sums[c, i] is the sum of d2[j, i]
    over the rows j of c, and ``spread`` [k], the mean squared distance of
    c's m rows to their mean: the sum of d2 over all pairs of them over 2 m^2.
    """
    sums = np.add.reduceat(d2[members], bounds[:-1], axis=0)
    sizes = np.diff(bounds)
    return sums, _sums_over_rows(sums, members, bounds) / (2.0 * sizes * sizes)


def _sums_over_rows(sums, members, bounds):
    """For each cluster c of (members, bounds), the sum of sums[c, j] over its rows j."""
    clusters = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return np.add.reduceat(sums[clusters, members], bounds[:-1])


def kmeans(X, k, rng):
    """Lloyd's algorithm with k-means++ seeding, on the distances between rows.

    Returns (centroids, objective_history); the objective is the sum of
    squared distances to the assigned centroid after each assignment step.

    Kernel k-means with a linear kernel: X enters one product, in
    ``_sq_distances``, and seeding and every step read those distances d2.
    A cluster is its rows S: row i is ``mean_{j in S} d2[i, j] - spread(S)``
    from their mean, and a center moves by ``sqrt(mean_{j in S_new, l in
    S_old} d2[j, l] - spread(S_new) - spread(S_old))``, exactly 0 when S did
    not change. Seeding, the empty-cluster rule (move to the row farthest
    from its center) and the stopping rule (KMEANS_TOL, KMEANS_MAX_ITER)
    are those of X-space Lloyd. The [k, d] centers are built after the last
    step, each the mean of its rows in row order, so on the same clusters
    they have the bits of X-space centers; the history may differ in the
    last bits. A one-row mean turns -0.0 into 0.0; standardized rows hold
    none, as bin sums start at +0.0 and x - x is +0.0.

    Ties: a row reads exactly 0 from a cluster that holds only copies of it
    (every d2 term is 0), and among equal distances the lowest center index
    wins. Memory: d2 is n x n, a step gathers the rows of d2 of its clusters
    and holds a few k x n arrays, and no [k, d] array exists before the
    last step.
    """
    if k >= len(X):
        return X.copy(), [0.0]
    d2 = _sq_distances(X)
    members, bounds, history = _lloyd(d2, _kmeans_pp(d2, k, rng))
    centers = np.empty((k, X.shape[1]))
    for c in range(k):
        centers[c] = X[members[bounds[c] : bounds[c + 1]]].mean(axis=0)
    return centers, history


def _kmeans_pp(d2, k, rng):
    """The k rows that k-means++ seeding picks, from the distances d2."""
    n = len(d2)
    seeds = np.empty(k, dtype=np.intp)
    seeds[0] = rng.integers(0, n)
    closest = d2[seeds[0]].copy()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            seeds[i] = rng.integers(0, n)
        else:
            r = rng.random() * total
            seeds[i] = np.searchsorted(np.cumsum(closest), r)
        np.minimum(closest, d2[seeds[i]], out=closest)
    return seeds


def _lloyd(d2, seeds):
    """Lloyd's steps on the distances d2 from one cluster per seed row.

    Returns (members, bounds, history): cluster c holds the rows
    ``members[bounds[c] : bounds[c + 1]]``.
    """
    k = len(seeds)
    rows = np.arange(len(d2))
    members, bounds = seeds, np.arange(k + 1)
    sums, spread = _cluster_sums(d2, members, bounds)
    history = []
    for _ in range(KMEANS_MAX_ITER):
        dist = sums / np.diff(bounds)[:, np.newaxis]
        dist -= spread[:, np.newaxis]
        assign = np.argmin(dist, axis=0)
        nearest = dist[assign, rows]
        history.append(float(np.maximum(nearest, 0.0).sum()))
        # a stable sort keeps each cluster's rows in row order; an empty
        # cluster takes the row farthest from its center
        new = np.argsort(assign, kind="stable")
        sizes = np.bincount(assign, minlength=k)
        empty = sizes == 0
        if empty.any():
            new = np.insert(new, np.cumsum(sizes)[empty], np.argmax(nearest))
            sizes[empty] = 1
        new_bounds = np.concatenate(([0], np.cumsum(sizes)))
        new_sums, new_spread = _cluster_sums(d2, new, new_bounds)
        cross = _sums_over_rows(sums, new, new_bounds) / (sizes * np.diff(bounds))
        shift2 = cross - new_spread - spread
        members, bounds, sums, spread = new, new_bounds, new_sums, new_spread
        if np.sqrt(np.maximum(shift2, 0.0)).max() < KMEANS_TOL:
            break
    return members, bounds, history


def cluster_centroid_undersample(instances, reduction, seed):
    """Replace the majority class by k-means centroids of its flattened vectors."""
    rng = np.random.default_rng(seed)
    majority = [inst for inst in instances if inst.label is MAJORITY_CLASS]
    if not majority:
        return list(instances)
    if len(majority) > KMEANS_MAX_ROWS:
        raise BalanceError(f"cluster_centroid: {len(majority)} majority rows exceed "
                           f"the k-means bound of {KMEANS_MAX_ROWS}")
    target = max(undersampled_count(len(majority), reduction), 1)
    centers, _ = kmeans(np.stack([inst.values.ravel() for inst in majority]), target, rng)
    src = majority[0]
    out = [inst for inst in instances if inst.label is not MAJORITY_CLASS]
    out += [_synthetic(src, center.reshape(src.values.shape), f"centroid-{j}")
            for j, center in enumerate(centers)]
    return out


def _augment_one(values, rng):
    n_rows, n_features = values.shape
    out = values.copy()

    # crop a contiguous fraction of rows and stretch back to full length
    frac = rng.uniform(AUGMENT_CROP_MIN, 1.0)
    length = max(2, _round_half_up(frac * n_rows))
    length = min(length, n_rows)
    start = int(rng.integers(0, n_rows - length + 1))
    if length < n_rows or start > 0:
        segment = out[start : start + length]
        xp = np.linspace(0.0, 1.0, length)
        x = np.linspace(0.0, 1.0, n_rows)
        out = np.stack([np.interp(x, xp, segment[:, f]) for f in range(n_features)], axis=1)

    # random-walk drift scaled to a fraction of each feature's range
    d = rng.uniform(0.0, AUGMENT_DRIFT_MAX)
    if d > 0:
        walk = np.cumsum(rng.standard_normal((n_rows, n_features)), axis=0)
        peak = np.abs(walk).max(axis=0)
        span = out.max(axis=0) - out.min(axis=0)
        scale = np.where((peak > 0) & (span > 0), d * span / np.maximum(peak, 1e-300), 0.0)
        out = out + walk * scale

    if rng.random() < AUGMENT_REVERSE_PROB:
        out = out[::-1].copy()
    return out


def augment_timeseries(instances, factor, seed):
    """Grow minority classes with crop/drift/reverse transforms of originals."""
    def augment(cls, members, extra, rng):
        for j in range(extra):
            src = members[rng.integers(0, len(members))]
            yield _synthetic(src, _augment_one(src.values, rng), f"aug-{cls.value}-{j}")

    return _grow(instances, factor, seed, augment)


def rebalance(instances, config: BalanceConfig):
    """Apply the configured method to a training split."""
    if config.method == METHOD_NONE:
        return list(instances)
    if config.method == METHOD_RANDOM_OVERSAMPLE:
        return random_oversample(instances, config.minority_factor, config.seed)
    if config.method == METHOD_RANDOM_UNDERSAMPLE:
        return random_undersample(instances, config.majority_reduction, config.seed)
    if config.method == METHOD_SMOTE:
        return smote_oversample(instances, config.minority_factor, config.smote_k, config.seed)
    if config.method == METHOD_CLUSTER_CENTROID:
        return cluster_centroid_undersample(instances, config.majority_reduction, config.seed)
    return augment_timeseries(instances, config.minority_factor, config.seed)


def assert_test_fold_purity(instances, fold_of, test_fold, expected_count):
    """Hard check that the held-out fold is untouched by rebalancing.

    fold_of maps each instance (by position) to its fold id; instances
    created by rebalancing must not carry the test fold id.
    """
    count = 0
    for inst, fold in zip(instances, fold_of):
        if fold != test_fold:
            continue
        if inst.synthetic:
            raise ContaminatedTestFold(
                f"synthetic instance {inst.source_id!r} assigned to test fold {test_fold}"
            )
        count += 1
    if count != expected_count:
        raise ContaminatedTestFold(
            f"test fold {test_fold} has {count} instances, expected {expected_count}"
        )
