import tracemalloc

import numpy as np
import pytest

import uavclass.balance as balance
from uavclass.balance import (
    AugmentSpec,
    BalanceConfig,
    BalanceError,
    ClassSmallerThanK,
    ContaminatedTestFold,
    EmptyClass,
    METHOD_AUGMENTATION,
    METHOD_CLUSTER_CENTROID,
    METHOD_NONE,
    METHOD_RANDOM_OVERSAMPLE,
    METHOD_RANDOM_UNDERSAMPLE,
    METHOD_SMOTE,
    MAX_MINORITY_FACTOR,
    _augment_one,
    _nearest_neighbors,
    _sq_distances,
    assert_test_fold_purity,
    augment_timeseries,
    cluster_centroid_undersample,
    kmeans,
    oversampled_count,
    random_oversample,
    random_undersample,
    rebalance,
    smote_oversample,
    undersampled_count,
)
from uavclass import evaluate as ev
from uavclass.features import BASELINE_SUBSET
from uavclass.pipeline import build_dataset, imbalance_grid
from uavclass.resample import SampledInstance, SamplingConfig, Scaler
from uavclass.synth import generate_corpus
from uavclass.ulog import VehicleType


def _inst(label, values=None, rng=None, shape=(6, 2), source_id=""):
    if values is None:
        values = rng.normal(size=shape)
    values = np.asarray(values, dtype=float)
    return SampledInstance(
        values=values,
        mask=np.ones_like(values, dtype=bool),
        label=label,
        source_id=source_id,
    )


def _corpus(rng, n_quad=20, n_fw=6, n_hex=6):
    out = []
    for i in range(n_quad):
        out.append(_inst(VehicleType.QUADROTOR, rng=rng, source_id=f"q{i}"))
    for i in range(n_fw):
        out.append(_inst(VehicleType.FIXED_WING, rng=rng, source_id=f"f{i}"))
    for i in range(n_hex):
        out.append(_inst(VehicleType.HEXAROTOR, rng=rng, source_id=f"h{i}"))
    return out


def _count(instances, cls):
    return sum(1 for inst in instances if inst.label is cls)


class TestCountArithmetic:
    # (original, factor, expected) with exact half-up rounding
    OVER_CASES = [
        (10, 1.5, 15),
        (10, 2.0, 20),
        (10, 2.5, 25),
        (7, 1.5, 11),  # 10.5 rounds up
        (9, 1.5, 14),  # 13.5 rounds up
        (3, 2.5, 8),   # 7.5 rounds up
        (1, 1.5, 2),
        (0, 2.0, 0),
        (133, 1.5, 200),  # 199.5 rounds up
        (134, 2.5, 335),
    ]
    UNDER_CASES = [
        (20, 0.25, 15),
        (20, 0.5, 10),
        (20, 0.75, 5),
        (10, 0.25, 8),  # 7.5 rounds up
        (7, 0.5, 4),    # 3.5 rounds up
    ]

    @pytest.mark.parametrize("original,factor,expected", OVER_CASES)
    def test_oversampled_count(self, original, factor, expected):
        assert oversampled_count(original, factor) == expected

    @pytest.mark.parametrize("original,reduction,expected", UNDER_CASES)
    def test_undersampled_count(self, original, reduction, expected):
        assert undersampled_count(original, reduction) == expected


class TestRandomOversample:
    def test_counts_and_untouched_majority(self):
        rng = np.random.default_rng(0)
        corpus = _corpus(rng, n_quad=20, n_fw=6, n_hex=7)
        out = random_oversample(corpus, 1.5, seed=1)
        assert _count(out, VehicleType.QUADROTOR) == 20
        assert _count(out, VehicleType.FIXED_WING) == 9
        assert _count(out, VehicleType.HEXAROTOR) == 11  # 10.5 rounds up

    def test_duplicates_are_synthetic_copies_of_originals(self):
        rng = np.random.default_rng(1)
        corpus = _corpus(rng, n_quad=4, n_fw=3, n_hex=3)
        out = random_oversample(corpus, 2.0, seed=2)
        originals = {inst.values.tobytes() for inst in corpus}
        for inst in out[len(corpus):]:
            assert inst.synthetic
            assert inst.values.tobytes() in originals

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(2)
        corpus = _corpus(rng)
        assert random_oversample(corpus, 1.0, seed=0) == corpus

    def test_empty_minority_raises(self):
        rng = np.random.default_rng(3)
        corpus = _corpus(rng, n_fw=0)
        with pytest.raises(EmptyClass):
            random_oversample(corpus, 1.5, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        corpus = _corpus(rng)
        a = random_oversample(corpus, 2.0, seed=7)
        b = random_oversample(corpus, 2.0, seed=7)
        assert [i.source_id for i in a] == [i.source_id for i in b]
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


class TestRandomUndersample:
    def test_counts(self):
        rng = np.random.default_rng(5)
        corpus = _corpus(rng, n_quad=20, n_fw=6, n_hex=6)
        out = random_undersample(corpus, 0.25, seed=1)
        assert _count(out, VehicleType.QUADROTOR) == 15
        assert _count(out, VehicleType.FIXED_WING) == 6
        assert _count(out, VehicleType.HEXAROTOR) == 6

    def test_survivors_are_original_objects(self):
        rng = np.random.default_rng(6)
        corpus = _corpus(rng)
        out = random_undersample(corpus, 0.5, seed=3)
        assert all(any(inst is orig for orig in corpus) for inst in out)

    def test_zero_reduction_identity(self):
        rng = np.random.default_rng(7)
        corpus = _corpus(rng)
        assert random_undersample(corpus, 0.0, seed=0) == corpus


class TestSmote:
    def test_counts(self):
        rng = np.random.default_rng(8)
        corpus = _corpus(rng, n_quad=10, n_fw=6, n_hex=4)
        out = smote_oversample(corpus, 1.5, k=5, seed=2)
        assert _count(out, VehicleType.FIXED_WING) == 9
        assert _count(out, VehicleType.HEXAROTOR) == 6

    def test_synthetic_points_are_convex_combinations(self):
        # 1-D layout makes convexity checkable: all fw values in [0, 5]
        vals = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        corpus = [
            _inst(VehicleType.FIXED_WING, values=[[v]], source_id=f"f{i}")
            for i, v in enumerate(vals)
        ]
        corpus += [
            _inst(VehicleType.HEXAROTOR, values=[[100.0 + i]], source_id=f"h{i}")
            for i in range(4)
        ]
        out = smote_oversample(corpus, 3.0, k=3, seed=5)
        for inst in out:
            if not inst.synthetic:
                continue
            v = float(inst.values.ravel()[0])
            if inst.label is VehicleType.FIXED_WING:
                assert 0.0 <= v <= 5.0
            else:
                assert 100.0 <= v <= 103.0

    def test_neighbors_match_exhaustive_oracle(self):
        # each synthetic point must lie on a segment between a minority point
        # and one of its k nearest same-class neighbors
        rng = np.random.default_rng(9)
        fw = [
            _inst(VehicleType.FIXED_WING, rng=rng, shape=(2, 2), source_id=f"f{i}")
            for i in range(8)
        ]
        hexa = [
            _inst(VehicleType.HEXAROTOR, rng=rng, shape=(2, 2), source_id=f"h{i}")
            for i in range(8)
        ]
        corpus = fw + hexa
        out = smote_oversample(corpus, 2.0, k=3, seed=11)
        by_class = {
            VehicleType.FIXED_WING: np.stack([i.values.ravel() for i in fw]),
            VehicleType.HEXAROTOR: np.stack([i.values.ravel() for i in hexa]),
        }
        for inst in out:
            if not inst.synthetic:
                continue
            X = by_class[inst.label]
            v = inst.values.ravel()
            found = False
            for a in range(len(X)):
                d = np.linalg.norm(X - X[a], axis=1)
                d[a] = np.inf
                for b in np.argsort(d)[:3]:
                    seg = X[b] - X[a]
                    denom = float(seg @ seg)
                    if denom == 0:
                        continue
                    u = float((v - X[a]) @ seg) / denom
                    if -1e-9 <= u <= 1 + 1e-9 and np.linalg.norm(
                        X[a] + u * seg - v
                    ) < 1e-9:
                        found = True
            assert found

    def test_k_clamped_to_class_size(self):
        rng = np.random.default_rng(10)
        corpus = _corpus(rng, n_fw=3, n_hex=3)
        out = smote_oversample(corpus, 2.0, k=50, seed=0)
        assert _count(out, VehicleType.FIXED_WING) == 6

    def test_singleton_class_raises(self):
        rng = np.random.default_rng(11)
        corpus = _corpus(rng, n_fw=1)
        with pytest.raises(ClassSmallerThanK):
            smote_oversample(corpus, 2.0, k=5, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        corpus = _corpus(rng)
        a = smote_oversample(corpus, 2.0, k=5, seed=4)
        b = smote_oversample(corpus, 2.0, k=5, seed=4)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


def _broadcast_neighbors(X, k):
    """SMOTE's neighbour search as it was: all pairwise differences at once."""
    d2 = np.sum((X[:, np.newaxis, :] - X[np.newaxis, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1)[:, :k]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _same_instances(a, b):
    return len(a) == len(b) and all(
        np.array_equal(_bits(x.values), _bits(y.values))
        and np.array_equal(x.mask, y.mask)
        and (x.label, x.source_id, x.synthetic) == (y.label, y.source_id, y.synthetic)
        for x, y in zip(a, b)
    )


class TestSmoteRowwiseDistances:
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_neighbors_equal_broadcast_reference(self, integer_valued):
        rng = np.random.default_rng(40)
        for n, d in ((2, 3), (9, 1), (36, 450), (60, 7)):
            X = rng.normal(size=(n, d))
            if integer_valued:  # many tied distances
                X = np.round(X * 2)
            for k in (1, min(5, n - 1), n - 1):
                assert np.array_equal(_nearest_neighbors(X, k), _broadcast_neighbors(X, k))

    def test_outputs_equal_broadcast_reference(self, monkeypatch):
        rng = np.random.default_rng(41)
        corpus = _corpus(rng, n_quad=10, n_fw=12, n_hex=7)
        corpus += [_inst(VehicleType.FIXED_WING, values=np.ones((6, 2)), source_id="dup")] * 3
        for factor, k, seed in ((1.5, 5, 0), (2.5, 3, 7), (2.0, 50, 3)):
            out = smote_oversample(corpus, factor, k, seed)
            with monkeypatch.context() as m:
                m.setattr(balance, "_nearest_neighbors", _broadcast_neighbors)
                ref = smote_oversample(corpus, factor, k, seed)
            assert _same_instances(out, ref)

    def test_temporaries_stay_n_by_d(self):
        # the broadcast form held an n x n x d temporary: 40x its input here
        rng = np.random.default_rng(42)
        corpus = _corpus(rng, n_quad=4, n_fw=0, n_hex=0)
        shape = (50, 9)
        n = 40
        for cls in balance.MINORITY_CLASSES:
            corpus += [
                _inst(cls, rng=rng, shape=shape, source_id=f"{cls.value}{i}") for i in range(n)
            ]
        class_bytes = n * shape[0] * shape[1] * 8
        tracemalloc.start()
        try:
            smote_oversample(corpus, 1.5, 5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * class_bytes


def _reference_lloyd(X, centers, max_iter, tol):
    """kmeans' Lloyd steps as they were: every step built 2X, a new centers
    array and two [k, d] temporaries for the shift, and scanned
    ``assign == c`` once per center."""
    n, k = len(X), len(centers)
    history = []
    for _ in range(max_iter):
        d2 = (
            np.sum(X * X, axis=1)[:, np.newaxis]
            - 2.0 * X @ centers.T
            + np.sum(centers * centers, axis=1)[np.newaxis, :]
        )
        assign = np.argmin(d2, axis=1)
        history.append(float(np.maximum(d2[np.arange(n), assign], 0.0).sum()))
        new_centers = centers.copy()
        for c in range(k):
            mask = assign == c
            if mask.any():
                new_centers[c] = X[mask].mean(axis=0)
            else:
                new_centers[c] = X[np.argmax(d2[np.arange(n), assign])]
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, history


def _tie_rule_lloyd(X, centers, max_iter, tol):
    """Lloyd's steps in X space under kmeans' documented tie rule: a row
    reads exactly 0 from a cluster whose rows are all copies of it, and the
    lowest center index wins among equal distances. Each seed center is a
    copy of a row, and that row is its cluster until the first step."""
    n, k = len(X), len(centers)
    copies = np.all(X[:, np.newaxis, :] == X[np.newaxis, :, :], axis=-1)
    members = [np.flatnonzero(np.all(X == center, axis=1))[:1] for center in centers]
    history = []
    for _ in range(max_iter):
        d2 = np.stack([np.sum((X - center) ** 2, axis=1) for center in centers], axis=1)
        for c, rows in enumerate(members):
            d2[copies[rows].all(axis=0), c] = 0.0
        assign = np.argmin(d2, axis=1)
        nearest = d2[np.arange(n), assign]
        history.append(float(np.maximum(nearest, 0.0).sum()))
        new_centers = centers.copy()
        for c in range(k):
            members[c] = np.flatnonzero(assign == c)
            if len(members[c]):
                new_centers[c] = X[members[c]].mean(axis=0)
            else:
                members[c] = np.array([np.argmax(nearest)])
                new_centers[c] = X[members[c][0]]
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, history


def _elementwise_seeds(X, k, rng):
    """k-means++ seeding as it was before the Gram matrix: every step
    subtracts the new center from every row of X."""
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(0, n)]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[i] = X[rng.integers(0, n)]
        else:
            r = rng.random() * total
            centers[i] = X[np.searchsorted(np.cumsum(closest), r)]
        closest = np.minimum(closest, np.sum((X - centers[i]) ** 2, axis=1))
    return centers


def _elementwise_kmeans(X, k, rng, max_iter=300, tol=1e-4, lloyd=_reference_lloyd):
    """kmeans as it was before the Gram matrix: elementwise seeding, then
    ``lloyd`` (the X-space steps of _reference_lloyd by default)."""
    if k >= len(X):
        return X.copy(), [0.0]
    return lloyd(X, _elementwise_seeds(X, k, rng), max_iter, tol)


def _reference_distances_to_row(X):
    """kmeans' seeding distances before its Lloyd steps moved to the Gram
    matrix: dist(i) is max(sq + sq[i] - 2 gram[i], 0)."""
    gram = X @ X.T
    sq = gram.diagonal().copy()

    def dist(i):
        return np.maximum(sq + sq[i] - 2.0 * gram[i], 0.0)

    return dist


def _reference_kmeans(X, k, rng, max_iter=300, tol=1e-4, lloyd=_reference_lloyd):
    """kmeans as it was before its Lloyd steps left X space: Gram-matrix
    seeding, then ``lloyd`` (_reference_lloyd by default)."""
    n = len(X)
    if k >= n:
        return X.copy(), [0.0]
    dist = _reference_distances_to_row(X)
    centers = np.empty((k, X.shape[1]))
    first = rng.integers(0, n)
    centers[0] = X[first]
    closest = dist(first)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            pick = rng.integers(0, n)
        else:
            r = rng.random() * total
            pick = np.searchsorted(np.cumsum(closest), r)
        centers[i] = X[pick]
        closest = np.minimum(closest, dist(pick))
    return lloyd(X, centers, max_iter, tol)


def _assert_same_kmeans(got, ref, label=None):
    """Centers equal bit for bit; the history has the same length and each
    entry within 1e-13 relative (an entry of 0 must read exactly 0)."""
    (centers, history), (ref_centers, ref_history) = got, ref
    assert np.array_equal(_bits(centers), _bits(ref_centers)), label
    assert len(history) == len(ref_history), label
    assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(history, ref_history)), label


class _ProductCounter(np.ndarray):
    """An array that counts the matrix products it enters, by any route."""

    products = 0
    PRODUCTS = (np.dot, np.vdot, np.inner, np.tensordot, np.einsum, np.linalg.multi_dot)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _ProductCounter.products += 1
        inputs = tuple(np.asarray(a) if isinstance(a, _ProductCounter) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func in self.PRODUCTS:
            _ProductCounter.products += 1
        return super().__array_function__(func, types, args, kwargs)


class TestKmeansGramSeeding:
    @staticmethod
    def _assert_matches_elementwise(X, k, seed):
        _assert_same_kmeans(kmeans(X, k, np.random.default_rng(seed)),
                            _elementwise_kmeans(X, k, np.random.default_rng(seed)), k)

    @staticmethod
    def _assert_tie_rule(X, k, seed):
        _assert_same_kmeans(
            kmeans(X, k, np.random.default_rng(seed)),
            _elementwise_kmeans(X, k, np.random.default_rng(seed), lloyd=_tie_rule_lloyd), k)

    def test_gaussian_rows_of_grid_width(self):
        # 500 bins x 9 features, as in the imbalance grid
        X = np.random.default_rng(50).normal(size=(120, 4500))
        for k, seed in ((90, 0), (60, 1), (30, 2), (2, 3)):
            self._assert_matches_elementwise(X, k, seed)

    def test_integer_valued_rows(self):
        rng = np.random.default_rng(51)
        X = rng.integers(-4, 5, size=(80, 12)).astype(float)
        for k, seed in ((60, 0), (40, 1), (10, 2)):
            self._assert_matches_elementwise(X, k, seed)

    def test_more_centers_than_distinct_rows(self):
        rng = np.random.default_rng(52)
        base = rng.normal(size=(6, 50))
        X = base[rng.integers(0, len(base), size=40)]
        for k, seed in ((20, 0), (39, 1), (6, 2)):
            self._assert_tie_rule(X, k, seed)

    def test_zero_rows_among_random_rows(self):
        rng = np.random.default_rng(53)
        X = np.concatenate([np.zeros((15, 30)), rng.normal(size=(25, 30))])
        X = X[rng.permutation(len(X))]
        for k, seed in ((30, 0), (10, 1), (39, 2)):
            self._assert_tie_rule(X, k, seed)

    def test_copies_read_zero_and_the_lowest_center_wins(self):
        # 5 distinct rows: seeding takes all 5 before it repeats one, every
        # row reads 0 from the first center that copies it, and each repeat
        # center, left empty, moves to the farthest row: row 0, as every
        # row reads 0. A second step, if any, changes nothing.
        rng = np.random.default_rng(59)
        base = rng.normal(size=(5, 9))
        group = np.concatenate([np.arange(5), rng.integers(0, 5, size=35)])
        X = base[group]
        for k, seed in ((6, 0), (8, 1), (20, 2)):
            centers, history = kmeans(X, k, np.random.default_rng(seed))
            assert 1 <= len(history) <= 2 and set(history) == {0.0}
            seeds = _elementwise_seeds(X, k, np.random.default_rng(seed))
            seed_groups = [int(np.flatnonzero((base == s).all(axis=1))[0]) for s in seeds]
            assert sorted(seed_groups[:5]) == list(range(5))
            for c in range(5):
                rows = np.flatnonzero(group == seed_groups[c])
                assert np.array_equal(_bits(centers[c]), _bits(X[rows].mean(axis=0)))
            assert np.array_equal(_bits(centers[5:]), _bits(np.broadcast_to(X[0], (k - 5, 9))))

    def test_copies_of_a_row_read_exactly_zero(self):
        rng = np.random.default_rng(54)
        X = np.concatenate([rng.normal(1e3, 1.0, size=(5, 200)), np.zeros((2, 200))])
        X = X[[0, 1, 0, 2, 3, 0, 4, 5, 6, 2]]
        # near-copies: the Gram form cancels below zero for these
        copies = len(X)
        X = np.concatenate([X, X[:3] + 1e-9 * rng.normal(size=(3, 200))])
        d2 = _sq_distances(X)
        assert np.array_equal(d2, d2.T)
        for i in range(len(X)):
            exact = np.sum((X - X[i]) ** 2, axis=1)
            if i < copies:
                assert np.array_equal(d2[i, :copies] == 0, exact[:copies] == 0)
            assert np.all(d2[i] >= 0)
            assert np.allclose(d2[i], exact, rtol=1e-9, atol=1e-6)

    def test_x_enters_one_product(self):
        # seeding and every Lloyd step read the distances of one Gram matrix
        for n_rows, k in ((60, 45), (150, 100), (150, 7)):
            X = np.random.default_rng(55).normal(size=(n_rows, 40))
            _ProductCounter.products = 0
            counted = kmeans(X.view(_ProductCounter), k, np.random.default_rng(0))
            assert len(counted[1]) > 1
            assert _ProductCounter.products == 1
            assert type(counted[0]) is np.ndarray
            _assert_same_kmeans(counted, kmeans(X, k, np.random.default_rng(0)))
            self._assert_matches_elementwise(X, k, 0)


def _kmeans_cases():
    """(name, X, ks): the shapes and values the Gram-space Lloyd steps must match."""
    rng = np.random.default_rng(56)
    negative_zeros = rng.normal(size=(40, 9))
    negative_zeros[rng.random(size=negative_zeros.shape) < 0.4] = -0.0
    # 5 distinct rows and k > 5: seeding repeats a center, and every repeat
    # gets no rows in the first assignment, so empty clusters are exercised
    repeated = rng.normal(size=(5, 9))[rng.integers(0, 5, size=40)]
    return [
        ("one-column", rng.normal(size=(50, 1)), (1, 2, 10, 25, 49)),
        ("nine-columns", rng.normal(3.0, 2.0, size=(60, 9)), (1, 2, 15, 45, 59)),
        ("negative-zeros", negative_zeros, (3, 20, 39)),
        ("repeated-rows", repeated, (6, 8, 20, 39)),
        ("integer-valued", rng.integers(-2, 3, size=(70, 9)).astype(float), (5, 30, 60)),
        ("k-at-least-n", rng.normal(size=(12, 9)), (12, 13, 40)),
        ("grid-width", rng.normal(size=(90, 4500)), (67, 45, 22)),
    ]


KMEANS_CASES = _kmeans_cases()


class TestKmeansGramLloyd:
    @pytest.mark.parametrize("name,X,ks", KMEANS_CASES, ids=[case[0] for case in KMEANS_CASES])
    def test_same_as_reference(self, name, X, ks):
        # duplicate rows tie in X space; there the tie rule decides
        if name == "repeated-rows":
            assert len(np.unique(X, axis=0)) < min(ks)
        for seed, k in enumerate(ks):
            got = kmeans(X, k, np.random.default_rng(seed))
            if name == "repeated-rows":
                ref = _reference_kmeans(X, k, np.random.default_rng(seed), lloyd=_tie_rule_lloyd)
            else:
                ref = _reference_kmeans(X, k, np.random.default_rng(seed))
            _assert_same_kmeans(got, ref, (name, k))
            assert got[0] is not X

    def test_lloyd_holds_one_centers_array(self):
        # the cluster-centroid shape of the imbalance grid at 25 % reduction:
        # 360 majority rows of 500 bins x 9 features, 270 centers; the X-space
        # steps held 2X, a centers copy and two [k, d] shift temporaries
        # (3.2x the centers array, measured)
        n, d, k = 360, 4500, 270
        X = np.random.default_rng(58).normal(size=(n, d))
        tracemalloc.start()
        try:
            kmeans(X, k, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * k * d * 8


class TestKmeans:
    def test_objective_non_increasing(self):
        rng = np.random.default_rng(13)
        X = np.concatenate(
            [rng.normal(c, 0.5, size=(40, 3)) for c in (-5.0, 0.0, 5.0)]
        )
        _, history = kmeans(X, 3, np.random.default_rng(1))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 4))
        centers, _ = kmeans(X, 1, np.random.default_rng(2))
        assert np.allclose(centers[0], X.mean(axis=0))

    def test_k_equals_n_returns_points(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(5, 2))
        centers, history = kmeans(X, 5, np.random.default_rng(3))
        assert np.array_equal(np.sort(centers, axis=0), np.sort(X, axis=0))
        assert history == [0.0]

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(16)
        means = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        X = np.concatenate([rng.normal(m, 0.3, size=(50, 2)) for m in means])
        centers, _ = kmeans(X, 3, np.random.default_rng(4))
        for m in means:
            assert np.min(np.linalg.norm(centers - m, axis=1)) < 1.0


class TestClusterCentroid:
    def test_counts_and_synthetic_flag(self):
        rng = np.random.default_rng(17)
        corpus = _corpus(rng, n_quad=20, n_fw=5, n_hex=5)
        out = cluster_centroid_undersample(corpus, 0.5, seed=1)
        quads = [i for i in out if i.label is VehicleType.QUADROTOR]
        assert len(quads) == 10
        assert all(i.synthetic for i in quads)
        assert _count(out, VehicleType.FIXED_WING) == 5

    def test_centroids_inside_bounding_box(self):
        rng = np.random.default_rng(18)
        corpus = _corpus(rng, n_quad=30, n_fw=3, n_hex=3)
        X = np.stack(
            [i.values.ravel() for i in corpus if i.label is VehicleType.QUADROTOR]
        )
        out = cluster_centroid_undersample(corpus, 0.75, seed=2)
        for inst in out:
            if inst.label is VehicleType.QUADROTOR:
                v = inst.values.ravel()
                assert np.all(v >= X.min(axis=0) - 1e-9)
                assert np.all(v <= X.max(axis=0) + 1e-9)


class TestAugmentation:
    def test_counts(self):
        rng = np.random.default_rng(19)
        corpus = _corpus(rng, n_quad=10, n_fw=4, n_hex=4)
        out = augment_timeseries(corpus, 2.5, AugmentSpec(), seed=1)
        assert _count(out, VehicleType.FIXED_WING) == 10
        assert _count(out, VehicleType.HEXAROTOR) == 10

    def test_identity_spec_reproduces_source_rows(self):
        # no crop, no drift, no reverse: augmented copies equal some original
        rng = np.random.default_rng(20)
        corpus = _corpus(rng, n_quad=4, n_fw=3, n_hex=3)
        spec = AugmentSpec(crop_min=1.0, drift_max=0.0, reverse_prob=0.0)
        out = augment_timeseries(corpus, 2.0, spec, seed=2)
        originals = {inst.values.tobytes() for inst in corpus}
        for inst in out:
            if inst.synthetic:
                assert inst.values.tobytes() in originals

    def test_reverse_only_flips_rows(self):
        values = np.arange(12, dtype=float).reshape(6, 2)
        spec = AugmentSpec(crop_min=1.0, drift_max=0.0, reverse_prob=1.0)
        out = _augment_one(values, spec, np.random.default_rng(0))
        assert np.array_equal(out, values[::-1])

    def test_drift_bounded_by_feature_range(self):
        rng = np.random.default_rng(21)
        values = rng.normal(0, 1, size=(50, 3))
        span = values.max(axis=0) - values.min(axis=0)
        spec = AugmentSpec(crop_min=1.0, drift_max=0.1, reverse_prob=0.0)
        for seed in range(20):
            out = _augment_one(values, spec, np.random.default_rng(seed))
            drift = np.abs(out - values).max(axis=0)
            assert np.all(drift <= 0.1 * span + 1e-9)

    def test_constant_feature_survives_drift(self):
        values = np.column_stack([np.full(20, 3.0), np.linspace(0, 1, 20)])
        spec = AugmentSpec(crop_min=1.0, drift_max=0.1, reverse_prob=0.0)
        out = _augment_one(values, spec, np.random.default_rng(5))
        assert np.all(out[:, 0] == 3.0)  # zero range, so zero drift

    def test_shape_preserved(self):
        rng = np.random.default_rng(22)
        values = rng.normal(size=(17, 4))
        for seed in range(10):
            out = _augment_one(values, AugmentSpec(), np.random.default_rng(seed))
            assert out.shape == (17, 4)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        corpus = _corpus(rng)
        a = augment_timeseries(corpus, 2.0, AugmentSpec(), seed=9)
        b = augment_timeseries(corpus, 2.0, AugmentSpec(), seed=9)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


class TestRebalanceDispatch:
    @pytest.mark.parametrize(
        "method",
        [
            METHOD_NONE,
            METHOD_RANDOM_OVERSAMPLE,
            METHOD_RANDOM_UNDERSAMPLE,
            METHOD_SMOTE,
            METHOD_CLUSTER_CENTROID,
            METHOD_AUGMENTATION,
        ],
    )
    def test_all_methods_run(self, method):
        rng = np.random.default_rng(24)
        corpus = _corpus(rng)
        out = rebalance(corpus, BalanceConfig(method=method, seed=1))
        assert len(out) > 0

    def test_none_is_copy(self):
        rng = np.random.default_rng(25)
        corpus = _corpus(rng)
        out = rebalance(corpus, BalanceConfig(method=METHOD_NONE))
        assert out == corpus and out is not corpus

    def test_unknown_method_rejected(self):
        with pytest.raises(Exception):
            BalanceConfig(method="bogus")

    def test_minority_factor_up_to_its_ceiling(self):
        assert BalanceConfig(minority_factor=MAX_MINORITY_FACTOR).minority_factor == 100.0
        for factor in (np.nextafter(MAX_MINORITY_FACTOR, np.inf), 1.0e300, 0.5):
            with pytest.raises(BalanceError, match="minority_factor must be in"):
                BalanceConfig(method=METHOD_SMOTE, minority_factor=factor)


class TestPurity:
    def test_clean_fold_passes(self):
        rng = np.random.default_rng(26)
        corpus = _corpus(rng, n_quad=6, n_fw=2, n_hex=2)
        fold_of = [0] * 5 + [1] * 5
        assert_test_fold_purity(corpus, fold_of, test_fold=1, expected_count=5)

    def test_synthetic_in_test_fold_rejected(self):
        rng = np.random.default_rng(27)
        corpus = _corpus(rng, n_quad=4, n_fw=2, n_hex=2)
        out = random_oversample(corpus, 2.0, seed=1)
        fold_of = [0] * len(corpus) + [1] * (len(out) - len(corpus))
        with pytest.raises(ContaminatedTestFold):
            assert_test_fold_purity(out, fold_of, test_fold=1, expected_count=len(out) - len(corpus))

    def test_wrong_count_rejected(self):
        rng = np.random.default_rng(28)
        corpus = _corpus(rng, n_quad=4, n_fw=2, n_hex=2)
        fold_of = [0] * 4 + [1] * 4
        with pytest.raises(ContaminatedTestFold):
            assert_test_fold_purity(corpus, fold_of, test_fold=1, expected_count=3)


# The rebalancers as they were before the shared oversampling loop: each
# oversampler ran its own loop over the minority classes.


def _reference_members(instances, cls):
    return [i for i, inst in enumerate(instances) if inst.label is cls]


def _reference_flatten(instances, indices):
    return np.stack([instances[i].values.ravel() for i in indices])


def _reference_synthetic(template, values, source_id):
    return SampledInstance(
        values=values,
        mask=np.ones_like(template.mask, dtype=bool),
        label=template.label,
        source_id=source_id,
        synthetic=True,
    )


def _reference_random_oversample(instances, factor, seed):
    rng = np.random.default_rng(seed)
    out = list(instances)
    for cls in balance.MINORITY_CLASSES:
        members = _reference_members(instances, cls)
        if not members:
            raise EmptyClass(f"no {cls.value} instances to oversample")
        extra = oversampled_count(len(members), factor) - len(members)
        if extra <= 0:
            continue
        picks = rng.integers(0, len(members), size=extra)
        for j, p in enumerate(picks):
            src = instances[members[p]]
            out.append(
                SampledInstance(
                    values=src.values.copy(),
                    mask=src.mask.copy(),
                    label=src.label,
                    source_id=f"{src.source_id}+dup{j}",
                    synthetic=True,
                )
            )
    return out


def _reference_random_undersample(instances, reduction, seed):
    rng = np.random.default_rng(seed)
    members = _reference_members(instances, balance.MAJORITY_CLASS)
    target = undersampled_count(len(members), reduction)
    kept = set()
    if members:
        picks = rng.choice(len(members), size=min(target, len(members)), replace=False)
        kept = {members[p] for p in picks}
    return [
        inst
        for i, inst in enumerate(instances)
        if inst.label is not balance.MAJORITY_CLASS or i in kept
    ]


def _reference_smote_oversample(instances, factor, k, seed):
    rng = np.random.default_rng(seed)
    out = list(instances)
    for cls in balance.MINORITY_CLASSES:
        members = _reference_members(instances, cls)
        if len(members) < 2:
            raise ClassSmallerThanK(f"{cls.value} has {len(members)} instances; SMOTE needs >= 2")
        extra = oversampled_count(len(members), factor) - len(members)
        if extra <= 0:
            continue
        X = _reference_flatten(instances, members)
        k_eff = min(k, len(members) - 1)
        neighbors = _broadcast_neighbors(X, k_eff)
        template = instances[members[0]]
        for j in range(extra):
            base = rng.integers(0, len(members))
            mate = neighbors[base, rng.integers(0, k_eff)]
            u = rng.random()
            vec = X[base] + u * (X[mate] - X[base])
            out.append(
                _reference_synthetic(
                    instances[members[base]],
                    vec.reshape(template.values.shape),
                    f"smote-{cls.value}-{j}",
                )
            )
    return out


def _reference_cluster_centroid(instances, reduction, seed):
    rng = np.random.default_rng(seed)
    members = _reference_members(instances, balance.MAJORITY_CLASS)
    target = max(undersampled_count(len(members), reduction), 1)
    if not members:
        return list(instances)
    X = _reference_flatten(instances, members)
    centers, _ = _reference_kmeans(X, target, rng)
    template = instances[members[0]]
    out = [inst for inst in instances if inst.label is not balance.MAJORITY_CLASS]
    for j, center in enumerate(centers):
        out.append(
            _reference_synthetic(template, center.reshape(template.values.shape), f"centroid-{j}")
        )
    return out


def _reference_augment_timeseries(instances, factor, spec, seed):
    rng = np.random.default_rng(seed)
    out = list(instances)
    for cls in balance.MINORITY_CLASSES:
        members = _reference_members(instances, cls)
        if not members:
            raise EmptyClass(f"no {cls.value} instances to augment")
        extra = oversampled_count(len(members), factor) - len(members)
        if extra <= 0:
            continue
        for j in range(extra):
            src = instances[members[rng.integers(0, len(members))]]
            values = _augment_one(src.values, spec, rng)
            out.append(_reference_synthetic(src, values, f"aug-{cls.value}-{j}"))
    return out


def _reference_rebalance(instances, config):
    method = config.method
    if method == METHOD_RANDOM_OVERSAMPLE:
        return _reference_random_oversample(instances, config.minority_factor, config.seed)
    if method == METHOD_RANDOM_UNDERSAMPLE:
        return _reference_random_undersample(instances, config.majority_reduction, config.seed)
    if method == METHOD_SMOTE:
        return _reference_smote_oversample(
            instances, config.minority_factor, config.smote_k, config.seed
        )
    if method == METHOD_CLUSTER_CENTROID:
        return _reference_cluster_centroid(instances, config.majority_reduction, config.seed)
    assert method == METHOD_AUGMENTATION
    return _reference_augment_timeseries(
        instances, config.minority_factor, AugmentSpec(), config.seed
    )


@pytest.fixture(scope="module")
def standardized_training_folds(small_corpus):
    """Each fold's standardized training split, as a trial's folds see them."""
    dataset, _ = build_dataset(small_corpus, BASELINE_SUBSET, SamplingConfig("average", 20))
    k = 4
    folds = ev.stratified_kfold(dataset.labels(), k=k, seed=0)
    splits = []
    for test_fold in range(k):
        train = [inst for inst, f in zip(dataset.instances, folds) if f != test_fold]
        splits.append(Scaler().fit(train).transform_all(train))
    return splits


@pytest.fixture(scope="module")
def grid_training_fold():
    """The standardized training split of fold 0 of 10 at n=500, on the
    benchmark's 400/40/40-flight corpus (seed 1): the grid's k-means and
    SMOTE shape, 360 quadrotors and 36 of each minority class."""
    dataset, _ = build_dataset(generate_corpus(400, 40, 40, seed=1), BASELINE_SUBSET,
                               SamplingConfig("average", 500))
    folds = ev.stratified_kfold(dataset.labels(), k=10, seed=0)
    train = [inst for inst, f in zip(dataset.instances, folds) if f != 0]
    return Scaler().fit(train).transform_all(train)


GRAM_SPACE_TRIALS = [t for t in imbalance_grid()
                     if t[-1].method in (METHOD_SMOTE, METHOD_CLUSTER_CENTROID)]


class TestSharedLoopEqualsReference:
    @pytest.mark.parametrize("trial", imbalance_grid(), ids=lambda t: f"trial{t[0]}")
    def test_grid_config_bit_identical_on_every_fold(self, trial, standardized_training_folds):
        config = trial[-1]
        for train in standardized_training_folds:
            out = rebalance(train, config)
            assert _same_instances(out, _reference_rebalance(train, config))
            assert len(out) > len(train) or config.method in balance.UNDERSAMPLE_METHODS

    @pytest.mark.parametrize("trial", GRAM_SPACE_TRIALS, ids=lambda t: f"trial{t[0]}")
    def test_grid_shaped_fold_bit_identical(self, trial, grid_training_fold):
        assert len(GRAM_SPACE_TRIALS) == 6
        config = trial[-1]
        out = rebalance(grid_training_fold, config)
        assert _same_instances(out, _reference_rebalance(grid_training_fold, config))

    @pytest.mark.parametrize(
        "new,reference,corpus_kwargs,error",
        [
            (lambda c: random_oversample(c, 1.5, 0),
             lambda c: _reference_random_oversample(c, 1.5, 0), {"n_fw": 0}, EmptyClass),
            (lambda c: random_oversample(c, 1.5, 0),
             lambda c: _reference_random_oversample(c, 1.5, 0), {"n_hex": 0}, EmptyClass),
            (lambda c: augment_timeseries(c, 1.5, AugmentSpec(), 0),
             lambda c: _reference_augment_timeseries(c, 1.5, AugmentSpec(), 0),
             {"n_hex": 0}, EmptyClass),
            (lambda c: smote_oversample(c, 2.0, 5, 0),
             lambda c: _reference_smote_oversample(c, 2.0, 5, 0), {"n_fw": 1}, ClassSmallerThanK),
        ],
        ids=["random-no-fw", "random-no-hex", "augment-no-hex", "smote-one-fw"],
    )
    def test_too_small_class_raises_the_same_error(self, new, reference, corpus_kwargs, error):
        corpus = _corpus(np.random.default_rng(60), **corpus_kwargs)
        with pytest.raises(error):
            reference(corpus)
        with pytest.raises(error):
            new(corpus)

    def test_duplicates_share_their_source_arrays(self):
        corpus = _corpus(np.random.default_rng(61), n_quad=4, n_fw=3, n_hex=3)
        out = random_oversample(corpus, 2.0, seed=2)
        for dup in out[len(corpus):]:
            src = next(inst for inst in corpus if dup.source_id.startswith(inst.source_id + "+"))
            assert dup.values is src.values and dup.mask is src.mask
            assert dup.synthetic and not src.synthetic

    @pytest.mark.parametrize("trial", imbalance_grid(), ids=lambda t: f"trial{t[0]}")
    def test_rebalancing_never_writes_instance_arrays(self, trial):
        corpus = _corpus(np.random.default_rng(62), n_quad=12, n_fw=5, n_hex=4)
        for inst in corpus:
            inst.values.setflags(write=False)
            inst.mask.setflags(write=False)
        out = rebalance(corpus, trial[-1])  # an in-place write would raise ValueError
        assert len(out) != len(corpus)
