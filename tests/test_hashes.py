"""Tests for the LSH families (paper §2.2) and their probe alternatives."""

import numpy as np
import pytest

from repro.distances import angular, hamming, jaccard, normalize_rows
from repro.hashes import (
    BitSamplingFamily,
    CauchyProjectionFamily,
    CrossPolytopeFamily,
    HyperplaneFamily,
    MinHashFamily,
    RandomProjectionFamily,
    make_family,
)

ALL_REAL_FAMILIES = [
    lambda: RandomProjectionFamily(16, 24, w=4.0, seed=3),
    lambda: CrossPolytopeFamily(16, 24, cp_dim=8, seed=3),
    lambda: HyperplaneFamily(16, 24, seed=3),
]


# ----------------------------------------------------------------------
# Generic family contracts
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make", ALL_REAL_FAMILIES)
def test_hash_shapes_and_dtype(make, rng):
    fam = make()
    data = rng.normal(size=(50, 16))
    codes = fam.hash(data)
    assert codes.shape == (50, fam.m)
    assert codes.dtype == np.int64
    single = fam.hash(data[0])
    assert single.shape == (fam.m,)
    assert (single == codes[0]).all()


@pytest.mark.parametrize("make", ALL_REAL_FAMILIES)
def test_hash_deterministic_given_seed(make, rng):
    data = rng.normal(size=(20, 16))
    a = make().hash(data)
    b = make().hash(data)
    assert (a == b).all()


@pytest.mark.parametrize("make", ALL_REAL_FAMILIES)
def test_hash_rejects_wrong_dim(make, rng):
    fam = make()
    with pytest.raises(ValueError):
        fam.hash(rng.normal(size=(5, 7)))


@pytest.mark.parametrize("make", ALL_REAL_FAMILIES)
def test_alternatives_convention(make, rng):
    """Scores ascending, non-negative; alternative codes differ from chosen."""
    fam = make()
    q = rng.normal(size=16)
    codes, alts = fam.query_alternatives(q, max_alternatives=6)
    assert codes.shape == (fam.m,)
    assert len(alts) == fam.m
    for i, (alt_codes, alt_scores) in enumerate(alts):
        assert len(alt_codes) == len(alt_scores)
        assert (alt_scores >= -1e-12).all()
        assert (np.diff(alt_scores) >= -1e-12).all()
        assert all(c != codes[i] for c in alt_codes)


def test_invalid_constructor_args():
    with pytest.raises(ValueError):
        RandomProjectionFamily(0, 4)
    with pytest.raises(ValueError):
        RandomProjectionFamily(4, 0)
    with pytest.raises(ValueError):
        RandomProjectionFamily(4, 4, w=-1.0)
    with pytest.raises(ValueError):
        CrossPolytopeFamily(4, 4, cp_dim=0)


# ----------------------------------------------------------------------
# Random projection family (Eq. 1-2)
# ----------------------------------------------------------------------

def test_rp_collision_rate_matches_formula(rng):
    """Empirical per-function collision rate ~ Eq. 2 at the pair's distance."""
    fam = RandomProjectionFamily(8, 2000, w=4.0, seed=1)
    o = rng.normal(size=8)
    q = o + np.array([3.0] + [0.0] * 7)  # distance exactly 3
    ho, hq = fam.hash(o), fam.hash(q)
    emp = float((ho == hq).mean())
    assert fam.collision_probability(3.0) == pytest.approx(emp, abs=0.04)


def test_rp_close_pairs_collide_more(rng):
    fam = RandomProjectionFamily(8, 500, w=4.0, seed=2)
    base = rng.normal(size=8)
    near = base + 0.1
    far = base + 3.0
    collisions_near = (fam.hash(base) == fam.hash(near)).mean()
    collisions_far = (fam.hash(base) == fam.hash(far)).mean()
    assert collisions_near > collisions_far


def test_rp_project_matches_hash(rng):
    fam = RandomProjectionFamily(8, 16, w=4.0, seed=4)
    q = rng.normal(size=8)
    assert (np.floor(fam.project(q) / fam.w).astype(np.int64) == fam.hash(q)).all()


def test_rp_alternative_scores_are_boundary_distances(rng):
    fam = RandomProjectionFamily(8, 4, w=4.0, seed=5)
    q = rng.normal(size=8)
    raw = fam.project(q)
    codes, alts = fam.query_alternatives(q, max_alternatives=4)
    frac = raw - codes * fam.w
    for i in range(fam.m):
        alt_codes, alt_scores = alts[i]
        for c, s in zip(alt_codes, alt_scores):
            delta = c - codes[i]
            if delta > 0:
                expected = (delta * fam.w - frac[i]) ** 2
            else:
                expected = (frac[i] + (abs(delta) - 1) * fam.w) ** 2
            assert s == pytest.approx(expected)


# ----------------------------------------------------------------------
# Cross-polytope family (Eq. 3-4)
# ----------------------------------------------------------------------

def test_cp_codes_in_range(rng):
    fam = CrossPolytopeFamily(16, 32, cp_dim=8, seed=6)
    codes = fam.hash(rng.normal(size=(100, 16)))
    assert codes.min() >= 0
    assert codes.max() < 2 * fam.cp_dim


def test_cp_scale_invariance(rng):
    """Angular hashing must ignore vector magnitude."""
    fam = CrossPolytopeFamily(16, 32, cp_dim=8, seed=6)
    x = rng.normal(size=(20, 16))
    assert (fam.hash(x) == fam.hash(x * 7.5)).all()


def test_cp_zero_vector_raises():
    fam = CrossPolytopeFamily(4, 4, cp_dim=4, seed=0)
    with pytest.raises(ValueError):
        fam.hash(np.zeros((1, 4)))


def test_cp_close_pairs_collide_more(rng):
    fam = CrossPolytopeFamily(16, 600, cp_dim=8, seed=7)
    base = normalize_rows(rng.normal(size=16))
    near = normalize_rows(base + 0.1 * rng.normal(size=16))
    far = normalize_rows(rng.normal(size=16))
    c_near = (fam.hash(base) == fam.hash(near)).mean()
    c_far = (fam.hash(base) == fam.hash(far)).mean()
    assert c_near > c_far


def test_cp_chosen_vertex_is_best_scoring(rng):
    fam = CrossPolytopeFamily(12, 8, cp_dim=6, seed=8)
    q = rng.normal(size=12)
    codes, alts = fam.query_alternatives(q, max_alternatives=11)
    # With 2*cp_dim - 1 alternatives everything but the chosen one shows up.
    for i in range(fam.m):
        assert len(alts[i][0]) == 2 * fam.cp_dim - 1
        assert set(alts[i][0].tolist()) == (
            set(range(2 * fam.cp_dim)) - {int(codes[i])}
        )


# ----------------------------------------------------------------------
# Hyperplane family
# ----------------------------------------------------------------------

def test_hyperplane_collision_rate_matches_formula(rng):
    fam = HyperplaneFamily(8, 3000, seed=9)
    base = normalize_rows(rng.normal(size=8))
    other = normalize_rows(base + 0.7 * rng.normal(size=8))
    theta = angular(base, other)
    emp = float((fam.hash(base) == fam.hash(other)).mean())
    assert fam.collision_probability(theta) == pytest.approx(emp, abs=0.03)


def test_hyperplane_alternatives_flip_bits(rng):
    fam = HyperplaneFamily(8, 8, seed=10)
    q = rng.normal(size=8)
    codes, alts = fam.query_alternatives(q)
    for i in range(fam.m):
        assert alts[i][0].tolist() == [1 - codes[i]]


# ----------------------------------------------------------------------
# Bit sampling family
# ----------------------------------------------------------------------

def test_bit_sampling_collision_rate(rng):
    d = 64
    fam = BitSamplingFamily(d, 4000, seed=11)
    a = (rng.random(d) < 0.5).astype(np.int64)
    b = a.copy()
    flip = rng.choice(d, size=16, replace=False)
    b[flip] ^= 1
    dist = hamming(a, b)
    emp = float((fam.hash(a) == fam.hash(b)).mean())
    assert fam.collision_probability(dist) == pytest.approx(emp, abs=0.03)


def test_bit_sampling_alternatives_binary_only(rng):
    fam = BitSamplingFamily(8, 4, seed=12)
    q = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    codes, alts = fam.query_alternatives(q)
    for i in range(4):
        assert alts[i][0][0] == 1 - codes[i]
    with pytest.raises(ValueError):
        fam.query_alternatives(np.arange(8))


# ----------------------------------------------------------------------
# MinHash family
# ----------------------------------------------------------------------

def test_minhash_collision_rate(rng):
    universe = 200
    fam = MinHashFamily(universe, 2000, seed=13)
    a = np.zeros(universe, dtype=np.int64)
    b = np.zeros(universe, dtype=np.int64)
    a[:40] = 1
    b[20:60] = 1  # Jaccard similarity 20/60 = 1/3
    dist = jaccard(a, b)
    emp = float((fam.hash(a) == fam.hash(b)).mean())
    assert fam.collision_probability(dist) == pytest.approx(emp, abs=0.03)


def test_minhash_empty_sets_collide():
    fam = MinHashFamily(50, 16, seed=14)
    empty = np.zeros((2, 50))
    codes = fam.hash(empty)
    assert (codes[0] == codes[1]).all()


def test_minhash_no_probing(rng):
    fam = MinHashFamily(50, 8, seed=15)
    assert not fam.supports_probing
    with pytest.raises(NotImplementedError):
        fam.query_alternatives(np.zeros(50))


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------

def test_make_family_dispatch():
    assert isinstance(make_family("euclidean", 8, 4), RandomProjectionFamily)
    assert isinstance(make_family("angular", 8, 4), CrossPolytopeFamily)
    assert isinstance(
        make_family("angular", 8, 4, angular_family="hyperplane"), HyperplaneFamily
    )
    assert isinstance(make_family("hamming", 8, 4), BitSamplingFamily)
    assert isinstance(make_family("jaccard", 8, 4), MinHashFamily)
    with pytest.raises(ValueError):
        make_family("cosine", 8, 4)
    with pytest.raises(ValueError):
        make_family("angular", 8, 4, angular_family="nope")


def test_family_size_bytes_positive():
    for make in ALL_REAL_FAMILIES:
        assert make().size_bytes() > 0


# ----------------------------------------------------------------------
# Bucket codes must fit int64
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [
        lambda: RandomProjectionFamily(16, 24, w=4.0, seed=3),
        lambda: CauchyProjectionFamily(16, 24, w=4.0, seed=3),
    ],
)
@pytest.mark.parametrize("value", [1e150, -1e200, 1e308])
def test_projections_past_int64_are_refused(make, value):
    """A huge finite vector used to cast to an arbitrary code (with an
    'invalid value encountered in cast' warning) and so hash into an
    unrelated bucket; now hashing it, or asking for its probe
    alternatives, raises."""
    fam = make()
    vector = np.full(16, value)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 overflows
        with pytest.raises(ValueError, match="int64 bucket range"):
            fam.hash(vector)
        with pytest.raises(ValueError, match="int64 bucket range"):
            fam.hash(np.stack([np.zeros(16), vector]))
        with pytest.raises(ValueError, match="int64 bucket range"):
            fam.query_alternatives(vector)
    assert fam.hash(np.full(16, 1e6)).dtype == np.int64  # large, in range
