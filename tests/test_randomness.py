"""Seeded streams: determinism, uniformity, and the exact mask identities."""
import numpy as np
import pytest

from auditfl.fixedpoint import FpVector, scale_by_dyadic
from auditfl.randomness import (
    MASK_BITS,
    RN_HI,
    RN_LO,
    CorrelatedPair,
    bounded_int_rows,
    bounded_int_vector,
    derive_seed,
    gen_correlated_pair,
    model_mask_share,
    prg,
    sign_bits,
    sign_vector,
)


class TestPrg:
    def test_empty_stream(self):
        assert prg(1, 0).shape == (0,)

    def test_determinism(self):
        assert np.array_equal(prg(42, 5), prg(42, 5))

    def test_prefix_property(self):
        long = prg(42, 100)
        assert np.array_equal(long[:10], prg(42, 10))

    def test_every_slice_starts_where_the_whole_stream_is(self):
        # a stream drawn a block at a time is the whole stream: Philox makes
        # 4 words per counter value, so this covers every start % 4
        whole = prg(42, 40)
        for start in range(40):
            for count in range(41 - start):
                assert np.array_equal(prg(42, count, start), whole[start : start + count])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            prg(1, 4, -1)

    def test_byte_frequency_chi_square(self):
        # 10^6 words -> 8 * 10^6 bytes; chi-square against uniform, 3 sigma
        words = prg(2024, 1_000_000)
        counts = np.bincount(words.view(np.uint8), minlength=256)
        n = counts.sum()
        expected = n / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        bound = 255 + 3 * np.sqrt(2 * 255)
        assert chi2 < bound, f"chi2 {chi2} exceeds 3-sigma bound {bound}"

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(prg(1, 16), prg(2, 16))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)

    def test_tag_order_matters(self):
        assert derive_seed(5, "a", "b") != derive_seed(5, "b", "a")

    def test_length_prefix_prevents_concatenation_collisions(self):
        assert derive_seed(5, "ab", "c") != derive_seed(5, "a", "bc")

    def test_bad_tag_type(self):
        with pytest.raises(TypeError):
            derive_seed(5, 1.5)


class TestSigns:
    def test_scalar_matches_vector_prefix(self):
        # the sign at position i does not depend on the stream's length
        seed = derive_seed(7, "signs")
        vec = sign_vector(seed, 40)
        for i in range(40):
            assert sign_vector(seed, i + 1)[i] == vec[i]

    def test_determinism(self):
        assert np.array_equal(sign_vector(9, 4), sign_vector(9, 4))

    def test_values_are_signs(self):
        vec = sign_vector(11, 1000)
        assert set(np.unique(vec)) <= {-1, 1}

    def test_balance_over_1e5(self):
        vec = sign_vector(123, 100_000)
        frac = float((vec == 1).mean())
        assert 0.49 <= frac <= 0.51

    def test_hamming_distance_between_seeds(self):
        a = sign_vector(1, 100_000)
        b = sign_vector(2, 100_000)
        diff = float((a != b).mean())
        assert 0.49 <= diff <= 0.51

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sign_vector(1, -1)


class TestPrvg:
    # the paper's PRVG vector is sign_vector(seed, n) * rn
    # (protocol.masked_forms draws it)

    def test_signs_match_sign_oracle(self):
        seed = derive_seed(3, "prvg")
        out = sign_vector(seed, 4) * 3
        assert set(np.unique(np.abs(out))) == {3}
        # sign k is 1 - 2 * (bit k of PRG word 0)
        word = int(prg(seed, 1)[0])
        assert out.tolist() == [3 * (1 - 2 * ((word >> k) & 1)) for k in range(4)]

    def test_unit_magnitude(self):
        out = sign_vector(17, 64)
        assert set(np.unique(out)) == {-1, 1}

    def test_zero_rn_rejected(self):
        # rn comes only from correlated pairs, which never hold a zero
        with pytest.raises(ValueError):
            CorrelatedPair(rn_i=0, rn_s=5, l=0)

    def test_mask_identity(self):
        # entrywise product of a correlated pair's two mask vectors == l
        for seed in range(50):
            pair = gen_correlated_pair(seed)
            signs = sign_vector(seed, 33)
            assert np.all((signs * pair.rn_i) * (signs * pair.rn_s) == pair.l)


class TestCorrelatedPair:
    def test_l_always_positive(self):
        for seed in range(200):
            assert gen_correlated_pair(seed).l > 0

    def test_hand_product(self):
        pair = CorrelatedPair(rn_i=-300, rn_s=-500, l=150000)
        assert pair.l == 150000

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            CorrelatedPair(rn_i=300, rn_s=-500, l=-150000)
        with pytest.raises(ValueError):
            CorrelatedPair(rn_i=300, rn_s=500, l=7)

    def test_bounds_hold_over_1000_samples(self):
        for seed in range(1000):
            pair = gen_correlated_pair(seed)
            assert RN_LO <= abs(pair.rn_i) <= RN_HI
            assert RN_LO <= abs(pair.rn_s) <= RN_HI
            assert (pair.rn_i > 0) == (pair.rn_s > 0)


class TestModelMaskShares:
    def test_single_round_identity(self):
        m = model_mask_share(1, 1, 8, 20, eta_exp=1)
        # m_1 is drawn from round index 0 of the seed, on the 2^1 lattice
        q = bounded_int_vector(derive_seed(1, "model-mask", 0), 8, MASK_BITS - 1)
        assert m == FpVector(q * 2, 20)
        # eta * m_1 is exact: raw(eta*m) = num * (raw(m) >> exp)
        assert np.array_equal(scale_by_dyadic(m, 1, 1).raw, q)

    def test_half_eta_even_raws(self):
        for r in range(1, 11):
            assert np.all(model_mask_share(2, r, 64, 20, eta_exp=1).raw % 2 == 0)

    def test_resummation_oracle_500_rounds(self):
        # the server's running total of eta * m_r against a big-int oracle
        running = FpVector.zeros(16, 20)
        total = [0] * 16
        for r in range(1, 501):
            m = model_mask_share(3, r, 16, 20, eta_exp=1)
            running = running + scale_by_dyadic(m, 1, 1)
            for k in range(16):
                total[k] += (1 * int(m.raw[k])) >> 1
        assert running.raw.tolist() == total

    def test_lattice_makes_eta_product_exact(self):
        for r in range(1, 6):
            m = model_mask_share(4, r, 32, 20, eta_exp=3)
            assert np.all(m.raw % 8 == 0)
            assert np.array_equal(scale_by_dyadic(m, 3, 3).raw * 8, m.raw * 3)


class TestBoundedIntVector:
    def test_range(self):
        v = bounded_int_vector(1, 10000, 12)
        assert v.min() >= -(1 << 12) and v.max() < (1 << 12)

    def test_determinism(self):
        assert np.array_equal(bounded_int_vector(2, 64, 20), bounded_int_vector(2, 64, 20))

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            bounded_int_vector(1, 4, 0)
        with pytest.raises(ValueError):
            bounded_int_vector(1, 4, 63)



def _philox_words(seed: int, count: int) -> np.ndarray:
    """The stream as first specified: a new Philox keyed by the seed."""
    key = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


class TestKernelsMatchReferenceFormulas:
    """The PRG and mask kernels reuse one generator and work in place; their
    output must equal the reference formulas word for word."""

    SEEDS = [0, 1, 2**64 - 1, 2**64, 2**128 - 1, derive_seed(7, "zero", 3)]
    DIMS = [0, 1, 2, 3, 5, 64, 1010]

    def test_prg(self):
        for seed in self.SEEDS:
            for dim in self.DIMS:
                assert np.array_equal(prg(seed, dim), _philox_words(seed, dim))

    def test_import_does_not_build_the_generator(self):
        # an audit never draws: importing the package and the auditor must
        # not import randomness, which builds the generator, nor load
        # numpy.random (about 2 MB of peak RSS in an audit process)
        import subprocess
        import sys

        code = ("import sys, auditfl, auditfl.auditor; "
                "sys.exit('numpy.random' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0

    def test_prg_after_other_streams(self):
        # a stream does not depend on which streams were drawn before it
        expected = _philox_words(5, 9)
        for dim in (1, 3, 4, 7):
            prg(6, dim)
            assert np.array_equal(prg(5, 9), expected)

    def test_sign_vector(self):
        # entry k's sign is 1 - 2 * (bit k % 64 of word k // 64)
        for seed in self.SEEDS:
            for dim in self.DIMS + [63, 65, 127, 128, 129]:
                words = [int(w) for w in _philox_words(seed, -(-dim // 64))]
                ref = [1 - 2 * ((words[k // 64] >> (k % 64)) & 1) for k in range(dim)]
                out = sign_vector(seed, dim)
                assert out.dtype == np.int64 and out.tolist() == ref

    def test_sign_vector_draws_one_word_per_64_signs(self, monkeypatch):
        from auditfl import randomness

        drawn = []
        real = randomness.prg
        monkeypatch.setattr(randomness, "prg",
                            lambda seed, count: drawn.append(count) or real(seed, count))
        for dim in (0, 1, 64, 65, 7850):
            sign_vector(3, dim)
        assert drawn == [0, 1, 1, 2, 123]

    def test_bounded_int_vector(self):
        for seed in self.SEEDS:
            for dim in self.DIMS:
                for bits in (1, 12, MASK_BITS, 62):
                    span = np.uint64(1) << np.uint64(bits + 1)
                    words = _philox_words(seed, dim)
                    ref = (words % span).astype(np.int64) - np.int64(1 << bits)
                    out = bounded_int_vector(seed, dim, bits)
                    assert out.dtype == np.int64 and np.array_equal(out, ref)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_stacked_rows_are_the_one_seed_streams(self, count):
        # row j of a stack of k seeds is seed j's stream, at every k
        seeds = self.SEEDS[:count]
        for dim in self.DIMS + [65]:
            bits = sign_bits(seeds, dim)
            assert bits.dtype == np.uint8 and bits.shape == (count, dim)
            for seed, row in zip(seeds, bits):
                assert np.array_equal(1 - 2 * row.astype(np.int64), sign_vector(seed, dim))
            shares = bounded_int_rows(seeds, dim)
            assert shares.dtype == np.int64 and shares.shape == (count, dim)
            for seed, row in zip(seeds, shares):
                assert np.array_equal(row, bounded_int_vector(seed, dim))
