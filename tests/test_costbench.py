import random
from decimal import Decimal

import pytest

from rollsim.costbench import (
    AddressCache,
    BloomFilter,
    CacheError,
    InvalidTolerance,
    NoTransactions,
    amortized_proof_cost,
    bloom_params,
    cache_calldata_savings,
    compression_stats,
    da_cost_comparison,
    fp_rate,
    load_corpus,
    overwrite_amortization,
    synthetic_batch_corpus,
)
from rollsim.validityrollup.statediff import MAINNET_DIFF_VECTOR, decode_state_diff


class TestBloomParams:
    def test_published_sizing_rows(self):
        assert bloom_params(1000, 0.01) == (9585, 6)
        assert bloom_params(1000, 0.001) == (14377, 9)

    def test_minimum_clamp(self):
        assert bloom_params(1, 0.5) == (1, 1)

    def test_invalid_tolerance(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidTolerance):
                bloom_params(1000, p)

    def test_size_independent_scaling(self):
        # k depends only on p: one million elements keeps k = 6 and 9
        m1, k1 = bloom_params(10**6, 0.01)
        m2, k2 = bloom_params(10**6, 0.001)
        assert (k1, k2) == (6, 9)
        assert m1 // 8 // 1000 in range(1100, 1250)  # about 1170 kB


class TestFpRate:
    def test_near_zero_when_sparse(self):
        assert fp_rate(10**6, 2, 1) < 1e-5

    def test_reference_point(self):
        assert fp_rate(9585, 6, 1000) == pytest.approx(0.01, abs=0.002)

    def test_saturates_to_one(self):
        assert fp_rate(100, 4, 10**6) == pytest.approx(1.0)


class TestBloomFilter:
    def test_query_before_insert(self):
        bloom = BloomFilter(1024, 3, seed=1)
        assert not bloom.query(b"anything")

    def test_no_false_negatives(self):
        bloom = BloomFilter.for_expected(500, 0.01, seed=2)
        members = [b"element-%d" % i for i in range(500)]
        for element in members:
            bloom.insert(element)
        assert all(bloom.query(element) for element in members)

    def test_empirical_rate_near_prediction(self):
        bloom = BloomFilter(9585, 6, seed=3)
        for i in range(1000):
            bloom.insert(b"member-%d" % i)
        hits = sum(1 for i in range(20_000) if bloom.query(b"absent-%d" % i))
        assert 0.005 <= hits / 20_000 <= 0.02

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range_is_refused(self, seed):
        # the seed is the 8-byte blake2b key of every probe
        with pytest.raises(ValueError, match="seed"):
            BloomFilter(1024, 3, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            BloomFilter.for_expected(10, 0.01, seed=seed)

    def test_largest_seed_probes(self):
        bloom = BloomFilter(1024, 3, seed=2**64 - 1)
        bloom.insert(b"member")
        assert bloom.query(b"member")

    def test_bits_only_ever_set(self):
        bloom = BloomFilter(256, 4, seed=4)
        popcounts = []
        for i in range(50):
            bloom.insert(b"%d" % i)
            popcounts.append(sum(bin(b).count("1") for b in bloom.bits))
        assert all(a <= b for a, b in zip(popcounts, popcounts[1:]))


class TestAddressCache:
    def test_first_key_is_one(self):
        cache = AddressCache()
        assert cache.write(0xABCDEF) == 1

    def test_read_zero_is_not_found(self):
        cache = AddressCache()
        cache.write(5)
        with pytest.raises(CacheError, match="key not found"):
            cache.read(0)

    def test_duplicate_write(self):
        cache = AddressCache()
        cache.write(5)
        with pytest.raises(CacheError, match="address already cached"):
            cache.write(5)

    def test_full_cache(self):
        cache = AddressCache(capacity=2)
        cache.write(1)
        cache.write(2)
        with pytest.raises(CacheError, match="cache is full"):
            cache.write(3)

    def test_round_trip_dense_keys_100k(self):
        cache = AddressCache()
        n = 100_000
        keys = [cache.write(10_000 + v) for v in range(n)]
        assert keys == list(range(1, n + 1))  # dense, no gaps
        for key in range(1, n + 1, 97):
            assert cache.read(key) == 10_000 + key - 1
        assert cache.read(n) == 10_000 + n - 1

    def test_lookup_sentinel(self):
        cache = AddressCache()
        assert cache.lookup(42) == 0
        cache.write(42)
        assert cache.lookup(42) == 1

    def test_savings_are_80_percent(self):
        assert cache_calldata_savings() == pytest.approx(0.8)


class TestAmortization:
    def test_reference_division(self):
        assert amortized_proof_cost(267_830, 200) == Decimal("1339.15")

    def test_single_tx(self):
        assert amortized_proof_cost(500, 1) == Decimal("500.00")

    def test_zero_gas(self):
        assert amortized_proof_cost(0, 10) == Decimal("0.00")

    def test_zero_txs(self):
        with pytest.raises(NoTransactions):
            amortized_proof_cost(100, 0)

    def test_overwrite_amortization(self):
        assert overwrite_amortization(20_000, 4) == Decimal("5000.00")


class TestCompression:
    def test_repetitive_corpus_compresses_hard(self):
        corpus = [b"\x01\x02\x03\x04" * 400] * 4
        stats = compression_stats(corpus, group_size=4)
        assert stats.total_compressed_gas < 0.2 * stats.total_raw_gas

    def test_incompressible_reported_honestly(self):
        rng = random.Random(5)
        corpus = [rng.randbytes(2000)]
        stats = compression_stats(corpus, group_size=1)
        # zlib overhead on noise; no sugarcoating
        assert stats.total_compressed_gas >= stats.total_raw_gas

    def test_grouping_improves_on_fixture_corpus(self):
        corpus = synthetic_batch_corpus()
        grouped = compression_stats(corpus, group_size=len(corpus))
        single = compression_stats(corpus, group_size=1)
        assert grouped.total_compressed_gas <= single.total_compressed_gas
        assert single.total_compressed_gas <= single.total_raw_gas

    def test_corpus_file_round_trip(self, tmp_path):
        corpus = synthetic_batch_corpus(n_batches=3)
        path = tmp_path / "corpus.hex"
        path.write_text("".join(batch.hex() + "\n" for batch in corpus))
        assert load_corpus(path) == corpus

    def test_fixture_corpus_is_deterministic(self):
        assert synthetic_batch_corpus() == synthetic_batch_corpus()


class TestDaComparison:
    def test_reference_scenario(self):
        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        report = da_cost_comparison(diff)
        assert report.write_count == 10
        assert report.l1_storage_gas == 221_000
        assert report.validity_calldata_gas == 9240
        assert report.validity_ratio_percent == pytest.approx(4.18, abs=0.01)
        assert report.validity_proof_share == Decimal("1339.15")

    def test_ratios_recomputed_not_stored(self):
        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        report = da_cost_comparison(diff)
        assert "validity_ratio_percent" not in report.__dict__  # property, not field
        assert report.validity_ratio_percent == (
            100.0 * report.validity_calldata_gas / report.l1_storage_gas
        )

    def test_optimistic_side_uses_compression(self):
        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        corpus = tuple(synthetic_batch_corpus(n_batches=4))
        report = da_cost_comparison(diff, optimistic_batches=corpus)
        assert 0 < report.optimistic_compressed_gas < report.optimistic_raw_gas

    def test_report_serializations(self):
        import json

        diff = decode_state_diff(MAINNET_DIFF_VECTOR)
        report = da_cost_comparison(diff)
        payload = report.as_dict()
        assert json.loads(json.dumps(payload)) == payload  # JSON-ready as it stands
        assert payload["l1_storage_gas"] == 221_000
        text = report.to_text()
        assert "9240" in text and "221000" in text
