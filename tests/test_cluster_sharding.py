"""Tensor-parallel sharding: shapes, accounting, and layout tiling.

The load-bearing invariant: ``tp`` per-shard weight streams and KV
regions tile back to the unsharded image exactly — in parameter counts,
in bytes, and bit-for-bit through the interleaved superblock encoding.
"""

import numpy as np
import pytest

from repro.cluster.sharding import (
    functional_reduction_is_exact,
    shard_model_config,
    shard_quant_params,
    shard_stream_params,
    unshard_quant_params,
    validate_kv_tiling,
    validate_shard_tiling,
    validate_tp,
)
from repro.config import (LLAMA2_7B, SMALL_MODEL, TINY_MODEL, TINYLLAMA_1_1B,
                          W4A16_KV8)
from repro.errors import ConfigError, LayoutError
from repro.quant.groupquant import quantize_groups


class TestValidation:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_divisible_models_pass(self, tp):
        validate_tp(LLAMA2_7B, tp)
        validate_tp(TINY_MODEL, tp)

    def test_indivisible_heads_raise(self):
        with pytest.raises(ConfigError):
            validate_tp(TINY_MODEL, 3)  # 4 heads do not split 3 ways

    def test_gqa_kv_heads_bound_tp(self):
        # TinyLlama has 4 KV heads: tp=8 would split below one KV head.
        with pytest.raises(ConfigError):
            validate_tp(TINYLLAMA_1_1B, 8)

    def test_degree_zero_rejected(self):
        with pytest.raises(ConfigError):
            validate_tp(TINY_MODEL, 0)


class TestShardShapes:
    def test_shard_config_preserves_head_dim(self):
        cfg = shard_model_config(LLAMA2_7B, 4)
        assert cfg.head_dim == LLAMA2_7B.head_dim
        assert cfg.num_heads == LLAMA2_7B.num_heads // 4
        assert cfg.kv_heads == LLAMA2_7B.kv_heads // 4
        assert cfg.kv_dim == LLAMA2_7B.kv_dim // 4
        assert cfg.max_context == LLAMA2_7B.max_context

    def test_tp1_is_the_model_itself(self):
        assert shard_model_config(TINY_MODEL, 1) is TINY_MODEL

    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_projection_shapes_tile_the_full_matrices(self, tp):
        """The shard config the cycle model prices: column-parallel
        outputs (Q/K/V heads, gate/up channels) and row-parallel inputs
        (O, down) are 1/tp of the full matrices, so tp shards tile
        them back; the hidden width each shard reduces over stays
        whole per head."""
        shard = shard_model_config(LLAMA2_7B, tp)
        assert shard.num_heads * shard.head_dim * tp \
            == LLAMA2_7B.num_heads * LLAMA2_7B.head_dim
        assert shard.kv_dim * tp == LLAMA2_7B.kv_dim
        assert shard.intermediate_size * tp == LLAMA2_7B.intermediate_size
        assert shard.hidden_size * tp == LLAMA2_7B.hidden_size
        assert shard.num_layers == LLAMA2_7B.num_layers

    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_kv_bytes_tile_back(self, tp):
        """Each shard appends the K/V of its own heads only."""
        assert shard_model_config(LLAMA2_7B, tp).kv_bytes_per_token() * tp \
            == LLAMA2_7B.kv_bytes_per_token()

    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_stream_params_tile_back(self, tp):
        """tp shards together stream the full projections, and each
        repeats only the (replicated) norm weights."""
        per_shard = shard_stream_params(LLAMA2_7B, tp)
        total = per_shard * tp
        replicated_norms = (tp - 1) * LLAMA2_7B.norm_params()
        assert total == LLAMA2_7B.decode_stream_params() + replicated_norms

    @pytest.mark.parametrize("tp", [1, 2])
    def test_kv_region_tiling(self, tp):
        validate_kv_tiling(LLAMA2_7B, W4A16_KV8, tp)
        validate_kv_tiling(TINY_MODEL, W4A16_KV8, tp, context=32)


class TestQuantShardTiling:
    @pytest.fixture()
    def params(self, rng):
        return quantize_groups(rng.standard_normal((16, 128)), bits=4,
                               group_size=32)

    @pytest.mark.parametrize("axis", ["column", "row"])
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_shard_unshard_roundtrip(self, params, tp, axis):
        shards = shard_quant_params(params, tp, axis)
        assert len(shards) == tp
        back = unshard_quant_params(shards, axis)
        assert np.array_equal(back.codes, params.codes)
        assert np.array_equal(back.scales, params.scales)
        assert np.array_equal(back.zeros, params.zeros)

    @pytest.mark.parametrize("axis", ["column", "row"])
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_encoded_streams_tile_back(self, params, tp, axis):
        """Per-shard interleaved byte streams decode and stitch back to
        the exact unsharded image (the acceptance validation)."""
        validate_shard_tiling(params, tp, axis)

    def test_row_split_off_group_boundary_raises(self, rng):
        params = quantize_groups(rng.standard_normal((4, 96)), bits=4,
                                 group_size=32)
        # 96 columns / 2 = 48 is not a multiple of the 32-wide groups.
        with pytest.raises(LayoutError):
            shard_quant_params(params, 2, "row")

    def test_uneven_rows_raise(self, rng):
        params = quantize_groups(rng.standard_normal((6, 64)), bits=4,
                                 group_size=32)
        with pytest.raises(LayoutError):
            shard_quant_params(params, 4, "column")


class TestFunctionalSlices:
    def test_reduction_exactness_predicate(self):
        # Power-of-two widths within two DOT tiles: exact.
        assert functional_reduction_is_exact(TINY_MODEL, 2)
        assert functional_reduction_is_exact(TINY_MODEL, 4)
        assert functional_reduction_is_exact(SMALL_MODEL, 2)
        # 7B rows span 32+ accumulation tiles: a tree cannot replay the
        # sequential FP16 accumulator chain.
        assert not functional_reduction_is_exact(LLAMA2_7B, 2)
        # tp = 1 is trivially exact everywhere.
        assert functional_reduction_is_exact(LLAMA2_7B, 1)
