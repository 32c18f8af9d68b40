#pragma once

// The fusion point between the kernel layer's int32 GEMM accumulators and
// the int8 activation stream: one pass per output row applies the
// per-channel dequantize-scale, the folded bias, the optional fused ReLU
// clamp, and the single rounding point of the whole quantization stack
// (saturate_to_int8 via quant_params::quantize — see q_types.hpp for the
// pinned half-away-from-zero contract).

#include <cstddef>
#include <cstdint>

#include "nn/kernels/kernels.hpp"
#include "quant/q_types.hpp"

namespace hawc {

/// Requantize a block of GEMM output rows: for i in [0, rows) and j in
/// [0, n),
///   out[i * n + j] = quantize((float(acc[i * acc_stride + j]) * in_scale)
///                             * weight_scales[j] + bias[j])
/// one dispatched fused requant call per row of the tier `kern`. The
/// contract keeps the exact pre-kernel-layer evaluation order — scaling
/// by in_scale first, then the per-channel weight scale — so requantized
/// outputs stay bit-identical to the old path (do not "optimise" this
/// into a precomputed combined scale: that changes float rounding and
/// breaks golden-corpus parity). Every tier is pinned bit-exact against
/// quant_params::quantize by tests/test_kernels.cpp.
inline void requantize_rows(const kernels::kernel_ops& kern, const std::int32_t* acc,
                            std::size_t rows, std::size_t acc_stride, std::size_t n,
                            float in_scale, const float* weight_scales, const float* bias,
                            const quant_params& out_q, bool fused_relu, std::int8_t* out) {
    for (std::size_t i = 0; i < rows; ++i) {
        kern.requant(acc + i * acc_stride, n, in_scale, weight_scales, bias, out_q.scale,
                     out_q.zero_point, fused_relu, out + i * n);
    }
}

}  // namespace hawc
