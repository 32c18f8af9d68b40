#pragma once

// Core quantization types: affine (scale, zero-point) parameters and the
// int8 tensor, following the TFLite post-training quantization scheme the
// paper applies (int8 asymmetric activations, symmetric per-channel
// weights, int32 accumulators).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace hawc {

/// Saturating float -> int8 conversion, the single rounding point of the
/// whole quantization stack (quantize_tensor, the int32-accumulator
/// requantize in q_model, calibration round trips). The contract, pinned
/// by tests/test_quant.cpp:
///   - rounding is half-away-from-zero (std::round): 0.5 -> 1, -0.5 -> -1;
///   - values outside [-128, 127] saturate to the nearest endpoint, so the
///     int8 cast is always in range (never implementation-defined);
///   - the caller guarantees `q` is finite (quant_params::quantize screens
///     NaN/Inf first — a NaN through std::clamp would be unordered and the
///     int8 cast of it undefined behaviour).
inline std::int8_t saturate_to_int8(float q) {
    const float rounded = std::round(q);
    return static_cast<std::int8_t>(std::clamp(rounded, -128.0f, 127.0f));
}

/// Affine quantization: real = scale * (q - zero_point).
struct quant_params {
    float scale = 1.0f;
    std::int32_t zero_point = 0;

    /// Derive parameters covering [lo, hi] with int8 range [-128, 127].
    static quant_params from_range(float lo, float hi);

    /// Inline (it sits under every int8 activation element): non-finite
    /// inputs must map deterministically — NaN through std::clamp is
    /// unordered (both comparisons false) and casting the resulting NaN
    /// to int8 is undefined behaviour. NaN carries no magnitude, so it
    /// maps to the zero code; infinities saturate like any out-of-range
    /// value. The kernel layer's requant and quantize tiers replicate
    /// this exact contract (nn/kernels/kernels.hpp; nn cannot link
    /// against quant) — tests/test_kernels.cpp pins them together.
    std::int8_t quantize(float real) const {
        if (!std::isfinite(real)) {
            if (std::isnan(real)) {
                return static_cast<std::int8_t>(std::clamp(zero_point, -128, 127));
            }
            return real > 0.0f ? std::int8_t{127} : std::int8_t{-128};
        }
        // real / scale is finite (scale >= span/255 > 0 from from_range)
        // and zero_point is already clamped to int8 range, so the sum
        // stays finite; saturate_to_int8 owns rounding + saturation.
        return saturate_to_int8(real / scale + static_cast<float>(zero_point));
    }
    float dequantize(std::int8_t q) const { return scale * (static_cast<float>(q) - static_cast<float>(zero_point)); }
};

/// Dense int8 tensor with a single (per-tensor) quantization parameter.
struct q_tensor {
    std::vector<std::size_t> shape;
    std::vector<std::int8_t> data;
    quant_params params;

    std::size_t size() const { return data.size(); }
};

/// Quantize a float tensor with the given parameters: quant_params::quantize
/// per element, through the dispatched kernel tier's quantize entry.
q_tensor quantize_tensor(const tensor& real, const quant_params& params);

/// Dequantize back to float (for the final logits).
tensor dequantize_tensor(const q_tensor& quantized);

/// Track min/max over observed activations (per-tensor calibration).
/// Non-finite values are skipped: a single NaN/Inf in a calibration
/// tensor must not poison the derived scale/zero_point.
struct range_observer {
    float lo = 0.0f;
    float hi = 0.0f;
    bool seen = false;

    void observe(const tensor& t);
    quant_params params() const;
};

}  // namespace hawc
