#include "quant/q_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "nn/kernels/kernels.hpp"
#include "quant/requantize.hpp"

namespace hawc {

namespace {

/// GEMM rows per block: output pixels for a conv, batch rows for a dense
/// op. A block may span samples; one block is one im2col, one qgemm and
/// one requant pass.
constexpr std::size_t block_rows = 64;

/// Stack capacities (elements) of the per-call scratch arrays: a 64-row
/// block of every conv layer in the repo's models, and its input image,
/// fits.
constexpr std::size_t col_capacity = block_rows * 256;
constexpr std::size_t acc_capacity = block_rows * 64;
constexpr std::size_t image_capacity = 4096;

/// A scratch array of n elements, on the stack when n <= Capacity and
/// on the heap otherwise; it lives for one op call. The stack storage is
/// left uninitialised: every element an op reads, it has written first.
template <typename T, std::size_t Capacity>
class scratch_array {
public:
    explicit scratch_array(std::size_t n) {
        if (n > Capacity) heap_.resize(n);
    }
    T* data() { return heap_.empty() ? stack_.data() : heap_.data(); }

private:
    std::array<T, Capacity> stack_;
    std::vector<T> heap_;
};

/// Rows per block for a GEMM with this activation stride and padded
/// output width: as many as fit the stack capacities, at least one, at
/// most block_rows. (A single row wider than a capacity takes the heap.)
std::size_t rows_per_block(std::size_t a_stride, std::size_t padded_n) {
    return std::clamp(std::min(col_capacity / a_stride, acc_capacity / padded_n),
                      std::size_t{1}, block_rows);
}

/// Widen `count` int8 activations to int16 with the input zero point
/// removed, the form the int8 microkernels consume.
void widen(const std::int8_t* src, std::size_t count, std::int32_t zp, std::int16_t* dst) {
    for (std::size_t i = 0; i < count; ++i) {
        dst[i] = static_cast<std::int16_t>(static_cast<std::int32_t>(src[i]) - zp);
    }
}

q_tensor run_conv(const q_conv_op& op, const q_tensor& in) {
    HAWC_REQUIRE(in.shape.size() == 4, "q_conv expects rank-4 input");
    const std::size_t batch = in.shape[0];
    const std::size_t in_h = in.shape[1];
    const std::size_t in_w = in.shape[2];
    const std::size_t cin = op.in_channels;
    HAWC_REQUIRE(in.shape[3] == cin, "q_conv channel mismatch");
    const std::size_t out_h = in_h + 2 * op.pad - op.kernel + 1;
    const std::size_t out_w = in_w + 2 * op.pad - op.kernel + 1;
    const std::size_t oc = op.out_channels;

    q_tensor out;
    out.shape = {batch, out_h, out_w, oc};
    out.params = op.out_q;
    out.data.resize(batch * out_h * out_w * oc);

    const std::size_t K = op.kernel * op.kernel * cin;
    const std::size_t a_stride = kernels::q_row_stride(K);
    const std::size_t pn = op.packed.padded_n();
    const std::size_t rows = rows_per_block(a_stride, pn);
    const std::size_t padded_w = in_w + 2 * op.pad;
    const std::size_t sample_size = (in_h + 2 * op.pad) * padded_w * cin;
    scratch_array<std::int16_t, col_capacity> col{rows * a_stride};
    scratch_array<std::int32_t, acc_capacity> acc{rows * pn};
    scratch_array<std::int16_t, image_capacity> image{sample_size};
    const kernels::kernel_ops& kern = kernels::active_kernels();

    // Same im2col + GEMM structure as the float path (see nn/conv2d.cpp).
    // The current sample is widened once into `image`: (x - zp_in) as
    // int16 with a zero border of `pad` pixels, the real-valued zero the
    // padding stands for. Each output pixel's patch row, (kh, kw, ic)
    // ascending, is then `kernel` contiguous runs of that image. Pixels
    // walk the flattened (sample, row, column) space in blocks of `rows`;
    // a block may span samples, since a patch row is complete once
    // copied. Each pixel's accumulators depend only on its own patch row,
    // and integer accumulation is exact, so any blocking gives the same
    // int32 sums (kernels.hpp contract) and the same int8 outputs.
    std::fill(image.data(), image.data() + sample_size, std::int16_t{0});
    const auto load_sample = [&](std::size_t n) {
        for (std::size_t ih = 0; ih < in_h; ++ih) {
            widen(&in.data[(n * in_h + ih) * in_w * cin], in_w * cin, op.in_q.zero_point,
                  image.data() + ((ih + op.pad) * padded_w + op.pad) * cin);
        }
    };
    const std::size_t run = op.kernel * cin;
    const std::size_t pixels = batch * out_h * out_w;
    std::size_t n = 0;
    std::size_t oh = 0;
    std::size_t ow = 0;
    if (pixels > 0) load_sample(0);
    for (std::size_t p0 = 0; p0 < pixels; p0 += rows) {
        const std::size_t m = std::min(rows, pixels - p0);
        for (std::size_t i = 0; i < m; ++i) {
            std::int16_t* dst = col.data() + i * a_stride;
            const std::int16_t* src = image.data() + (oh * padded_w + ow) * cin;
            for (std::size_t kh = 0; kh < op.kernel; ++kh) {
                std::copy_n(src + kh * padded_w * cin, run, dst + kh * run);
            }
            std::fill(dst + K, dst + a_stride, std::int16_t{0});
            if (++ow < out_w) continue;
            ow = 0;
            if (++oh < out_h) continue;
            oh = 0;
            if (++n < batch) load_sample(n);
        }
        std::fill(acc.data(), acc.data() + m * pn, 0);
        kern.qgemm(col.data(), a_stride, op.packed, acc.data(), m);
        requantize_rows(kern, acc.data(), m, pn, oc, op.in_q.scale, op.weight_scales.data(),
                        op.bias.data(), op.out_q, op.fused_relu, &out.data[p0 * oc]);
    }
    return out;
}

q_tensor run_dense(const q_dense_op& op, const q_tensor& in) {
    HAWC_REQUIRE(in.shape.size() == 2, "q_dense expects rank-2 input");
    HAWC_REQUIRE(in.shape[1] == op.in_features, "q_dense feature mismatch");
    const std::size_t batch = in.shape[0];
    const std::size_t features = op.in_features;

    q_tensor out;
    out.shape = {batch, op.out_features};
    out.params = op.out_q;
    out.data.resize(batch * op.out_features);

    const std::size_t a_stride = kernels::q_row_stride(features);
    const std::size_t pn = op.packed.padded_n();
    const std::size_t rows = rows_per_block(a_stride, pn);
    scratch_array<std::int16_t, col_capacity> col{rows * a_stride};
    scratch_array<std::int32_t, acc_capacity> acc{rows * pn};
    const kernels::kernel_ops& kern = kernels::active_kernels();

    // Batch rows in blocks, one qgemm per block; as in run_conv, each
    // row's accumulators depend only on that row, so the blocking cannot
    // change a bit of the output.
    for (std::size_t r0 = 0; r0 < batch; r0 += rows) {
        const std::size_t m = std::min(rows, batch - r0);
        for (std::size_t i = 0; i < m; ++i) {
            std::int16_t* dst = col.data() + i * a_stride;
            widen(&in.data[(r0 + i) * features], features, op.in_q.zero_point, dst);
            std::fill(dst + features, dst + a_stride, std::int16_t{0});
        }
        std::fill(acc.data(), acc.data() + m * pn, 0);
        kern.qgemm(col.data(), a_stride, op.packed, acc.data(), m);
        requantize_rows(kern, acc.data(), m, pn, op.out_features, op.in_q.scale,
                        op.weight_scales.data(), op.bias.data(), op.out_q, op.fused_relu,
                        &out.data[r0 * op.out_features]);
    }
    return out;
}

q_tensor run_pool(const q_pool_op& op, const q_tensor& in) {
    HAWC_REQUIRE(in.shape.size() == 4, "q_pool expects rank-4 input");
    const std::size_t batch = in.shape[0];
    const std::size_t in_h = in.shape[1];
    const std::size_t in_w = in.shape[2];
    const std::size_t channels = in.shape[3];
    const std::size_t out_h = in_h / op.window;
    const std::size_t out_w = in_w / op.window;

    q_tensor out;
    out.shape = {batch, out_h, out_w, channels};
    out.params = in.params;  // max pooling preserves scale
    out.data.assign(batch * out_h * out_w * channels, -128);

    // Each output pixel is the element-wise max of the window's
    // contiguous channel vectors (NHWC); max is exact in any order.
    std::int8_t* dst = out.data.data();
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow, dst += channels) {
                for (std::size_t kh = 0; kh < op.window; ++kh) {
                    for (std::size_t kw = 0; kw < op.window; ++kw) {
                        const std::int8_t* src =
                            &in.data[((n * in_h + oh * op.window + kh) * in_w +
                                      ow * op.window + kw) *
                                     channels];
                        for (std::size_t c = 0; c < channels; ++c) {
                            dst[c] = std::max(dst[c], src[c]);
                        }
                    }
                }
            }
        }
    }
    return out;
}

q_tensor run_global_pool(const q_tensor& in) {
    HAWC_REQUIRE(in.shape.size() == 4, "q_global_pool expects rank-4 input");
    const std::size_t batch = in.shape[0];
    const std::size_t spatial = in.shape[1] * in.shape[2];
    const std::size_t channels = in.shape[3];

    q_tensor out;
    out.shape = {batch, 1, 1, channels};
    out.params = in.params;
    out.data.assign(batch * channels, -128);

    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t s = 0; s < spatial; ++s) {
            const std::int8_t* px = &in.data[(n * spatial + s) * channels];
            std::int8_t* out_px = &out.data[n * channels];
            for (std::size_t c = 0; c < channels; ++c) out_px[c] = std::max(out_px[c], px[c]);
        }
    }
    return out;
}

q_tensor run_flatten(const q_tensor& in) {
    q_tensor out = in;
    std::size_t features = 1;
    for (std::size_t d = 1; d < in.shape.size(); ++d) features *= in.shape[d];
    out.shape = {in.shape[0], features};
    return out;
}

}  // namespace

void quantized_model::add_op(q_op op) {
    // Pack conv/dense weights into the kernel layer's tiled layout once,
    // at model-build time. The unpacked row-major weights stay on the op
    // as the source of truth (serialization, the parity harness's scalar
    // reference, and introspection all read them).
    std::visit(
        [](auto& concrete) {
            using T = std::decay_t<decltype(concrete)>;
            if constexpr (std::is_same_v<T, q_conv_op>) {
                const std::size_t k =
                    concrete.kernel * concrete.kernel * concrete.in_channels;
                concrete.packed =
                    kernels::pack_qweights(concrete.weights.data(), k, concrete.out_channels);
            } else if constexpr (std::is_same_v<T, q_dense_op>) {
                concrete.packed = kernels::pack_qweights(
                    concrete.weights.data(), concrete.in_features, concrete.out_features);
            }
        },
        op);
    ops_.push_back(std::move(op));
}

tensor quantized_model::forward(const tensor& input) const {
    q_tensor x = quantize_tensor(input, input_params_);
    for (const auto& op : ops_) {
        x = std::visit(
            [&](const auto& concrete) -> q_tensor {
                using T = std::decay_t<decltype(concrete)>;
                if constexpr (std::is_same_v<T, q_conv_op>) return run_conv(concrete, x);
                else if constexpr (std::is_same_v<T, q_dense_op>) return run_dense(concrete, x);
                else if constexpr (std::is_same_v<T, q_pool_op>) return run_pool(concrete, x);
                else if constexpr (std::is_same_v<T, q_global_pool_op>) return run_global_pool(x);
                else return run_flatten(x);
            },
            op);
    }
    return dequantize_tensor(x);
}

std::vector<q_op_info> quantized_model::op_infos(std::vector<std::size_t> sample_shape) const {
    std::vector<q_op_info> infos;
    std::vector<std::size_t> shape = std::move(sample_shape);  // without batch dim
    for (const auto& op : ops_) {
        q_op_info info;
        std::visit(
            [&](const auto& concrete) {
                using T = std::decay_t<decltype(concrete)>;
                if constexpr (std::is_same_v<T, q_conv_op>) {
                    const std::size_t out_h = shape[0] + 2 * concrete.pad - concrete.kernel + 1;
                    const std::size_t out_w = shape[1] + 2 * concrete.pad - concrete.kernel + 1;
                    info.kind = op_kind::convolution;
                    info.macs = out_h * out_w * concrete.out_channels * concrete.kernel *
                                concrete.kernel * concrete.in_channels;
                    shape = {out_h, out_w, concrete.out_channels};
                } else if constexpr (std::is_same_v<T, q_dense_op>) {
                    info.kind = op_kind::dense;
                    info.macs = concrete.in_features * concrete.out_features;
                    shape = {concrete.out_features};
                } else if constexpr (std::is_same_v<T, q_pool_op>) {
                    info.kind = op_kind::pooling;
                    shape = {shape[0] / concrete.window, shape[1] / concrete.window, shape[2]};
                } else if constexpr (std::is_same_v<T, q_global_pool_op>) {
                    info.kind = op_kind::pooling;
                    shape = {1, 1, shape[2]};
                } else {
                    info.kind = op_kind::reshape;
                    std::size_t features = 1;
                    for (auto d : shape) features *= d;
                    shape = {features};
                }
            },
            op);
        infos.push_back(info);
    }
    return infos;
}

}  // namespace hawc
