// Tests for int8 post-training quantization: parameter math, calibration,
// and fp32-vs-int8 agreement of full model conversions.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <variant>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "quant/calibrate.hpp"
#include "quant/q_model.hpp"
#include "quant/q_types.hpp"
#include "replay/model_io.hpp"

namespace hawc {
namespace {

tensor random_tensor(std::vector<std::size_t> shape, rng& r, double scale = 1.0) {
    tensor t{std::move(shape)};
    for (std::size_t i = 0; i < t.size(); ++i) {
        t[i] = static_cast<float>(r.normal(0.0, scale));
    }
    return t;
}

TEST(quant_params, from_range_covers_zero) {
    const auto p = quant_params::from_range(0.5f, 2.0f);  // lo pushed to 0
    EXPECT_EQ(p.quantize(0.0f), p.zero_point);
    EXPECT_NEAR(p.dequantize(p.quantize(2.0f)), 2.0f, p.scale);
}

TEST(quant_params, symmetric_range) {
    const auto p = quant_params::from_range(-1.0f, 1.0f);
    EXPECT_NEAR(p.dequantize(p.quantize(0.7f)), 0.7f, p.scale);
    EXPECT_NEAR(p.dequantize(p.quantize(-0.7f)), -0.7f, p.scale);
}

TEST(quant_params, clamps_out_of_range) {
    const auto p = quant_params::from_range(-1.0f, 1.0f);
    EXPECT_EQ(p.quantize(100.0f), 127);
    EXPECT_EQ(p.quantize(-100.0f), -128);
}

TEST(quant_params, quantization_error_bounded_by_scale) {
    rng r{1};
    const auto p = quant_params::from_range(-3.0f, 5.0f);
    for (int i = 0; i < 500; ++i) {
        const float v = static_cast<float>(r.uniform(-3.0, 5.0));
        EXPECT_LE(std::abs(p.dequantize(p.quantize(v)) - v), p.scale * 0.5f + 1e-6f);
    }
}

TEST(quant_params, degenerate_range) {
    const auto p = quant_params::from_range(0.0f, 0.0f);
    EXPECT_GT(p.scale, 0.0f);
    EXPECT_EQ(p.quantize(0.0f), p.zero_point);
}

TEST(range_observer, tracks_min_max) {
    range_observer obs;
    tensor t{{3}};
    t[0] = -2.0f;
    t[1] = 0.5f;
    t[2] = 7.0f;
    obs.observe(t);
    EXPECT_FLOAT_EQ(obs.lo, -2.0f);
    EXPECT_FLOAT_EQ(obs.hi, 7.0f);
    tensor t2{{1}};
    t2[0] = -5.0f;
    obs.observe(t2);
    EXPECT_FLOAT_EQ(obs.lo, -5.0f);
}

TEST(q_tensor, roundtrip) {
    rng r{2};
    const tensor original = random_tensor({2, 3}, r, 2.0);
    const auto params = quant_params::from_range(-6.0f, 6.0f);
    const q_tensor q = quantize_tensor(original, params);
    const tensor back = dequantize_tensor(q);
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_NEAR(back[i], original[i], params.scale);
    }
}

/// Build, calibrate, and compare a conv net's int8 path to fp32.
TEST(quantize_model, conv_net_agreement) {
    rng r{3};
    sequential net;
    net.emplace<conv2d>(3, 8, 3, padding::same, r);
    net.emplace<batch_norm>(8);
    net.emplace<relu>();
    net.emplace<max_pool2d>(2);
    net.emplace<conv2d>(8, 12, 3, padding::same, r);
    net.emplace<batch_norm>(12);
    net.emplace<relu>();
    net.emplace<flatten>();
    net.emplace<dense>(12 * 4 * 4, 16, r);
    net.emplace<relu>();
    net.emplace<dense>(16, 2, r);

    // Put BN stats somewhere realistic.
    for (int i = 0; i < 20; ++i) (void)net.forward(random_tensor({8, 8, 8, 3}, r), true);

    std::vector<tensor> calibration;
    for (int i = 0; i < 32; ++i) calibration.push_back(random_tensor({1, 8, 8, 3}, r));
    const quantized_model q = quantize_model(net, calibration);

    // Argmax agreement on fresh inputs.
    std::size_t agree = 0;
    const std::size_t trials = 60;
    for (std::size_t i = 0; i < trials; ++i) {
        const tensor x = random_tensor({1, 8, 8, 3}, r);
        const tensor fp = net.forward(x, false);
        const tensor qo = q.forward(x);
        const bool fp_pos = fp.at(0, 1) > fp.at(0, 0);
        const bool q_pos = qo.at(0, 1) > qo.at(0, 0);
        if (fp_pos == q_pos) ++agree;
        // Logits stay in the same ballpark.
        EXPECT_NEAR(qo.at(0, 0), fp.at(0, 0), 0.6f + 0.3f * std::abs(fp.at(0, 0)));
    }
    EXPECT_GE(agree, trials * 9 / 10);
}

TEST(quantize_model, pointnet_style_net) {
    rng r{4};
    sequential net;
    net.emplace<conv2d>(3, 16, 1, padding::valid, r);
    net.emplace<batch_norm>(16);
    net.emplace<relu>();
    net.emplace<conv2d>(16, 32, 1, padding::valid, r);
    net.emplace<batch_norm>(32);
    net.emplace<relu>();
    net.emplace<global_max_pool>();
    net.emplace<flatten>();
    net.emplace<dense>(32, 2, r);
    for (int i = 0; i < 10; ++i) (void)net.forward(random_tensor({4, 20, 1, 3}, r), true);

    std::vector<tensor> calibration;
    for (int i = 0; i < 16; ++i) calibration.push_back(random_tensor({1, 20, 1, 3}, r));
    const quantized_model q = quantize_model(net, calibration);

    std::size_t agree = 0;
    for (int i = 0; i < 40; ++i) {
        const tensor x = random_tensor({1, 20, 1, 3}, r);
        const tensor fp = net.forward(x, false);
        const tensor qo = q.forward(x);
        if ((fp.at(0, 1) > fp.at(0, 0)) == (qo.at(0, 1) > qo.at(0, 0))) ++agree;
    }
    EXPECT_GE(agree, 34);
}

TEST(quantize_model, dense_only_net) {
    rng r{5};
    sequential net;
    net.emplace<dense>(10, 24, r);
    net.emplace<relu>();
    net.emplace<dense>(24, 8, r);
    net.emplace<relu>();
    net.emplace<dense>(8, 2, r);

    std::vector<tensor> calibration;
    for (int i = 0; i < 16; ++i) calibration.push_back(random_tensor({1, 10}, r));
    const quantized_model q = quantize_model(net, calibration);
    EXPECT_EQ(q.op_count(), 3u);

    std::size_t agree = 0;
    for (int i = 0; i < 40; ++i) {
        const tensor x = random_tensor({1, 10}, r);
        const tensor fp = net.forward(x, false);
        const tensor qo = q.forward(x);
        if ((fp.at(0, 1) > fp.at(0, 0)) == (qo.at(0, 1) > qo.at(0, 0))) ++agree;
    }
    EXPECT_GE(agree, 36);
}

TEST(quantize_model, batched_inference) {
    rng r{6};
    sequential net;
    net.emplace<dense>(4, 6, r);
    net.emplace<relu>();
    net.emplace<dense>(6, 2, r);
    std::vector<tensor> calibration{random_tensor({1, 4}, r), random_tensor({1, 4}, r)};
    const quantized_model q = quantize_model(net, calibration);
    const tensor batch = random_tensor({5, 4}, r);
    const tensor out = q.forward(batch);
    EXPECT_EQ(out.dim(0), 5u);
    EXPECT_EQ(out.dim(1), 2u);
    // Each row of a batched forward is the batch-1 forward of that row.
    for (std::size_t n = 0; n < 5; ++n) {
        tensor row{{1, 4}};
        for (std::size_t i = 0; i < 4; ++i) row[i] = batch[n * 4 + i];
        const tensor single = q.forward(row);
        EXPECT_EQ(single[0], out[n * 2]) << "row " << n;
        EXPECT_EQ(single[1], out[n * 2 + 1]) << "row " << n;
    }
}

// ---- Direct-loop reference forward ---------------------------------------
// The int8 contract written out as plain loops over the unpacked
// op.weights: int32 accumulation per output element, then the requant
// contract (kernels.hpp requant_fn) through quant_params::quantize. No
// im2col, packed weights or kernel table, so a blocking, packing or
// dispatch bug in quantized_model::forward cannot hide on both sides.

std::int8_t reference_requant(std::int32_t acc, float in_scale, float weight_scale, float bias,
                              bool relu, const quant_params& out_q) {
    float real = static_cast<float>(acc) * in_scale * weight_scale + bias;
    if (relu && real < 0.0f) real = 0.0f;
    return out_q.quantize(real);
}

q_tensor reference_conv(const q_conv_op& op, const q_tensor& in) {
    const std::size_t batch = in.shape[0];
    const std::size_t in_h = in.shape[1];
    const std::size_t in_w = in.shape[2];
    const std::size_t out_h = in_h + 2 * op.pad - op.kernel + 1;
    const std::size_t out_w = in_w + 2 * op.pad - op.kernel + 1;
    q_tensor out;
    out.shape = {batch, out_h, out_w, op.out_channels};
    out.params = op.out_q;
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow) {
                for (std::size_t oc = 0; oc < op.out_channels; ++oc) {
                    std::int32_t acc = 0;
                    for (std::size_t kh = 0; kh < op.kernel; ++kh) {
                        for (std::size_t kw = 0; kw < op.kernel; ++kw) {
                            const auto ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                            static_cast<std::ptrdiff_t>(op.pad);
                            const auto iw = static_cast<std::ptrdiff_t>(ow + kw) -
                                            static_cast<std::ptrdiff_t>(op.pad);
                            if (ih < 0 || iw < 0 || ih >= static_cast<std::ptrdiff_t>(in_h) ||
                                iw >= static_cast<std::ptrdiff_t>(in_w)) {
                                continue;  // zero padding: real 0, contributes nothing
                            }
                            for (std::size_t ic = 0; ic < op.in_channels; ++ic) {
                                const std::int32_t x =
                                    in.data[((n * in_h + static_cast<std::size_t>(ih)) * in_w +
                                             static_cast<std::size_t>(iw)) *
                                                op.in_channels +
                                            ic] -
                                    op.in_q.zero_point;
                                const std::int32_t w =
                                    op.weights[((kh * op.kernel + kw) * op.in_channels + ic) *
                                                   op.out_channels +
                                               oc];
                                acc += x * w;
                            }
                        }
                    }
                    out.data.push_back(reference_requant(acc, op.in_q.scale,
                                                         op.weight_scales[oc], op.bias[oc],
                                                         op.fused_relu, op.out_q));
                }
            }
        }
    }
    return out;
}

q_tensor reference_dense(const q_dense_op& op, const q_tensor& in) {
    q_tensor out;
    out.shape = {in.shape[0], op.out_features};
    out.params = op.out_q;
    for (std::size_t n = 0; n < in.shape[0]; ++n) {
        for (std::size_t o = 0; o < op.out_features; ++o) {
            std::int32_t acc = 0;
            for (std::size_t i = 0; i < op.in_features; ++i) {
                acc += (in.data[n * op.in_features + i] - op.in_q.zero_point) *
                       static_cast<std::int32_t>(op.weights[i * op.out_features + o]);
            }
            out.data.push_back(reference_requant(acc, op.in_q.scale, op.weight_scales[o],
                                                 op.bias[o], op.fused_relu, op.out_q));
        }
    }
    return out;
}

/// Max over `window` x `window` tiles (global: the whole plane).
q_tensor reference_max_pool(const q_tensor& in, std::size_t window_h, std::size_t window_w) {
    const std::size_t batch = in.shape[0];
    const std::size_t channels = in.shape[3];
    const std::size_t out_h = in.shape[1] / window_h;
    const std::size_t out_w = in.shape[2] / window_w;
    q_tensor out;
    out.shape = {batch, out_h, out_w, channels};
    out.params = in.params;
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow) {
                for (std::size_t c = 0; c < channels; ++c) {
                    std::int8_t best = -128;
                    for (std::size_t kh = 0; kh < window_h; ++kh) {
                        for (std::size_t kw = 0; kw < window_w; ++kw) {
                            best = std::max(
                                best, in.data[((n * in.shape[1] + oh * window_h + kh) *
                                                   in.shape[2] +
                                               ow * window_w + kw) *
                                                  channels +
                                              c]);
                        }
                    }
                    out.data.push_back(best);
                }
            }
        }
    }
    return out;
}

tensor reference_forward(const quantized_model& model, const tensor& input) {
    q_tensor x;
    x.shape = input.shape();
    x.params = model.input_params();
    for (std::size_t i = 0; i < input.size(); ++i) x.data.push_back(x.params.quantize(input[i]));
    for (std::size_t i = 0; i < model.op_count(); ++i) {
        const q_op& op = model.op_at(i);
        if (const auto* conv = std::get_if<q_conv_op>(&op)) {
            x = reference_conv(*conv, x);
        } else if (const auto* fc = std::get_if<q_dense_op>(&op)) {
            x = reference_dense(*fc, x);
        } else if (const auto* pool = std::get_if<q_pool_op>(&op)) {
            x = reference_max_pool(x, pool->window, pool->window);
        } else if (std::holds_alternative<q_global_pool_op>(op)) {
            x = reference_max_pool(x, x.shape[1], x.shape[2]);
        } else {
            x.shape = {x.shape[0], x.data.size() / x.shape[0]};
        }
    }
    tensor out{x.shape};
    for (std::size_t i = 0; i < x.data.size(); ++i) out[i] = x.params.dequantize(x.data[i]);
    return out;
}

/// Random inputs of `sample_shape` for batches of 1, 2 and 5 (so conv
/// pixel blocks span samples), seeded with NaN, +/-Inf, saturating
/// magnitudes and values that land exactly on a .5 rounding tie of the
/// input quantization.
std::vector<tensor> reference_inputs(const quant_params& in_q,
                                     std::vector<std::size_t> sample_shape, rng& r) {
    std::vector<float> edges = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(), 1.0e6f, -1.0e6f};
    std::size_t ties = 0;
    for (int k = -130; k <= 130; k += 7) {
        const float tie = (static_cast<float>(k) + 0.5f) * in_q.scale;
        const float q = tie / in_q.scale + static_cast<float>(in_q.zero_point);
        if (q - std::floor(q) == 0.5f) {
            edges.push_back(tie);
            ++ties;
        }
    }
    EXPECT_GT(ties, 10u) << "no exact .5 ties at scale " << in_q.scale;
    std::vector<tensor> inputs;
    for (const std::size_t batch : {1u, 2u, 5u}) {
        std::vector<std::size_t> shape{batch};
        shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
        tensor t = random_tensor(shape, r, 2.0);
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (r.uniform(0.0, 1.0) < 0.2) {
                t[i] = edges[static_cast<std::size_t>(r.uniform(0.0, 1.0) *
                                                      static_cast<double>(edges.size())) %
                             edges.size()];
            }
        }
        inputs.push_back(std::move(t));
    }
    return inputs;
}

/// quantized_model::forward equals the reference bit for bit on every
/// registered kernel tier.
void expect_forward_matches_reference(const quantized_model& q,
                                      std::vector<std::size_t> sample_shape, rng& r) {
    for (const tensor& input : reference_inputs(q.input_params(), std::move(sample_shape), r)) {
        const tensor want = reference_forward(q, input);
        for (const auto* tier : kernels::registered_kernels()) {
            kernels::set_active_kernels_for_testing(tier);
            const tensor got = q.forward(input);
            ASSERT_EQ(got.shape(), want.shape()) << tier->name;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i], want[i])
                    << tier->name << " batch " << input.dim(0) << " logit " << i;
            }
        }
        kernels::set_active_kernels_for_testing(nullptr);
    }
}

TEST(quantize_model, golden_model_forward_matches_direct_loop_reference) {
    const quantized_model q =
        replay::load_quantized_file(std::string{HAWC_GOLDEN_DIR} + "/hawc_int8.qmodel");
    ASSERT_TRUE(std::holds_alternative<q_conv_op>(q.op_at(0)));
    rng r{41};
    // The golden HAWC input: a 15 x 15 HAP grid with 7 channels.
    expect_forward_matches_reference(q, {15, 15, 7}, r);
}

TEST(quantize_model, padded_conv_net_forward_matches_direct_loop_reference) {
    // 12 output channels pad to 16 packed columns (padded_n != out_channels);
    // K = 27 is odd (pair padding); 81 pixels a sample put the first block
    // boundary inside the first sample; the second conv is unpadded.
    rng r{42};
    sequential net;
    net.emplace<conv2d>(3, 12, 3, padding::same, r);
    net.emplace<relu>();
    net.emplace<max_pool2d>(2);
    net.emplace<conv2d>(12, 12, 3, padding::valid, r);
    net.emplace<relu>();
    net.emplace<flatten>();
    net.emplace<dense>(12 * 2 * 2, 10, r);
    net.emplace<relu>();
    net.emplace<dense>(10, 2, r);
    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(random_tensor({1, 9, 9, 3}, r));
    const quantized_model q = quantize_model(net, calibration);
    ASSERT_NE(std::get<q_conv_op>(q.op_at(0)).packed.padded_n(), 12u);
    expect_forward_matches_reference(q, {9, 9, 3}, r);
}

TEST(quantize_model, wide_layer_forward_matches_direct_loop_reference) {
    // Layers past the forward's stack scratch: a 40 x 40 x 3 input (its
    // zero-bordered image) and a 17600-feature dense row both take the
    // heap, and a dense block holds a single row.
    rng r{43};
    sequential net;
    net.emplace<conv2d>(3, 11, 3, padding::same, r);
    net.emplace<relu>();
    net.emplace<flatten>();
    net.emplace<dense>(40 * 40 * 11, 2, r);
    std::vector<tensor> calibration;
    for (int i = 0; i < 4; ++i) calibration.push_back(random_tensor({1, 40, 40, 3}, r));
    const quantized_model q = quantize_model(net, calibration);
    expect_forward_matches_reference(q, {40, 40, 3}, r);
}

TEST(quantize_model, op_infos_track_shapes) {
    rng r{7};
    sequential net;
    net.emplace<conv2d>(2, 4, 3, padding::same, r);
    net.emplace<relu>();
    net.emplace<max_pool2d>(2);
    net.emplace<flatten>();
    net.emplace<dense>(4 * 3 * 3, 2, r);
    std::vector<tensor> calibration{random_tensor({1, 6, 6, 2}, r)};
    const quantized_model q = quantize_model(net, calibration);
    const auto infos = q.op_infos({6, 6, 2});
    ASSERT_EQ(infos.size(), 4u);  // conv(+relu), pool, flatten, dense
    EXPECT_EQ(infos[0].kind, op_kind::convolution);
    EXPECT_EQ(infos[0].macs, 6u * 6 * 4 * 3 * 3 * 2);
    EXPECT_EQ(infos[3].kind, op_kind::dense);
    EXPECT_EQ(infos[3].macs, 36u * 2);
}

TEST(quantize_model, relu_fusion_clamps_negative) {
    rng r{8};
    sequential net;
    net.emplace<dense>(2, 4, r);
    net.emplace<relu>();
    net.emplace<dense>(4, 2, r);
    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(random_tensor({1, 2}, r));
    const quantized_model q = quantize_model(net, calibration);
    EXPECT_EQ(q.op_count(), 2u);  // relu fused into the first dense
    const auto& op = std::get<q_dense_op>(q.op_at(0));
    EXPECT_TRUE(op.fused_relu);
}

TEST(quantize_model, rejects_empty_calibration) {
    rng r{9};
    sequential net;
    net.emplace<dense>(2, 2, r);
    EXPECT_THROW(quantize_model(net, {}), invalid_argument_error);
}

TEST(range_observer, skips_non_finite_values) {
    range_observer obs;
    tensor t{{1, 6}};
    t[0] = 1.5f;
    t[1] = std::numeric_limits<float>::quiet_NaN();
    t[2] = -2.0f;
    t[3] = std::numeric_limits<float>::infinity();
    t[4] = -std::numeric_limits<float>::infinity();
    t[5] = 0.5f;
    obs.observe(t);
    EXPECT_FLOAT_EQ(obs.lo, -2.0f);
    EXPECT_FLOAT_EQ(obs.hi, 1.5f);
    const quant_params p = obs.params();
    EXPECT_TRUE(std::isfinite(p.scale));
    EXPECT_GT(p.scale, 0.0f);
}

TEST(range_observer, all_non_finite_yields_usable_params) {
    range_observer obs;
    tensor t{{1, 2}};
    t[0] = std::numeric_limits<float>::quiet_NaN();
    t[1] = std::numeric_limits<float>::infinity();
    obs.observe(t);
    // Nothing finite was seen: params degrade to the degenerate-range
    // default rather than a NaN scale.
    const quant_params p = obs.params();
    EXPECT_TRUE(std::isfinite(p.scale));
    EXPECT_GT(p.scale, 0.0f);
}

TEST(quant_params, non_finite_inputs_quantize_deterministically) {
    const quant_params p = quant_params::from_range(-1.0f, 3.0f);
    EXPECT_EQ(p.quantize(std::numeric_limits<float>::quiet_NaN()),
              static_cast<std::int8_t>(p.zero_point));
    EXPECT_EQ(p.quantize(std::numeric_limits<float>::infinity()), 127);
    EXPECT_EQ(p.quantize(-std::numeric_limits<float>::infinity()), -128);
}

TEST(quant_params, from_range_survives_non_finite_bounds) {
    const quant_params p =
        quant_params::from_range(std::numeric_limits<float>::quiet_NaN(),
                                 std::numeric_limits<float>::infinity());
    EXPECT_TRUE(std::isfinite(p.scale));
    EXPECT_GT(p.scale, 0.0f);
    EXPECT_EQ(p.quantize(0.0f), p.zero_point);
}

TEST(quantize_model, nan_calibration_sample_does_not_poison_model) {
    rng r{21};
    sequential net;
    net.emplace<dense>(4, 6, r);
    net.emplace<relu>();
    net.emplace<dense>(6, 2, r);

    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(random_tensor({1, 4}, r));
    // One poisoned sample: a NaN and an Inf land in the input observer and
    // every activation observer downstream.
    calibration.push_back(random_tensor({1, 4}, r));
    calibration.back()[0] = std::numeric_limits<float>::quiet_NaN();
    calibration.back()[2] = std::numeric_limits<float>::infinity();

    const quantized_model q = quantize_model(net, calibration);
    const tensor out = q.forward(random_tensor({1, 4}, r));
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(std::isfinite(out[i])) << "logit " << i << " is non-finite";
    }
}

TEST(quantize_model, dense_rows_identical_across_thread_counts) {
    rng r{22};
    sequential net;
    net.emplace<dense>(32, 48, r);
    net.emplace<relu>();
    net.emplace<dense>(48, 2, r);
    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(random_tensor({1, 32}, r));
    const quantized_model q = quantize_model(net, calibration);
    const tensor batch = random_tensor({7, 32}, r);

    const std::size_t original = global_pool().thread_count();
    set_global_thread_count(1);
    const tensor reference = q.forward(batch);
    for (std::size_t threads : {2u, 3u, 5u, 8u}) {
        set_global_thread_count(threads);
        EXPECT_EQ(q.forward(batch), reference) << "at " << threads << " threads";
    }
    set_global_thread_count(original);
}

TEST(quantize_model, conv_relu_without_batch_norm_fuses) {
    rng r{23};
    sequential net;
    net.emplace<conv2d>(2, 4, 3, padding::same, r);
    net.emplace<relu>();  // no batch_norm between conv and relu
    net.emplace<flatten>();
    net.emplace<dense>(4 * 4 * 4, 2, r);  // trailing dense, no relu after

    std::vector<tensor> calibration;
    for (int i = 0; i < 8; ++i) calibration.push_back(random_tensor({1, 4, 4, 2}, r));
    const quantized_model q = quantize_model(net, calibration);

    ASSERT_EQ(q.op_count(), 3u);  // conv(+relu), flatten, dense
    const auto& conv_op = std::get<q_conv_op>(q.op_at(0));
    EXPECT_TRUE(conv_op.fused_relu);
    const auto& dense_op = std::get<q_dense_op>(q.op_at(2));
    EXPECT_FALSE(dense_op.fused_relu);

    // The grouping still computes the right thing: fused conv+relu output
    // matches fp32 argmax on most fresh inputs.
    std::size_t agree = 0;
    for (int i = 0; i < 40; ++i) {
        const tensor x = random_tensor({1, 4, 4, 2}, r);
        const tensor fp = net.forward(x, false);
        const tensor qo = q.forward(x);
        if ((fp.at(0, 1) > fp.at(0, 0)) == (qo.at(0, 1) > qo.at(0, 0))) ++agree;
    }
    EXPECT_GE(agree, 34);
}

TEST(quantize_model, rejects_unsupported_layer) {
    rng r{24};
    sequential net;
    net.emplace<dense>(4, 4, r);
    net.emplace<batch_norm>(4);   // bn after dense is fine (folded)...
    net.emplace<relu>();
    net.emplace<batch_norm>(4);   // ...but a standalone bn has no home
    std::vector<tensor> calibration{random_tensor({1, 4}, r)};
    EXPECT_THROW(quantize_model(net, calibration), invalid_argument_error);
}

TEST(quantize_model, weight_scales_per_channel) {
    rng r{10};
    sequential net;
    net.emplace<dense>(4, 3, r);
    // Blow up one output channel's weights: its scale must be larger.
    auto* fc = dynamic_cast<dense*>(&net.layer_at(0));
    ASSERT_NE(fc, nullptr);
    for (std::size_t i = 0; i < 4; ++i) fc->weights().value[i * 3 + 1] *= 50.0f;

    std::vector<tensor> calibration{random_tensor({1, 4}, r)};
    const quantized_model q = quantize_model(net, calibration);
    const auto& op = std::get<q_dense_op>(q.op_at(0));
    EXPECT_GT(op.weight_scales[1], op.weight_scales[0] * 10.0f);
    EXPECT_GT(op.weight_scales[1], op.weight_scales[2] * 10.0f);
}

// saturate_to_int8 is the single rounding point of the quantization stack
// (quantize_tensor and the int32-accumulator requantize in q_model). Pin
// the contract — half-away-from-zero, saturating — so a refactor to
// std::rint (round-to-even) or a truncating cast cannot slip in silently.
TEST(quant_params, rounding_is_half_away_from_zero) {
    quant_params p;  // scale 1, zero_point 0: quantize(x) == round(x)
    EXPECT_EQ(p.quantize(0.5f), 1);    // round-to-even would give 0
    EXPECT_EQ(p.quantize(1.5f), 2);
    EXPECT_EQ(p.quantize(2.5f), 3);    // round-to-even would give 2
    EXPECT_EQ(p.quantize(-0.5f), -1);  // truncation would give 0
    EXPECT_EQ(p.quantize(-2.5f), -3);
    EXPECT_EQ(p.quantize(0.49f), 0);
    EXPECT_EQ(p.quantize(-0.49f), 0);
}

TEST(quant_params, saturates_at_int8_endpoints) {
    quant_params p;
    EXPECT_EQ(p.quantize(127.4f), 127);
    EXPECT_EQ(p.quantize(127.5f), 127);  // would round to 128: saturates
    EXPECT_EQ(p.quantize(1000.0f), 127);
    EXPECT_EQ(p.quantize(-128.4f), -128);
    EXPECT_EQ(p.quantize(-1000.0f), -128);
    // Magnitudes past int32 range must still saturate, not overflow.
    EXPECT_EQ(saturate_to_int8(3.0e9f), 127);
    EXPECT_EQ(saturate_to_int8(-3.0e9f), -128);
}

TEST(quantize_model, dense_requantize_rounding_pinned) {
    // Hand-built 1x1 dense op with unit scales so every value is exactly
    // representable: acc = q_in * w, real = acc + bias. bias = 0.5 parks
    // `real` on the rounding boundary of the int32 -> int8 requantize.
    q_dense_op op;
    op.in_features = 1;
    op.out_features = 1;
    op.weights = {1};
    op.weight_scales = {1.0f};
    op.bias = {0.5f};

    quantized_model model;
    model.set_input_params(quant_params{});  // scale 1, zero_point 0
    model.add_op(op);

    tensor in{{1, 1}};
    in[0] = 2.0f;  // acc = 2, real = 2.5 -> half away from zero -> 3
    EXPECT_EQ(model.forward(in)[0], 3.0f);
    in[0] = -3.0f;  // real = -2.5 -> -3, not -2
    EXPECT_EQ(model.forward(in)[0], -3.0f);
    in[0] = 200.0f;  // input saturates to 127, real = 127.5 -> stays 127
    EXPECT_EQ(model.forward(in)[0], 127.0f);
}

}  // namespace
}  // namespace hawc
