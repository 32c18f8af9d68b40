// Tests for the chunked compressed corpus container (replay/container)
// and its byte codec (replay/codec): codec identity on empty / tiny /
// incompressible / highly-redundant / adversarial inputs, bounds-checked
// decoding of corrupted and truncated token streams (clean io_error,
// never UB), bit-exact container round trips for corpora and pole corpus
// sets, random access through the chunk index, the LRU streaming bound
// (a sequential walk decodes each chunk exactly once), an exhaustive
// single-byte corruption + truncation sweep over a whole container file,
// and replay parity: a packed corpus replays bit-identically to its
// in-memory original, and a fleet's healthy poles match solo replays of
// their streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet_manager.hpp"
#include "replay/codec.hpp"
#include "replay/container.hpp"
#include "replay/corpus_set.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::replay {
namespace {

// ---- helpers -------------------------------------------------------------

std::vector<char> to_bytes(const std::string& s) {
    return std::vector<char>(s.begin(), s.end());
}

/// Compress + decompress, asserting the identity.
void expect_codec_identity(const std::vector<char>& input) {
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    ASSERT_LE(packed.size(), lz_max_compressed_size(input.size()));
    const std::vector<char> unpacked =
        lz_decompress(packed.data(), packed.size(), input.size());
    EXPECT_EQ(unpacked, input);
}

// Synthetic pole capture in round_to_recorded (float32) precision, so
// container round trips are exact identities like envelope ones.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 180; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 90; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return round_to_recorded(cloud);
}

frame_corpus synth_corpus(std::uint64_t base_seed, std::size_t frames) {
    frame_corpus corpus;
    corpus.name = "synth";
    corpus.base_seed = base_seed;
    rng r{base_seed ^ 0xc0ffeeull};
    for (std::size_t i = 0; i < frames; ++i) {
        frame_record rec;
        const auto people = static_cast<std::size_t>(r.uniform_index(4));
        rec.ground_truth = static_cast<std::uint32_t>(people);
        rec.cloud = synth_frame(r, people);
        corpus.frames.push_back(std::move(rec));
    }
    return corpus;
}

pole_corpus_set synth_set(std::size_t poles, std::size_t frames) {
    pole_corpus_set set;
    set.name = "synth-set";
    for (std::size_t i = 0; i < poles; ++i) {
        pole_corpus pc;
        // Two appends: GCC 12's -Wrestrict false-positives on
        // operator+(const char*, std::string&&) at -O3.
        pc.pole_id = "p";
        pc.pole_id += std::to_string(i);
        pc.corpus = synth_corpus(900 + i, frames);
        set.poles.push_back(std::move(pc));
    }
    return set;
}

class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

supervisor_config det_config() {
    supervisor_config cfg;
    cfg.eps_selection_deadline_ms = 0.0;
    cfg.classification_deadline_ms = 0.0;
    cfg.frame_deadline_ms = 0.0;
    return cfg;
}

// ---- codec: identity -----------------------------------------------------

TEST(codec, empty_input_round_trips) { expect_codec_identity({}); }

TEST(codec, inputs_below_min_match_round_trip) {
    for (const char* s : {"a", "ab", "abc", "abcd", "abcde"}) {
        expect_codec_identity(to_bytes(s));
    }
}

TEST(codec, redundant_input_compresses_and_round_trips) {
    std::string text;
    for (int i = 0; i < 400; ++i) text += "the pole counted a crowd; ";
    const std::vector<char> input = to_bytes(text);
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    EXPECT_LT(packed.size(), input.size() / 4) << "repetitive text should shrink >4x";
    EXPECT_EQ(lz_decompress(packed.data(), packed.size(), input.size()), input);
}

TEST(codec, rle_style_runs_round_trip) {
    // Long single-byte and two-byte runs exercise the overlapping-match
    // (offset < match length) decode path.
    for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{100000}}) {
        expect_codec_identity(std::vector<char>(n, 'x'));
        std::vector<char> alt;
        for (std::size_t i = 0; i < n; ++i) alt.push_back(i % 2 ? 'a' : 'b');
        expect_codec_identity(alt);
    }
}

TEST(codec, incompressible_input_round_trips_within_bound) {
    rng r{123};
    std::vector<char> noise;
    for (int i = 0; i < 300000; ++i) {
        noise.push_back(static_cast<char>(r.uniform_index(256)));
    }
    const std::vector<char> packed = lz_compress(noise.data(), noise.size());
    ASSERT_LE(packed.size(), lz_max_compressed_size(noise.size()));
    EXPECT_EQ(lz_decompress(packed.data(), packed.size(), noise.size()), noise);
}

TEST(codec, skip_acceleration_bounds_work_on_noise) {
    // 1 MiB of float32 sensor noise has no match worth emitting. Skip
    // acceleration must give up on it after a small share of positions;
    // a step fixed at 1 hashes every position and walks full chains.
    rng r{2026};
    std::vector<float> noise(std::size_t{1} << 18);
    for (float& v : noise) v = static_cast<float>(r.uniform(-50.0, 50.0));
    const std::size_t n = noise.size() * sizeof(float);
    std::vector<char> packed;
    lz_work work;
    lz_compress_into(noise.data(), n, packed, &work);
    EXPECT_GT(work.hashed, 0u);
    EXPECT_LT(work.hashed + work.compared, n / 16)
        << "hashed " << work.hashed << ", compared " << work.compared << " on " << n << " bytes";
    EXPECT_LE(packed.size(), lz_max_compressed_size(n));

    // Redundant stretches after the noise still compress: blocks of 48
    // noise bytes and 208 bytes of one recorded point repeated. Each match
    // resets the step, so the next block's repeat is found at its start;
    // a step left wide (~180 bytes) skips most of it, and the tail packs
    // to ~76% of its size instead of ~21%.
    const float point[3] = {12.5f, -1.25f, -2.875f};
    std::vector<char> input(reinterpret_cast<const char*>(noise.data()),
                            reinterpret_cast<const char*>(noise.data()) + n);
    const std::size_t blocks = 1024;
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < 12; ++i) {
            const auto v = static_cast<float>(r.uniform(-50.0, 50.0));
            const auto* bytes = reinterpret_cast<const char*>(&v);
            input.insert(input.end(), bytes, bytes + sizeof(v));
        }
        for (std::size_t i = 0; i < 208; ++i) {
            input.push_back(reinterpret_cast<const char*>(point)[i % sizeof(point)]);
        }
    }
    lz_compress_into(input.data(), input.size(), packed);
    EXPECT_LT(packed.size(), lz_max_compressed_size(n) + blocks * 256 / 2);
    EXPECT_EQ(lz_decompress(packed.data(), packed.size(), input.size()), input);
}

TEST(codec, property_random_structured_inputs_round_trip) {
    // Fuzz-ish sweep: random mixtures of literal noise, repeated blocks
    // and long-range copies — the shapes the match finder must handle.
    rng r{20260809};
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<char> input;
        const std::size_t pieces = 1 + r.uniform_index(12);
        for (std::size_t p = 0; p < pieces; ++p) {
            switch (r.uniform_index(3)) {
                case 0: {  // noise
                    const std::size_t n = r.uniform_index(2000);
                    for (std::size_t i = 0; i < n; ++i) {
                        input.push_back(static_cast<char>(r.uniform_index(256)));
                    }
                    break;
                }
                case 1: {  // byte run
                    const std::size_t n = r.uniform_index(5000);
                    input.insert(input.end(), n, static_cast<char>(r.uniform_index(256)));
                    break;
                }
                default: {  // copy of an earlier window (long-range match)
                    if (input.empty()) break;
                    const std::size_t start = r.uniform_index(input.size());
                    const std::size_t len =
                        std::min(input.size() - start, 1 + r.uniform_index(4000));
                    std::vector<char> copy(input.begin() + static_cast<std::ptrdiff_t>(start),
                                           input.begin() +
                                               static_cast<std::ptrdiff_t>(start + len));
                    input.insert(input.end(), copy.begin(), copy.end());
                    break;
                }
            }
        }
        expect_codec_identity(input);
    }
}

// ---- codec: bounds-checked decode ----------------------------------------

TEST(codec, decompress_rejects_wrong_output_size) {
    const std::vector<char> input = to_bytes("abcdefgh abcdefgh abcdefgh abcdefgh!");
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), input.size() - 1), io_error);
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), input.size() + 1), io_error);
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), 0), io_error);
}

TEST(codec, decompress_survives_arbitrary_corruption) {
    // Every single-byte flip and every truncation of a real token stream
    // must either throw io_error or produce exactly dst_size bytes —
    // never scribble out of bounds (the ASan/UBSan phase would flag it).
    std::string text;
    for (int i = 0; i < 40; ++i) text += "pole " + std::to_string(i % 7) + " count; ";
    const std::vector<char> input = to_bytes(text);
    std::vector<char> packed = lz_compress(input.data(), input.size());

    std::vector<char> out(input.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        for (const char flip : {char(0xff), char(0x01), char(0x80)}) {
            std::vector<char> bad = packed;
            bad[i] = static_cast<char>(bad[i] ^ flip);
            try {
                lz_decompress_into(bad.data(), bad.size(), out.data(), out.size());
            } catch (const io_error&) {
                // clean rejection is the expected common case
            }
        }
    }
    for (std::size_t keep = 0; keep < packed.size(); ++keep) {
        try {
            lz_decompress_into(packed.data(), keep, out.data(), out.size());
            // One benign truncation exists: when the input ends on a
            // match, the stream carries a redundant empty terminal token,
            // and dropping it still decodes completely. A "successful"
            // truncated decode must therefore be byte-identical to the
            // original — anything else is a decoder bug.
            EXPECT_EQ(out, input) << "truncated stream of " << keep
                                  << " bytes decoded to different data";
        } catch (const io_error&) {
            // clean rejection: the expected outcome at almost every length
        }
    }
}

TEST(codec, decompress_rejects_adversarial_streams) {
    std::vector<char> out(64);
    // Token demanding literals the input does not carry.
    const std::vector<char> hungry = {char(0xf0), char(0xff)};
    EXPECT_THROW(lz_decompress_into(hungry.data(), hungry.size(), out.data(), out.size()),
                 io_error);
    // Match referencing before the start of the output (offset too big).
    const std::vector<char> back = {char(0x14), 'a', char(0x50), char(0x00), char(0x00)};
    EXPECT_THROW(lz_decompress_into(back.data(), back.size(), out.data(), out.size()),
                 io_error);
    // Zero offset (self-copy) is always invalid.
    const std::vector<char> zero = {char(0x14), 'a', char(0x00), char(0x00), char(0x00)};
    EXPECT_THROW(lz_decompress_into(zero.data(), zero.size(), out.data(), out.size()),
                 io_error);
    // Random garbage, many seeds: any outcome but UB.
    rng r{77};
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<char> junk;
        const std::size_t n = 1 + r.uniform_index(64);
        for (std::size_t i = 0; i < n; ++i) {
            junk.push_back(static_cast<char>(r.uniform_index(256)));
        }
        try {
            lz_decompress_into(junk.data(), junk.size(), out.data(), out.size());
        } catch (const io_error&) {
        }
    }
}

// ---- container: round trips ----------------------------------------------

TEST(container, corpus_round_trips_bit_exactly_across_chunk_sizes) {
    const frame_corpus corpus = synth_corpus(41, 9);
    for (const std::size_t frames_per_chunk : {std::size_t{1}, std::size_t{2},
                                               std::size_t{4}, std::size_t{64}}) {
        std::ostringstream out;
        pack_corpus(out, corpus, {.frames_per_chunk = frames_per_chunk});
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_EQ(reader.kind(), container_kind::corpus);
        EXPECT_EQ(reader.title(), corpus.name);
        ASSERT_EQ(reader.stream_count(), 1u);
        EXPECT_EQ(reader.frame_count(0), corpus.size());
        const std::size_t expect_chunks =
            (corpus.size() + frames_per_chunk - 1) / frames_per_chunk;
        EXPECT_EQ(reader.chunks().size(), expect_chunks) << frames_per_chunk;
        EXPECT_EQ(unpack_corpus(reader), corpus) << frames_per_chunk;
    }
}

TEST(container, corpus_set_round_trips_bit_exactly) {
    const pole_corpus_set set = synth_set(3, 7);
    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    EXPECT_EQ(reader.kind(), container_kind::corpus_set);
    ASSERT_EQ(reader.stream_count(), set.pole_count());
    for (std::uint32_t s = 0; s < set.pole_count(); ++s) {
        EXPECT_EQ(reader.stream(s).pole_id, set.poles[s].pole_id);
        EXPECT_EQ(reader.stream(s).base_seed, set.poles[s].corpus.base_seed);
    }
    EXPECT_EQ(unpack_corpus_set(reader), set);
}

TEST(container, non_finite_returns_compare_equal_and_round_trip) {
    // Every frame carries NaN returns: equality compares the recorded
    // float32 bit patterns, so a corpus equals itself and its round trip.
    record_config config;
    config.name = "nan";
    config.frames = 3;
    config.capture.sensor.channels = 16;
    config.capture.sensor.azimuth_steps = 256;
    config.inject_faults = true;
    config.faults.non_finite_prob = 1.0;
    const frame_corpus corpus = record_corpus(config);
    ASSERT_TRUE(std::any_of(corpus.frames[0].cloud.begin(), corpus.frames[0].cloud.end(),
                            [](const vec3& p) {
                                return std::isnan(p.x) || std::isnan(p.y) || std::isnan(p.z);
                            }));
    EXPECT_EQ(corpus, corpus);

    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 2});
    std::istringstream in{out.str()};
    container_reader reader{in};
    EXPECT_EQ(unpack_corpus(reader), corpus);
}

TEST(container, repacking_unpacked_frames_reproduces_the_bytes) {
    // A pack_* container is canonical: unpacking it and re-packing with
    // its own frames_per_chunk gives the same file, byte for byte.
    std::ostringstream corpus_out;
    pack_corpus(corpus_out, synth_corpus(79, 7), {.frames_per_chunk = 3});
    {
        std::istringstream in{corpus_out.str()};
        container_reader reader{in};
        std::ostringstream again;
        pack_corpus(again, unpack_corpus(reader), {.frames_per_chunk = reader.frames_per_chunk()});
        EXPECT_EQ(again.str(), corpus_out.str());
    }
    std::ostringstream set_out;
    pack_corpus_set(set_out, synth_set(3, 5), {.frames_per_chunk = 2});
    {
        std::istringstream in{set_out.str()};
        container_reader reader{in};
        std::ostringstream again;
        pack_corpus_set(again, unpack_corpus_set(reader),
                        {.frames_per_chunk = reader.frames_per_chunk()});
        EXPECT_EQ(again.str(), set_out.str());
    }
}

TEST(container, empty_corpus_round_trips) {
    frame_corpus corpus;
    corpus.name = "empty";
    corpus.base_seed = 5;
    std::ostringstream out;
    pack_corpus(out, corpus);
    std::istringstream in{out.str()};
    container_reader reader{in};
    EXPECT_EQ(reader.frame_count(0), 0u);
    EXPECT_EQ(reader.chunks().size(), 0u);
    EXPECT_EQ(unpack_corpus(reader), corpus);
}

TEST(container, random_access_serves_any_frame) {
    const frame_corpus corpus = synth_corpus(43, 10);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    // Deliberately cache-hostile order: alternate ends, then re-read.
    const std::size_t order[] = {9, 0, 5, 2, 8, 1, 9, 0, 4, 6, 3, 7};
    for (const std::size_t i : order) {
        EXPECT_EQ(reader.frame(0, i), corpus.frames[i]) << i;
    }
    EXPECT_THROW(reader.frame(0, corpus.size()), io_error);
    EXPECT_THROW(reader.frame(1, 0), invalid_argument_error);
}

TEST(container, sequential_walk_decodes_each_chunk_once) {
    const frame_corpus corpus = synth_corpus(47, 12);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    ASSERT_EQ(reader.chunks().size(), 4u);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(reader.frame(0, i), corpus.frames[i]);
        EXPECT_EQ(reader.cached_chunk_count(), 1u) << "streaming bound violated at " << i;
    }
    EXPECT_EQ(reader.chunks_decoded(), 4u) << "sequential walk should decode each chunk once";
}

TEST(container, lru_cache_capacity_bounds_residency) {
    const pole_corpus_set set = synth_set(3, 6);
    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 2});
    std::istringstream in{out.str()};
    container_reader reader{in, {.cached_chunks = 3}};
    // Round-robin across 3 streams: with capacity == stream count each
    // stream's hot chunk stays resident, so every chunk decodes once.
    for (std::size_t f = 0; f < 6; ++f) {
        for (std::uint32_t s = 0; s < 3; ++s) {
            EXPECT_EQ(reader.frame(s, f), set.poles[s].corpus.frames[f]);
        }
        EXPECT_LE(reader.cached_chunk_count(), 3u);
    }
    EXPECT_EQ(reader.chunks_decoded(), reader.chunks().size());
}

TEST(container, incompressible_chunks_are_stored_raw_and_compression_can_be_disabled) {
    const frame_corpus corpus = synth_corpus(53, 4);  // float noise: incompressible
    std::ostringstream packed_out;
    pack_corpus(packed_out, corpus);
    std::ostringstream raw_out;
    pack_corpus(raw_out, corpus, {.compress = false});
    // The codec can only ever shrink the file: raw fallback means the
    // compressed container is never larger than the uncompressed one.
    EXPECT_LE(packed_out.str().size(), raw_out.str().size());
    std::istringstream in{raw_out.str()};
    container_reader reader{in};
    for (const chunk_entry& chunk : reader.chunks()) {
        EXPECT_EQ(chunk.codec, chunk_codec::raw);
        EXPECT_EQ(chunk.stored_size, chunk.uncompressed_size);
    }
    EXPECT_EQ(unpack_corpus(reader), corpus);
}

TEST(container, writer_enforces_protocol) {
    std::ostringstream out;
    container_writer writer{out, container_kind::corpus, "t"};
    EXPECT_THROW(writer.append(0, frame_record{}), invalid_argument_error);  // no stream
    const std::uint32_t s = writer.add_stream("", "t", 1);
    writer.append(s, frame_record{});
    writer.finalize();
    EXPECT_TRUE(writer.finalized());
    EXPECT_THROW(writer.append(s, frame_record{}), invalid_argument_error);  // finalized
    EXPECT_THROW(writer.finalize(), invalid_argument_error);  // double finalize
}

// ---- container: corruption sweep -----------------------------------------

TEST(container, every_single_byte_flip_is_detected) {
    std::ostringstream corpus_out;
    pack_corpus(corpus_out, synth_corpus(59, 3), {.frames_per_chunk = 2});
    std::ostringstream set_out;
    pack_corpus_set(set_out, synth_set(2, 2), {.frames_per_chunk = 1});

    // Every byte of the file is covered by a validation: header fields,
    // chunk checksums, the index checksum, or the footer's exact-fit and
    // magic checks. Flipping any one byte must surface as io_error — at
    // open or at the frame read that touches the poisoned chunk.
    for (const std::string& bytes : {corpus_out.str(), set_out.str()}) {
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            std::string bad = bytes;
            bad[i] = static_cast<char>(bad[i] ^ 0xff);
            std::istringstream in{bad};
            EXPECT_THROW(
                {
                    container_reader reader{in};
                    for (std::uint32_t s = 0; s < reader.stream_count(); ++s) {
                        for (std::uint64_t f = 0; f < reader.frame_count(s); ++f) {
                            (void)reader.frame(s, f);
                        }
                    }
                },
                io_error)
                << "byte " << i << " of " << bytes.size();
        }
    }
}

TEST(container, every_truncation_is_detected) {
    const frame_corpus corpus = synth_corpus(61, 3);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 2});
    const std::string bytes = out.str();
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        std::istringstream in{bytes.substr(0, keep)};
        EXPECT_THROW(
            {
                container_reader reader{in};
                for (std::uint64_t f = 0; f < reader.frame_count(0); ++f) {
                    (void)reader.frame(0, f);
                }
            },
            io_error)
            << "kept " << keep << " of " << bytes.size();
    }
}

TEST(container, index_bounds_that_wrap_fail_at_open) {
    const frame_corpus corpus = synth_corpus(73, 2);
    std::ostringstream out;
    pack_corpus(out, corpus);
    const std::string bytes = out.str();
    const std::size_t footer = bytes.size() - 28;
    std::uint64_t index_offset = 0;
    std::uint64_t index_size = 0;
    std::memcpy(&index_offset, bytes.data() + footer, sizeof(index_offset));
    std::memcpy(&index_size, bytes.data() + footer + 8, sizeof(index_size));
    chunk_entry first;
    {
        std::istringstream in{bytes};
        const container_reader reader{in};
        ASSERT_EQ(reader.chunks().size(), 1u);
        first = reader.chunks()[0];
    }
    constexpr std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    auto put = [](std::string& b, std::size_t at, std::uint64_t v) {
        std::memcpy(b.data() + at, &v, sizeof(v));
    };
    // Re-sign the index so only the bounds checks stand between the
    // tampered fields and the reader.
    auto resign = [&](std::string& b) {
        put(b, footer + 16, fnv1a64(b.data() + index_offset, index_size));
    };

    {  // chunk [2^64-1, +1): the end wraps to 0 and would pass a summed check
        std::string bad = bytes;
        char sizes[24];  // file_offset | stored_size | uncompressed_size
        std::memcpy(sizes, &first.file_offset, 8);
        std::memcpy(sizes + 8, &first.stored_size, 8);
        std::memcpy(sizes + 16, &first.uncompressed_size, 8);
        const std::size_t at = bad.find(std::string_view{sizes, sizeof(sizes)}, index_offset);
        ASSERT_NE(at, std::string::npos);
        put(bad, at, top);
        put(bad, at + 8, 1);
        put(bad, at + 16, 1);  // a consistent 1-byte chunk, raw or lz
        resign(bad);
        std::istringstream in{bad};
        try {
            container_reader reader{in};
            FAIL() << "a wrapping chunk range opened cleanly";
        } catch (const io_error& e) {
            EXPECT_NE(std::string{e.what()}.find("outside the chunk region"), std::string::npos)
                << e.what();
        }
    }
    {  // footer: index_offset + index_size wraps onto the footer offset
        std::string bad = bytes;
        put(bad, footer, top - 3);          // 2^64 - 4
        put(bad, footer + 8, footer + 4);   // sum wraps to `footer`
        std::istringstream in{bad};
        try {
            container_reader reader{in};
            FAIL() << "a wrapping footer opened cleanly";
        } catch (const io_error& e) {
            EXPECT_NE(std::string{e.what()}.find("footer index bounds"), std::string::npos)
                << e.what();
        }
    }
}

TEST(container, rejects_header_tampering) {
    const frame_corpus corpus = synth_corpus(67, 2);
    std::ostringstream out;
    pack_corpus(out, corpus);
    const std::string bytes = out.str();

    auto patched = [&](std::size_t offset, std::uint16_t value) {
        std::string bad = bytes;
        std::memcpy(bad.data() + offset, &value, sizeof(value));
        return bad;
    };
    {  // future version
        std::istringstream in{patched(4, container_version + 1)};
        EXPECT_THROW(container_reader{in}, io_error);
    }
    {  // unknown header flags
        std::istringstream in{patched(6, 0x0001)};
        EXPECT_THROW(container_reader{in}, io_error);
    }
    {  // another artifact's magic is not a container
        std::istringstream in{std::string{"WXYZ then some junk that is long enough....."}};
        EXPECT_THROW(container_reader{in}, io_error);
    }
}

// ---- container: replay parity --------------------------------------------

TEST(container, replay_container_matches_replay_corpus_bit_for_bit) {
    const frame_corpus corpus = synth_corpus(71, 8);
    const extent_classifier classifier;

    frame_supervisor baseline_sup{det_config(), classifier};
    const replay_result baseline = replay_corpus(baseline_sup, corpus);

    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    frame_supervisor packed_sup{det_config(), classifier};
    const replay_result packed = replay_container(packed_sup, reader);

    ASSERT_EQ(packed.reports.size(), baseline.reports.size());
    for (std::size_t i = 0; i < baseline.reports.size(); ++i) {
        EXPECT_EQ(packed.reports[i].count, baseline.reports[i].count) << i;
        EXPECT_EQ(packed.reports[i].status, baseline.reports[i].status) << i;
    }
    EXPECT_EQ(packed.total_count, baseline.total_count);
    EXPECT_EQ(packed.absolute_count_error, baseline.absolute_count_error);
}

TEST(container, fleet_replay_from_container_matches_solo_replays) {
    const pole_corpus_set set = synth_set(3, 10);
    const extent_classifier classifier;

    std::vector<fleet::pole_setup> setups(set.pole_count());
    for (std::size_t i = 0; i < set.pole_count(); ++i) {
        setups[i].pole_id = set.poles[i].pole_id;
        setups[i].seed = set.poles[i].corpus.base_seed;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    fleet::fleet_manager fleet{fleet::fleet_config{}, setups};
    for (std::size_t i = 0; i < set.pole_count(); ++i) fleet.pole(i).set_record_history(true);

    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 4});
    std::istringstream in{out.str()};
    container_reader reader{in};
    const auto packed = fleet::replay_container_set(fleet, reader, 8);

    EXPECT_EQ(packed.ticks, 10u + 8u);
    EXPECT_EQ(packed.frames_submitted, set.total_frames());
    // Round-robin streaming widened the cache to one chunk per pole.
    EXPECT_EQ(reader.cache_capacity(), set.pole_count());
    EXPECT_EQ(reader.chunks_decoded(), reader.chunks().size());
    for (std::uint32_t p = 0; p < set.pole_count(); ++p) {
        frame_supervisor solo{det_config(), classifier};
        const replay_result want = replay_container(solo, reader, p);
        const auto& got = fleet.pole(p).history();
        ASSERT_EQ(got.size(), want.reports.size()) << "pole " << p;
        for (std::size_t f = 0; f < got.size(); ++f) {
            EXPECT_EQ(got[f].count, want.reports[f].count) << "pole " << p << " frame " << f;
            EXPECT_EQ(got[f].status, want.reports[f].status) << "pole " << p << " frame " << f;
        }
    }
}

TEST(container, fleet_replay_rejects_mismatched_containers) {
    const pole_corpus_set set = synth_set(2, 3);
    const extent_classifier classifier;
    std::vector<fleet::pole_setup> setups(2);
    for (std::size_t i = 0; i < 2; ++i) {
        setups[i].pole_id = set.poles[i].pole_id;
        setups[i].seed = set.poles[i].corpus.base_seed;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    fleet::fleet_manager fleet{{}, setups};

    {  // a plain corpus container is not a corpus set
        std::ostringstream out;
        pack_corpus(out, set.poles[0].corpus);
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_THROW(fleet::replay_container_set(fleet, reader), invalid_argument_error);
    }
    {  // stream seeds must match the fleet's pole seeds
        pole_corpus_set reseeded = set;
        reseeded.poles[1].corpus.base_seed ^= 1;
        std::ostringstream out;
        pack_corpus_set(out, reseeded);
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_THROW(fleet::replay_container_set(fleet, reader), invalid_argument_error);
    }
}

}  // namespace
}  // namespace hawc::replay
