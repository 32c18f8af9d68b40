// Perf snapshot for the parallel frame engine: times the hot kernels,
// the end-to-end single-frame count at several pool sizes, the fleet
// occupancy read path, the observability event pipeline, and the
// corpus-container codec/pack/stream-decode path, and emits one JSON
// document (BENCH_PR9.json via scripts/bench_snapshot.sh). Each metric is
// a one-configuration run of the shared timing core (bench_common.hpp):
// the median over `rounds` rounds, with the interquartile range beside it
// as `<metric>_iqr`. scripts/perf_gate.sh checks the threads_1 block
// against the ceilings — and the corpus_container block against the
// floors — in bench/perf_floor.json.
//
// Usage: bench_snapshot [thread_count...]   (default: 1 4)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "classifiers/hawc_model.hpp"
#include "clustering/adaptive_eps.hpp"
#include "clustering/dbscan.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "counting/crowd_counter.hpp"
#include "features/height_features.hpp"
#include "fleet/occupancy.hpp"
#include "nn/activations.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/kernels.hpp"
#include "quant/calibrate.hpp"
#include "replay/codec.hpp"
#include "replay/container.hpp"

using namespace hawc;

namespace {

// Timed rounds per metric (after one warm-up round).
constexpr std::size_t rounds = 11;

using bench::timing_summary;

/// Cost per unit of work: each round's `scale` * ms / (items * units).
timing_summary cost(std::size_t items, double units, double scale,
                    const bench::timed_config& config) {
    std::vector<double> ms = bench::time_interleaved({&config, 1}, items, rounds).round_ms[0];
    for (double& x : ms) x *= scale / (static_cast<double>(items) * units);
    return bench::summarize(ms);
}

/// Throughput: each round's items * units per second.
timing_summary rate(std::size_t items, double units, const bench::timed_config& config) {
    std::vector<double> ms = bench::time_interleaved({&config, 1}, items, rounds).round_ms[0];
    for (double& x : ms) x = static_cast<double>(items) * units / (x / 1000.0);
    return bench::summarize(ms);
}

/// One `"key": median, "key_iqr": iqr` line.
void print_metric(const char* indent, const char* key, const timing_summary& s, int decimals,
                  bool last = false) {
    std::printf("%s\"%s\": %.*f, \"%s_iqr\": %.*f%s\n", indent, key, decimals, s.median, key,
                decimals, s.iqr, last ? "" : ",");
}

struct metrics {
    timing_summary kd_nearest_k9_us;
    timing_summary kd_radius_us;
    timing_summary dbscan_8k_ms;
    timing_summary height_variation_8k_ms;
    timing_summary adaptive_eps_8k_ms;
    timing_summary conv2d_us;
    timing_summary qconv_us;
    timing_summary qdense_us;
    timing_summary e2e_count_8k_ms;
};

/// Synthetic walkway crowd: upright person blobs inside the default ROI
/// plus clutter, ~8000 points at the default arguments.
point_cloud crowd_cloud(std::size_t people, std::size_t points_per_person,
                        std::uint64_t seed) {
    rng r{seed};
    point_cloud cloud;
    for (std::size_t p = 0; p < people; ++p) {
        const double cx = r.uniform(13.0, 34.0);
        const double cy = r.uniform(-2.2, 2.2);
        for (std::size_t i = 0; i < points_per_person; ++i) {
            cloud.push_back({cx + r.normal(0.0, 0.12), cy + r.normal(0.0, 0.12),
                             -2.55 + r.uniform(0.0, 1.7)});
        }
    }
    for (std::size_t i = 0; i < people * points_per_person / 4; ++i) {
        cloud.push_back({r.uniform(12.0, 35.0), r.uniform(-2.5, 2.5),
                         -2.55 + r.uniform(0.0, 0.3)});
    }
    return cloud;
}

metrics measure() {
    metrics m;
    const point_cloud cloud = crowd_cloud(100, 64, 42);

    const kd_tree tree{cloud};
    rng qr{7};
    std::vector<vec3> queries;
    for (int i = 0; i < 512; ++i) queries.push_back(cloud[qr.uniform_index(cloud.size())]);

    std::vector<neighbor> neighbors;
    m.kd_nearest_k9_us = cost(2, 512.0, 1000.0, {.run = [&](std::size_t) {
        double acc = 0;
        for (const auto& q : queries) {
            tree.nearest_into(q, 9, neighbors);
            acc += neighbors.back().distance;
        }
        volatile double sink = acc;
        (void)sink;
    }});

    std::vector<std::size_t> found;
    m.kd_radius_us = cost(2, 512.0, 1000.0, {.run = [&](std::size_t) {
        std::size_t acc = 0;
        for (const auto& q : queries) {
            tree.radius_search_into(q, 0.3, found);
            acc += found.size();
        }
        volatile std::size_t sink = acc;
        (void)sink;
    }});

    dbscan_config db;
    db.eps = 0.3;
    m.dbscan_8k_ms = cost(1, 1.0, 1.0, {.run = [&](std::size_t) {
        volatile std::size_t sink = dbscan(cloud, db).cluster_count;
        (void)sink;
    }});

    m.height_variation_8k_ms = cost(1, 1.0, 1.0, {.run = [&](std::size_t) {
        volatile double sink = height_variation(cloud, 8).back();
        (void)sink;
    }});

    m.adaptive_eps_8k_ms = cost(1, 1.0, 1.0, {.run = [&](std::size_t) {
        volatile double sink = adaptive_epsilon(cloud);
        (void)sink;
    }});

    {
        rng r{4};
        conv2d conv{7, 16, 3, padding::same, r};
        tensor input{{1, 18, 18, 7}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        m.conv2d_us = cost(20, 1.0, 1000.0, {.run = [&](std::size_t) {
            volatile float sink = conv.forward(input, false)[0];
            (void)sink;
        }});
    }

    {
        rng r{5};
        sequential net;
        net.emplace<conv2d>(7, 16, 3, padding::same, r);
        tensor input{{1, 18, 18, 7}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        quantized_model qm = quantize_model(net, {input});
        m.qconv_us = cost(20, 1.0, 1000.0, {.run = [&](std::size_t) {
            volatile float sink = qm.forward(input)[0];
            (void)sink;
        }});
    }

    {
        rng r{6};
        sequential net;
        net.emplace<dense>(512, 98, r);
        net.emplace<relu>();
        net.emplace<dense>(98, 2, r);
        tensor input{{8, 512}};
        for (std::size_t i = 0; i < input.size(); ++i) {
            input[i] = static_cast<float>(r.normal());
        }
        quantized_model qm = quantize_model(net, {input.slice_sample(0)});
        m.qdense_us = cost(50, 1.0, 1000.0, {.run = [&](std::size_t) {
            volatile float sink = qm.forward(input)[0];
            (void)sink;
        }});
    }

    {
        rng r{1};
        object_pool pool;
        pool.add_cloud(crowd_cloud(4, 64, 9));
        hawc_model model{hawc_config{}, std::move(pool), r};  // untrained: same compute
        const crowd_counter counter{capture_config{}, model};
        rng cr{2};
        m.e2e_count_8k_ms = cost(1, 1.0, 1.0, {.run = [&](std::size_t) {
            volatile std::size_t sink = counter.count(cloud, cr).count;
            (void)sink;
        }});
    }
    return m;
}

void print_metrics(const char* indent, const metrics& m) {
    print_metric(indent, "kd_nearest_k9_us_per_query", m.kd_nearest_k9_us, 4);
    print_metric(indent, "kd_radius_us_per_query", m.kd_radius_us, 4);
    print_metric(indent, "dbscan_8k_ms", m.dbscan_8k_ms, 3);
    print_metric(indent, "height_variation_8k_ms", m.height_variation_8k_ms, 3);
    print_metric(indent, "adaptive_eps_8k_ms", m.adaptive_eps_8k_ms, 3);
    print_metric(indent, "conv2d_18x18_7to16_us", m.conv2d_us, 3);
    print_metric(indent, "qconv_18x18_7to16_us", m.qconv_us, 3);
    print_metric(indent, "qdense_b8_512to98to2_us", m.qdense_us, 3);
    print_metric(indent, "e2e_count_8k_ms", m.e2e_count_8k_ms, 3, /*last=*/true);
}

// Fleet occupancy read path: how fast the seqlock board absorbs
// publishes and serves snapshots, alone and under reader contention.
struct fleet_metrics {
    timing_summary publish_us;
    timing_summary read_us;
    timing_summary cached_read_us;
    timing_summary contended_reads_per_us;
};

fleet_metrics measure_fleet(std::size_t poles) {
    fleet_metrics m;
    fleet::occupancy_board board{poles};
    fleet::occupancy_snapshot snap;
    snap.poles.resize(poles);
    for (std::size_t i = 0; i < poles; ++i) {
        snap.poles[i].count = i;
        snap.poles[i].epoch = 1;
        snap.poles[i].rung = fleet::pole_rung::live;
        snap.aggregate += i;
        ++snap.included;
    }
    board.publish(snap);

    constexpr std::size_t reps = 4096;
    m.publish_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
        for (std::size_t i = 0; i < reps; ++i) {
            ++snap.tick;
            board.publish(snap);
        }
    }});
    m.read_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < reps; ++i) acc += board.read().aggregate;
        volatile std::uint64_t sink = acc;
        (void)sink;
    }});
    {
        fleet::occupancy_reader reader{board};
        m.cached_read_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < reps; ++i) acc += reader.snapshot().aggregate;
            volatile std::uint64_t sink = acc;
            (void)sink;
        }});
    }
    // Three readers hammering the board for 10 ms while the writer
    // republishes: the service-facing contended read rate, in reads per
    // µs. The window is bounded in time, not in reads: a writer
    // publishing in a tight loop can starve a seqlock reader for as long
    // as it runs (indefinitely under ASan), and only the writer stopping
    // at the deadline lets the last read through.
    std::vector<double> reads;
    const bench::timed_config contended{.run = [&](std::size_t) {
        const deadline until = deadline::after_ms(10.0);
        std::atomic<std::uint64_t> total{0};
        std::vector<std::thread> readers;
        for (int t = 0; t < 3; ++t) {
            readers.emplace_back([&] {
                std::uint64_t n = 0;
                std::uint64_t acc = 0;
                while (!until.expired()) {
                    acc += board.read().aggregate;
                    ++n;
                }
                total += n;
                volatile std::uint64_t sink = acc;
                (void)sink;
            });
        }
        std::thread writer{[&] {
            while (!until.expired()) {
                ++snap.tick;
                board.publish(snap);
            }
        }};
        for (auto& r : readers) r.join();
        writer.join();
        reads.push_back(static_cast<double>(total.load()));
    }};
    const std::vector<double> ms = bench::time_interleaved({&contended, 1}, 1, rounds).round_ms[0];
    std::vector<double> per_us(rounds);
    for (std::size_t r = 0; r < rounds; ++r) per_us[r] = reads[r + 1] / (1000.0 * ms[r]);
    m.contended_reads_per_us = bench::summarize(per_us);
    return m;
}

// Observability hot paths: what one event, one recorded frame, and one
// SLO sweep cost a pole that is otherwise busy counting people.
struct obs_metrics {
    timing_summary event_publish_us;
    timing_summary event_suppressed_us;
    timing_summary recorder_record_us;
    timing_summary slo_evaluate_us;
    timing_summary json_tail_256_us;
};

obs_metrics measure_obs() {
    obs_metrics m;
    constexpr std::size_t reps = 4096;

    telemetry::event ev = telemetry::make_event(
        telemetry::event_kind::stage_failure, telemetry::event_severity::warning,
        "bench stage failure");
    ev.set_pole("pole-0");
    ev.add_field("streak", 3.0);

    {
        obs::event_log accepting{{.capacity = 1024, .tokens_per_tick = 0.0, .burst = 0.0}};
        m.event_publish_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
            for (std::size_t i = 0; i < reps; ++i) accepting.publish(ev);
        }});
        m.json_tail_256_us = cost(5, 1.0, 1000.0, {.run = [&](std::size_t) {
            volatile std::size_t sink = obs::to_json_lines(accepting.tail(256)).size();
            (void)sink;
        }});
    }
    {
        // One token ever: after the first accept, every publish takes the
        // token-bucket rejection path.
        obs::event_log suppressing{{.capacity = 64, .tokens_per_tick = 0.0, .burst = 1.0}};
        suppressing.publish(ev);
        m.event_suppressed_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
            for (std::size_t i = 0; i < reps; ++i) suppressing.publish(ev);
        }});
    }
    {
        const point_cloud frame = crowd_cloud(100, 64, 42);
        obs::flight_recorder recorder{{.frame_capacity = 16}, "pole-0", 7};
        const supervisor_carry carry;
        frame_report report;
        report.count = 100;
        // Batches of owned clouds, delivered outside the timer; the
        // recorder takes each by move, as pole_runtime does.
        constexpr std::size_t batch = 16;
        std::vector<point_cloud> inbox;
        m.recorder_record_us = cost(16, batch, 1000.0, {
            .prepare = [&](std::size_t) { inbox.assign(batch, frame); },
            .run = [&](std::size_t item) {
                for (std::size_t i = 0; i < batch; ++i) {
                    recorder.record(item * batch + i, 100, std::move(inbox[i]), carry, report);
                }
            }});
    }
    {
        telemetry::metrics_registry reg;
        telemetry::counter& dropped = reg.make_counter("bench_dropped_total", "bench");
        telemetry::counter& frames = reg.make_counter("bench_frames_total", "bench");
        telemetry::gauge& stale = reg.make_gauge("bench_staleness", "bench");
        stale.set(2.0);
        obs::slo_engine engine{reg, reg,
                               obs::parse_slo_rules(
                                   "alert drop_burn if "
                                   "ratio(bench_dropped_total/bench_frames_total) > 0.05 "
                                   "window 8/32 resolve 8\n"
                                   "alert staleness if value(bench_staleness) > 6 for 3\n")};
        std::uint64_t tick = 0;
        m.slo_evaluate_us = cost(4, reps, 1000.0, {.run = [&](std::size_t) {
            for (std::size_t i = 0; i < reps; ++i) {
                frames.add(10);
                dropped.add(i % 50 == 0 ? 1 : 0);
                engine.evaluate(tick++);
            }
        }});
    }
    return m;
}

// The corpus-container path (replay/container): packing a recorded
// corpus into chunked compressed "HWCC" form and streaming it back out,
// plus the raw codec on the two canonical inputs — float32 point clouds
// (the honest, nearly-incompressible case the fleet actually records)
// and redundant text (the JSONL/trace best case postmortem bundles see).
struct container_metrics {
    double uncompressed_mb = 0.0;
    double ratio = 1.0;                 // uncompressed / stored, cloud corpus
    timing_summary pack_mbps;           // uncompressed MB/s through pack_corpus
    timing_summary stream_decode_mbps;  // uncompressed MB/s through a frame walk
    timing_summary codec_cloud_compress_mbps;
    timing_summary codec_cloud_decompress_mbps;
    timing_summary codec_text_compress_mbps;
    timing_summary codec_text_decompress_mbps;
    double codec_text_ratio = 1.0;
};

container_metrics measure_container() {
    container_metrics m;

    replay::frame_corpus corpus;
    corpus.name = "bench";
    corpus.base_seed = 42;
    for (std::size_t f = 0; f < 32; ++f) {
        replay::frame_record rec;
        rec.ground_truth = 100;
        rec.cloud = replay::round_to_recorded(crowd_cloud(100, 64, 42 + f));
        corpus.frames.push_back(std::move(rec));
    }

    std::string packed;
    {
        std::ostringstream out;
        replay::pack_corpus(out, corpus, {.frames_per_chunk = 8});
        packed = out.str();
    }
    {
        std::uint64_t uncompressed = 0;
        std::uint64_t stored = 0;
        std::istringstream in{packed};
        replay::container_reader reader{in};
        for (const replay::chunk_entry& chunk : reader.chunks()) {
            uncompressed += chunk.uncompressed_size;
            stored += chunk.stored_size;
        }
        m.uncompressed_mb = static_cast<double>(uncompressed) / 1.0e6;
        m.ratio = static_cast<double>(uncompressed) / static_cast<double>(stored);
        m.pack_mbps = rate(1, m.uncompressed_mb, {.run = [&](std::size_t) {
            std::ostringstream out;
            replay::pack_corpus(out, corpus, {.frames_per_chunk = 8});
            packed = out.str();
        }});
        m.stream_decode_mbps = rate(1, m.uncompressed_mb, {.run = [&](std::size_t) {
            std::istringstream walk_in{packed};
            replay::container_reader walker{walk_in};
            std::size_t acc = 0;
            for (std::uint64_t f = 0; f < walker.frame_count(0); ++f) {
                acc += walker.frame(0, f).cloud.size();
            }
            volatile std::size_t sink = acc;
            (void)sink;
        }});
    }

    const auto codec_rate = [](const std::vector<char>& input, timing_summary* compress_mbps,
                               timing_summary* decompress_mbps) {
        const double mb = static_cast<double>(input.size()) / 1.0e6;
        std::vector<char> out;
        *compress_mbps = rate(1, mb, {.run = [&](std::size_t) {
            replay::lz_compress_into(input.data(), input.size(), out);
        }});
        std::vector<char> round(input.size());
        *decompress_mbps = rate(1, mb, {.run = [&](std::size_t) {
            replay::lz_decompress_into(out.data(), out.size(), round.data(), round.size());
        }});
        return static_cast<double>(input.size()) / static_cast<double>(out.size());
    };

    {
        std::vector<char> cloud_bytes;
        for (const auto& frame : corpus.frames) {
            for (const vec3& p : frame.cloud) {
                const float xyz[3] = {static_cast<float>(p.x), static_cast<float>(p.y),
                                      static_cast<float>(p.z)};
                const auto* raw = reinterpret_cast<const char*>(xyz);
                cloud_bytes.insert(cloud_bytes.end(), raw, raw + sizeof(xyz));
            }
            if (cloud_bytes.size() > (std::size_t{8} << 20)) break;
        }
        codec_rate(cloud_bytes, &m.codec_cloud_compress_mbps,
                   &m.codec_cloud_decompress_mbps);
    }
    {
        std::string text;
        while (text.size() < (std::size_t{4} << 20)) {
            text += "{\"kind\":\"stage_failure\",\"pole\":\"pole-0\",\"streak\":3}\n";
        }
        const std::vector<char> text_bytes(text.begin(), text.end());
        m.codec_text_ratio = codec_rate(text_bytes, &m.codec_text_compress_mbps,
                                        &m.codec_text_decompress_mbps);
    }
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::size_t> thread_counts;
    for (int i = 1; i < argc; ++i) {
        const long parsed = std::strtol(argv[i], nullptr, 10);
        if (parsed >= 1) thread_counts.push_back(static_cast<std::size_t>(parsed));
    }
    if (thread_counts.empty()) thread_counts = {1, 4};

    std::printf("{\n");
    std::printf("  \"bench\": \"hot-kernel perf snapshot (incl. int8 conv/dense)\",\n");
    std::printf("  \"cloud_points\": %zu,\n", crowd_cloud(100, 64, 42).size());
    std::printf("  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"kernel_isa\": \"%s\",\n", kernels::active_kernels().name);
    std::printf("  \"note\": \"thread-count sweeps above hardware_concurrency time-share "
                "cores and cannot show wall-clock parallel speedup\",\n");
    std::printf("  \"timing\": \"median over %zu rounds of the shared timing core; "
                "<metric>_iqr is the interquartile range\",\n",
                rounds);
    std::printf("  \"current\": {\n");
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        set_global_thread_count(thread_counts[t]);
        const metrics m = measure();
        std::printf("    \"threads_%zu\": {\n", thread_counts[t]);
        print_metrics("      ", m);
        std::printf("    }%s\n", t + 1 < thread_counts.size() ? "," : "");
    }
    std::printf("  },\n");

    const fleet_metrics fm = measure_fleet(16);
    std::printf("  \"fleet_occupancy_16_poles\": {\n");
    print_metric("    ", "publish_us", fm.publish_us, 4);
    print_metric("    ", "read_us", fm.read_us, 4);
    print_metric("    ", "cached_read_us", fm.cached_read_us, 4);
    print_metric("    ", "contended_reads_per_us_3_readers", fm.contended_reads_per_us, 2, true);
    std::printf("  },\n");

    const obs_metrics om = measure_obs();
    std::printf("  \"obs_event_pipeline\": {\n");
    print_metric("    ", "event_publish_us", om.event_publish_us, 4);
    print_metric("    ", "event_suppressed_us", om.event_suppressed_us, 4);
    print_metric("    ", "recorder_record_us", om.recorder_record_us, 4);
    print_metric("    ", "slo_evaluate_2_rules_us", om.slo_evaluate_us, 4);
    print_metric("    ", "events_to_jsonl_tail256_us", om.json_tail_256_us, 2, true);
    std::printf("  },\n");

    const container_metrics cm = measure_container();
    std::printf("  \"corpus_container\": {\n");
    std::printf("    \"uncompressed_mb\": %.2f,\n", cm.uncompressed_mb);
    std::printf("    \"cloud_corpus_ratio\": %.3f,\n", cm.ratio);
    print_metric("    ", "pack_mbps", cm.pack_mbps, 1);
    print_metric("    ", "stream_decode_mbps", cm.stream_decode_mbps, 1);
    print_metric("    ", "codec_cloud_compress_mbps", cm.codec_cloud_compress_mbps, 1);
    print_metric("    ", "codec_cloud_decompress_mbps", cm.codec_cloud_decompress_mbps, 1);
    print_metric("    ", "codec_text_compress_mbps", cm.codec_text_compress_mbps, 1);
    print_metric("    ", "codec_text_decompress_mbps", cm.codec_text_decompress_mbps, 1);
    std::printf("    \"codec_text_ratio\": %.1f\n", cm.codec_text_ratio);
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}
