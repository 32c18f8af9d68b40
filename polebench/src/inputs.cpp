// The trained deployment and the seeded load generator.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "dataset/builders.hpp"
#include "lidar/scanner.hpp"
#include "polebench.hpp"
#include "replay/container.hpp"
#include "replay/model_io.hpp"
#include "replay/replay_driver.hpp"
#include "runtime/fault_injection.hpp"

namespace polebench {

using namespace hawc;

namespace {

// The golden model's architecture (it must match the checked-in fp32
// weights) and the seed of its throw-away initial weights.
constexpr std::uint64_t skeleton_seed = 11;

hawc_config golden_model_config() {
    hawc_config config;
    config.features.upsample.target_points = 225;
    config.features.projection.target_points = 225;
    config.conv_channels[0] = 8;
    config.conv_channels[1] = 12;
    config.conv_channels[2] = 16;
    config.hidden_units = 32;
    return config;
}

hawc_model load_fp32(const std::filesystem::path& dir, const object_pool& pool) {
    rng skeleton{skeleton_seed};
    hawc_model model{golden_model_config(), pool, skeleton};
    replay::load_weights_file(dir / "hawc_fp32.weights", model.network());
    return model;
}

/// Run `body(i)` for i in [0, count) on a few threads. Each index is
/// independent and seeded on its own, so the result does not depend on
/// the thread count.
template <typename Fn>
void generate_parallel(std::size_t count, Fn&& body) {
    const std::size_t workers =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            try {
                for (std::size_t i = w; i < count; i += workers) body(i);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace

capture_config golden_capture() {
    capture_config config;
    config.sensor.channels = 24;
    config.sensor.azimuth_steps = 720;
    config.min_cluster_points = 10;
    return config;
}

supervisor_config bench_supervisor(const capture_config& capture) {
    supervisor_config config;
    config.capture = capture;
    config.eps_selection_deadline_ms = 0.0;
    config.classification_deadline_ms = 0.0;
    config.frame_deadline_ms = 0.0;
    return config;
}

deployment::deployment(const std::filesystem::path& dir)
    : pool_{replay::load_object_pool_file(dir / "object.pool")},
      fp32_{load_fp32(dir, pool_)},
      int8_{replay::load_quantized_file(dir / "hawc_int8.qmodel"),
            [this](const point_cloud& c, rng& r) { return fp32_.extractor().extract(c, r); },
            "HAWC-int8"} {
    // Validation: both models take the featurizer's tensor and return
    // two finite logits.
    const std::vector<std::size_t> shape = fp32_.extractor().sample_shape();
    const tensor probe{std::vector<std::size_t>{1, shape[0], shape[1], shape[2]}};
    for (const tensor& logits : {int8_.model().forward(probe), fp32_.network().infer(probe)}) {
        HAWC_REQUIRE(logits.shape().size() == 2 && logits.shape()[1] == 2,
                     "golden model does not produce two logits");
        HAWC_REQUIRE(std::isfinite(logits.at(0, 0)) && std::isfinite(logits.at(0, 1)),
                     "golden model produces non-finite logits");
    }
}

namespace {

/// Walkway frame i of a seed's sequence.
frame walkway_frame(std::uint64_t seed, std::size_t i, const capture_config& capture,
                    const scanner& sensor) {
    rng random{replay::frame_seed(seed, i)};
    const std::size_t people = i % 9;
    const std::size_t objects = (i / 9) % 5;
    const scene s = make_crowd_scene(random, people, objects, capture.walkway);
    const scan_result scan_data = sensor.scan(s.primitives(), random, capture.scan);
    frame out;
    out.cloud = scan_data.to_cloud();
    out.truth = static_cast<std::uint32_t>(visible_human_count(s, scan_data, capture));
    out.rng_seed = replay::frame_seed(seed ^ 0xface, i);
    return out;
}

}  // namespace

std::vector<frame> walkway_frames(std::uint64_t seed, std::size_t count,
                                  const capture_config& capture) {
    std::vector<frame> frames(count);
    const scanner sensor{capture.sensor};
    generate_parallel(count,
                      [&](std::size_t i) { frames[i] = walkway_frame(seed, i, capture, sensor); });
    return frames;
}

capture_config crowd_capture() {
    // Table VI: offsets push people 7..40 m from the sensor, so the ROI
    // widens (as in bench_table6_scalability).
    capture_config config = golden_capture();
    config.roi.x_min_m = 5.0;
    config.roi.x_max_m = 42.0;
    config.roi.y_min_m = -10.0;
    config.roi.y_max_m = 10.0;
    return config;
}

std::vector<frame> crowd_frames(std::uint64_t seed, std::size_t count) {
    // Donor clusters: single-person and object captures scanned with the
    // golden sensor, labelled by construction. The donor library is fixed
    // (like the model, it is part of the workload's definition); the seed
    // decides which donors each frame composites and where.
    single_person_dataset_config donors;
    donors.human_samples = 48;
    donors.object_samples = 24;
    donors.seed = 0xd0d0;
    donors.capture = golden_capture();
    const single_person_dataset ds = build_single_person_dataset(donors);
    std::vector<point_cloud> humans;
    std::vector<point_cloud> objects;
    for (const cluster_dataset* split : {&ds.train, &ds.test}) {
        for (std::size_t i = 0; i < split->size(); ++i) {
            (split->labels[i] == label_human ? humans : objects).push_back(split->clusters[i]);
        }
    }

    constexpr std::array<std::size_t, 12> levels = {20, 30,  40,  50,  60,  70,
                                                    80, 90, 100, 150, 200, 250};
    std::vector<frame> frames(count);
    for (std::size_t i = 0; i < count; ++i) {
        rng random{replay::frame_seed(seed, i)};
        density_scene_config cfg;
        cfg.pedestrians = levels[i % levels.size()];
        const density_scene scene = build_density_scene(cfg, humans, objects, random);
        frames[i].cloud = scene.cloud;
        frames[i].truth = static_cast<std::uint32_t>(scene.ground_truth);
        frames[i].rng_seed = replay::frame_seed(seed ^ 0xface, i);
    }
    return frames;
}

fleet_recording fleet_frames(std::uint64_t seed, std::size_t poles, std::size_t frames_per_pole,
                             const capture_config& capture) {
    // Every recorded frame is a walkway scan of its own (frame f of pole p
    // is frame p * frames_per_pole + f of the seed's walkway sequence), so
    // a seed's figures average over as many scenes as the fleet records.
    // Each then gets its own seeded sensor faults.
    const scanner sensor{capture.sensor};

    // Sensor faults: the library's default chaos mix
    // (fault_injection_config{}: beam dropout, range jitter, non-finite
    // points, truncated frames and duplicate points, each on 5% of frames,
    // independently). A fault-coverage fixture, not measured field data.
    const fault_injection_config sensor_faults{};

    fleet_recording out;
    out.frames_per_pole = frames_per_pole;
    out.chunk_frames = 32;
    out.stagger = std::max<std::size_t>(1, out.chunk_frames / poles);
    out.truth.assign(poles, std::vector<std::uint32_t>(frames_per_pole));

    std::ostringstream bytes;
    replay::container_options packing;
    packing.frames_per_chunk = out.chunk_frames;
    replay::container_writer writer{bytes, replay::container_kind::corpus_set, "polebench-fleet",
                                    packing};
    for (std::size_t p = 0; p < poles; ++p) {
        out.pole_seeds.push_back(replay::frame_seed(seed, 0x9011 + p));
        writer.add_stream("pole-" + std::to_string(p), "walkway/p" + std::to_string(p),
                          out.pole_seeds[p]);
    }
    // Generate a batch of frames for every pole in parallel, then append
    // them in stream order; memory stays at one batch plus the container.
    constexpr std::size_t batch = 32;
    std::vector<replay::frame_record> records(poles * batch);
    for (std::size_t first = 0; first < frames_per_pole; first += batch) {
        const std::size_t n = std::min(batch, frames_per_pole - first);
        generate_parallel(poles * n, [&](std::size_t k) {
            const std::size_t p = k / n;
            const std::size_t f = first + k % n;
            const frame scan = walkway_frame(seed, p * frames_per_pole + f, capture, sensor);
            fault_injector injector{sensor_faults};
            rng random{replay::frame_seed(out.pole_seeds[p], f)};
            records[k].cloud = injector.corrupt(scan.cloud, random);
            records[k].ground_truth = scan.truth;
            out.truth[p][f] = scan.truth;
        });
        for (std::size_t k = 0; k < poles * n; ++k) {
            writer.append(static_cast<std::uint32_t>(k / n), records[k]);
        }
    }
    writer.finalize();
    out.container = std::move(bytes).str();
    return out;
}

// ---- measurement helpers ---------------------------------------------------

std::size_t timed_lanes() {
    const char* env = std::getenv("HAWC_THREADS");
    if (env == nullptr || *env == '\0') return 1;
    return std::max<std::size_t>(1, std::strtoul(env, nullptr, 10));
}

std::size_t scaling_lanes() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(telemetry::steady_now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

double timed_series::median() const { return polebench::quantile(values_, 0.5); }

std::vector<double> timed_series::speed_factors(const timed_series* speed) const {
    std::vector<double> out(values_.size(), 1.0);
    if (speed == nullptr || speed->values_.empty()) return out;
    const std::vector<std::uint64_t>& at = speed->steps_;
    const std::size_t half = probe_window / 2;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        // The probe_window probes nearest the sample: those that ran just
        // before and just after it.
        const auto next = static_cast<std::size_t>(
            std::upper_bound(at.begin(), at.end(), steps_[i]) - at.begin());
        std::size_t lo = next > half + 1 ? next - half - 1 : 0;
        const std::size_t hi = std::min(at.size(), lo + probe_window);
        lo = hi > probe_window ? hi - probe_window : 0;
        std::vector<double> window(speed->values_.begin() + static_cast<std::ptrdiff_t>(lo),
                                   speed->values_.begin() + static_cast<std::ptrdiff_t>(hi));
        out[i] = speed_probe::nominal_ms / polebench::quantile(std::move(window), 0.5);
    }
    return out;
}

double timed_series::quantile(double q, const timed_series* speed) const {
    const std::vector<double> factor = speed_factors(speed);
    std::vector<double> normalised(values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i) normalised[i] = values_[i] * factor[i];
    return polebench::quantile(std::move(normalised), q);
}

double timed_series::rate(const timed_series* speed) const {
    const std::vector<double> factor = speed_factors(speed);
    // Each sample's share of CPU time runs from the sample before it; the
    // probe runs that happened in that interval (they ran before the step
    // the sample belongs to) are taken back out.
    double cpu_s = 0.0;
    double cpu_before = cpu_start_s_;
    std::size_t probe = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        double share = cpu_s_[i] - cpu_before;
        cpu_before = cpu_s_[i];
        while (speed != nullptr && probe < speed->values_.size() &&
               speed->steps_[probe] <= steps_[i]) {
            share -= speed->values_[probe++] * 1e-3;
        }
        cpu_s += share * factor[i];
    }
    return cpu_s > 0.0 ? static_cast<double>(values_.size()) / cpu_s : 0.0;
}

span_log::span_log(std::size_t capacity) : sink_{capacity}, tracer_{&sink_} {}

std::map<std::string, double> span_log::total_ms() const {
    std::map<std::string, double> total;
    for (const auto& s : sink_.snapshot()) {
        total[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
    return total;
}

}  // namespace polebench
