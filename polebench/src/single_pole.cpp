// `walkway` and `crowd`: one frame_supervisor in a closed loop — the next
// frame starts when process() returns.
//
// Passes, all over the same generated frames:
//   reference  1 lane, untraced, every distinct frame once: the counts the
//              correctness gate holds every other pass to, and the 1-lane
//              frame times
//   traced     (--trace 1) interleaved frame by frame with the reference
//              pass, on a second supervisor with a span sink installed:
//              the stage times come from the program's own spans in
//              process(); its classifier is wrapped to keep each cluster
//              it classifies, and after process() returns the benchmark
//              re-runs the int8 classifier's steps on those clusters under
//              spans of its own
//   scaling    scaling_lanes(), untraced, every distinct frame once: the
//              cross-lane determinism gate and common.pool_speedup
//   timed      1 lane, untraced, for --seconds: the end-to-end metrics

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/thread_pool.hpp"
#include "features/height_features.hpp"
#include "features/projection.hpp"
#include "features/upsampling.hpp"
#include "polebench.hpp"
#include "telemetry/export.hpp"

namespace polebench {

using namespace hawc;
using telemetry::scoped_span;

namespace {

/// Forwards to the deployment's int8 classifier and keeps every call:
/// the cluster, the rng as the call found it, and the verdict (or that
/// the classifier threw). It times the forwarded calls and, apart, its
/// own copying, which the traced metrics take back out.
class recording_classifier final : public human_classifier {
public:
    explicit recording_classifier(const human_classifier& inner) : inner_{inner} {}

    struct call {
        point_cloud cluster;
        rng random;
        bool threw = false;
        bool human = false;
    };

    bool is_human(const point_cloud& cluster, rng& random) const override {
        const std::uint64_t copy_start = telemetry::steady_now_ns();
        call c{cluster, random};
        const std::uint64_t start = telemetry::steady_now_ns();
        try {
            c.human = inner_.is_human(cluster, random);
        } catch (...) {
            c.threw = true;
            keep(std::move(c), copy_start, start);
            throw;
        }
        const bool human = c.human;
        keep(std::move(c), copy_start, start);
        return human;
    }
    std::string name() const override { return inner_.name(); }
    bool thread_safe() const override { return inner_.thread_safe(); }

    /// The calls since the last take().
    std::vector<call> take() {
        const std::lock_guard lock{mutex_};
        return std::exchange(calls_, {});
    }
    /// Wall time inside the int8 classifier, and spent recording, so far.
    double classifier_ms() const { return static_cast<double>(classifier_ns_) * 1e-6; }
    double recording_ms() const { return static_cast<double>(recording_ns_) * 1e-6; }

private:
    void keep(call c, std::uint64_t copy_start, std::uint64_t start) const {
        const std::uint64_t end = telemetry::steady_now_ns();
        const std::lock_guard lock{mutex_};
        calls_.push_back(std::move(c));
        classifier_ns_ += end - start;
        recording_ns_ += start - copy_start + telemetry::steady_now_ns() - end;
    }

    const human_classifier& inner_;
    mutable std::mutex mutex_;
    mutable std::vector<call> calls_;
    mutable std::uint64_t classifier_ns_ = 0;
    mutable std::uint64_t recording_ns_ = 0;
};

/// The int8 classifier's steps on one cluster — the feature extractor's
/// upsample_cluster, height_variation and project_cluster, then
/// quantized_model::forward — each under a span. Returns the verdict, or
/// nothing when the logits are non-finite (the classifier then throws).
class classify_breakdown {
public:
    classify_breakdown(const deployment& dep, span_log& log) : dep_{dep}, trace_{log.tracer()} {}

    std::optional<bool> is_human(const point_cloud& cluster, rng random) {
        const cnn_feature_config& fc = dep_.features();
        point_cloud padded;
        {
            scoped_span span{trace_, "features.upsample"};
            padded = upsample_cluster(cluster, fc.upsample, dep_.pool(), random);
        }
        std::vector<double> sigma;
        {
            scoped_span span{trace_, "features.sigma"};
            const std::size_t n_real = std::min(cluster.size(), padded.size());
            point_cloud real_points;
            real_points.reserve(n_real);
            for (std::size_t i = 0; i < n_real; ++i) real_points.push_back(padded[i]);
            sigma = height_variation(real_points, cluster, fc.projection.knn_k);
            sigma.resize(padded.size(), 0.0);
        }
        tensor features;
        {
            scoped_span span{trace_, "features.project"};
            const vec3 anchor = cluster.empty() ? vec3{} : cluster.centroid();
            features = project_cluster(padded, anchor, fc.projection, sigma);
        }
        tensor logits;
        {
            scoped_span span{trace_, "quant.forward"};
            logits = dep_.int8_model().forward(features);
        }
        forward_calls += 1.0;
        forward_rows += static_cast<double>(features.shape()[0]);
        if (!std::isfinite(logits.at(0, 0)) || !std::isfinite(logits.at(0, 1))) return {};
        return logits.at(0, 1) > logits.at(0, 0);
    }

    double forward_calls = 0.0;
    double forward_rows = 0.0;

private:
    const deployment& dep_;
    telemetry::tracer* trace_;
};

/// A supervisor registry counter's value (0 before the first increment).
double counter_value(const frame_supervisor& sup, const char* name) {
    const telemetry::counter* c = sup.metrics().find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double elapsed_ms(std::uint64_t start_ns) { return seconds_since(start_ns) * 1e3; }

run_result run_single(const options& opt, const capture_config& capture,
                      const std::vector<frame>& frames) {
    run_result out;
    const std::size_t n = frames.size();
    const supervisor_config cfg = bench_supervisor(capture);

    // ---- setup: model load + validation, supervisor construction ----
    struct setup_objects {
        std::unique_ptr<deployment> dep;
        std::unique_ptr<frame_supervisor> sup;  // destroyed before the deployment it uses
    };
    setup_timer setup{[&] {
        setup_objects made;
        made.dep = std::make_unique<deployment>(opt.golden_dir);
        made.sup =
            std::make_unique<frame_supervisor>(cfg, made.dep->primary(), &made.dep->fallback());
        return made;
    }};
    std::size_t setup_heap = 0;
    const setup_objects kept = setup.first_round(setup_heap);
    const deployment& dep = *kept.dep;
    frame_supervisor& sup = *kept.sup;

    // ---- reference pass (with --trace 1, interleaved with the traced pass) ----
    set_global_thread_count(1);
    std::vector<std::size_t> ref_count(n);
    std::vector<frame_status> ref_status(n);
    std::vector<double> ref_ms(n);
    {
        frame_supervisor ref{cfg, dep.primary(), &dep.fallback()};
        recording_classifier recorder{dep.primary()};
        frame_supervisor traced_sup{cfg, recorder, &dep.fallback()};
        span_log program{opt.trace ? std::size_t{1} << 17 : 1};
        span_log bench{opt.trace ? std::size_t{1} << 19 : 1};
        if (opt.trace) traced_sup.set_trace_sink(program.sink());
        classify_breakdown breakdown{dep, bench};
        std::vector<double> traced_ms(n);  // process(), less the recording
        double clustering_ms = 0.0;
        double classifier_calls = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const frame& f = frames[i];
            auto run_reference = [&] {
                rng random{f.rng_seed};
                const std::uint64_t start = telemetry::steady_now_ns();
                const frame_report report = ref.process(f.cloud, random);
                ref_ms[i] = elapsed_ms(start);
                ref_count[i] = report.count;
                ref_status[i] = report.status;
            };
            if (!opt.trace) {
                run_reference();
                continue;
            }
            frame_report report;
            auto run_traced = [&] {
                rng random{f.rng_seed};
                const double recording_before = recorder.recording_ms();
                const std::uint64_t start = telemetry::steady_now_ns();
                report = traced_sup.process(f.cloud, random);
                traced_ms[i] = elapsed_ms(start) - (recorder.recording_ms() - recording_before);
            };
            // Alternate which runs first so neither always finds the frame's
            // data warm in cache.
            if (i % 2 == 0) {
                run_reference();
                run_traced();
            } else {
                run_traced();
                run_reference();
            }
            clustering_ms += report.times.clustering_ms;
            if (report.count != ref_count[i] || report.status != ref_status[i]) {
                out.fail("frame " + std::to_string(i) + ": traced process() count " +
                         std::to_string(report.count) + " != reference " +
                         std::to_string(ref_count[i]));
            }
            for (const recording_classifier::call& c : recorder.take()) {
                classifier_calls += 1.0;
                const std::optional<bool> human = breakdown.is_human(c.cluster, c.random);
                if (human.has_value() == c.threw || (human.has_value() && *human != c.human)) {
                    out.fail("frame " + std::to_string(i) + ": classify breakdown verdict "
                             "differs from the int8 classifier's on a cluster of " +
                             std::to_string(c.cluster.size()) + " points");
                }
            }
        }

        if (opt.trace) {
            if (program.overflowed() || bench.overflowed()) {
                out.fail("span log overflowed; raise its capacity");
            }
            std::vector<telemetry::span_record> spans = program.spans();
            const std::vector<telemetry::span_record> bench_spans = bench.spans();
            spans.insert(spans.end(), bench_spans.begin(), bench_spans.end());
            out.chrome_trace = telemetry::to_chrome_trace(spans);

            // The program's spans in process(): frame -> { ingest,
            // eps_selection, dbscan, classify -> classify_cluster* }. The
            // clustering stage's time outside eps_selection and dbscan
            // (metric scaling, the KD-tree build, extract_clusters) has no
            // span; it is the report's clustering_ms less those two.
            const double frames_d = static_cast<double>(n);
            const std::map<std::string, double> program_ms = program.total_ms();
            const std::map<std::string, double> bench_ms = bench.total_ms();
            auto total = [](const std::map<std::string, double>& ms, const char* name) {
                const auto it = ms.find(name);
                return it == ms.end() ? 0.0 : it->second;
            };
            const double recording = recorder.recording_ms();
            const double process = total(program_ms, "frame") - recording;
            const double ingest = total(program_ms, "ingest");
            const double eps = total(program_ms, "eps_selection");
            const double dbscan = total(program_ms, "dbscan");
            const double classify = total(program_ms, "classify") - recording;
            out.values["preprocess.ingest_ms"] = ingest / frames_d;
            out.values["clustering.eps_ms"] = eps / frames_d;
            out.values["clustering.dbscan_ms"] = dbscan / frames_d;
            out.values["clustering.tree_extract_ms"] = (clustering_ms - eps - dbscan) / frames_d;
            out.values["counting.classify_ms"] = classify / frames_d;
            out.values["runtime.unattributed_ms"] =
                (process - ingest - clustering_ms - classify) / frames_d;
            out.values["runtime.process_ms"] = process / frames_d;
            out.values["counting.split_ms"] = (classify - recorder.classifier_ms()) / frames_d;
            for (const char* step : {"features.upsample", "features.sigma", "features.project",
                                     "quant.forward"}) {
                out.values[std::string{step} + "_ms"] = total(bench_ms, step) / frames_d;
            }
            out.values["trace.overhead_ratio"] = quantile(traced_ms, 0.5) / quantile(ref_ms, 0.5);

            const double raw_points = [&] {
                double sum = 0.0;
                for (const frame& f : frames) sum += static_cast<double>(f.cloud.size());
                return sum;
            }();
            const double clustered = counter_value(traced_sup, "hawc_dbscan_points_total");
            const health_counters health = traced_sup.health();
            out.values["preprocess.kept_ratio"] = clustered / std::max(1.0, raw_points);
            out.values["clustering.points_in"] = clustered / frames_d;
            out.values["clustering.clusters"] =
                counter_value(traced_sup, "hawc_dbscan_clusters_total") / frames_d;
            out.values["quant.forward_calls"] = classifier_calls / frames_d;
            out.values["quant.rows_per_call"] =
                breakdown.forward_rows / std::max(1.0, breakdown.forward_calls);
            out.values["nn.fallback_forwards"] = static_cast<double>(health.float_model_fallbacks);
            out.values["runtime.frames_degraded"] = static_cast<double>(health.frames_degraded);
            out.values["runtime.frames_dropped"] = static_cast<double>(health.frames_dropped);
            out.values["runtime.fixed_eps_fallbacks"] =
                static_cast<double>(health.fixed_eps_fallbacks);
        }
    }

    (void)setup.round();

    // ---- scaling pass ----
    {
        set_global_thread_count(scaling_lanes());
        frame_supervisor scaled{cfg, dep.primary(), &dep.fallback()};
        std::vector<double> scaled_ms(n);
        for (std::size_t i = 0; i < n; ++i) {
            rng random{frames[i].rng_seed};
            const std::uint64_t start = telemetry::steady_now_ns();
            const frame_report report = scaled.process(frames[i].cloud, random);
            scaled_ms[i] = elapsed_ms(start);
            if (report.count != ref_count[i] || report.status != ref_status[i]) {
                out.fail("frame " + std::to_string(i) + ": " + std::to_string(scaling_lanes()) +
                         "-lane count " + std::to_string(report.count) + " != 1-lane " +
                         std::to_string(ref_count[i]));
            }
        }
        if (opt.trace) out.values["common.pool_speedup"] = mean(ref_ms) / mean(scaled_ms);
    }

    // ---- timed pass ----
    set_global_thread_count(timed_lanes());
    (void)setup.round();
    heap_meter heap{setup_heap};
    struct outcome {
        std::size_t count = 0;
        frame_status status = frame_status::ok;
        double ms = 0.0;
    };
    // The report is destroyed before the meter closes, so the heap it
    // held is not counted as the program's.
    auto process = [&](std::size_t i) {
        rng random{frames[i].rng_seed};
        outcome o;
        heap.begin_call();
        {
            const std::uint64_t start = telemetry::steady_now_ns();
            const frame_report report = sup.process(frames[i].cloud, random);
            o.ms = elapsed_ms(start);
            o.count = report.count;
            o.status = report.status;
        }
        heap.end_call();
        return o;
    };
    // The timed pass ends on a whole pass over the distinct frames.
    const std::size_t min_frames =
        opt.min_steps > 0 ? opt.min_steps : std::max<std::size_t>(200, n);
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 4); ++i) (void)process(i);  // warm-up
    double abs_error = 0.0;
    std::size_t served = 0;
    std::size_t k = 0;
    speed_probe probe;
    const std::uint64_t start = telemetry::steady_now_ns();
    timed_series frame_ms;
    timed_series tick_ms;
    timed_series speed;
    for (;; ++k) {
        if (k >= min_frames && k % n == 0 && seconds_since(start) >= opt.seconds) break;
        probe.pace(speed, k);
        const std::uint64_t tick_start = telemetry::steady_now_ns();
        const std::size_t i = k % n;
        const outcome o = process(i);
        if (o.count != ref_count[i] || o.status != ref_status[i]) {
            out.fail("frame " + std::to_string(i) + ": timed count " + std::to_string(o.count) +
                     " != reference " + std::to_string(ref_count[i]));
        }
        if (o.status != frame_status::dropped) ++served;
        if (k < n) {
            const double truth = frames[i].truth;
            abs_error += std::abs(static_cast<double>(o.count) - truth);
        }
        frame_ms.add(o.ms, k);
        tick_ms.add(elapsed_ms(tick_start), k);
    }
    set_global_thread_count(1);
    (void)setup.round();
    out.values["setup_s"] = setup.median_s();

    out.attempted = k;
    out.values["frame_ms_p50"] = frame_ms.quantile(0.5, &speed);
    out.values["frame_ms_p95"] = frame_ms.quantile(0.95, &speed);
    out.values["tick_ms_p50"] = tick_ms.quantile(0.5, &speed);
    out.values["tick_ms_p95"] = tick_ms.quantile(0.95, &speed);
    out.values["frames_per_s"] = frame_ms.rate(&speed);
    out.raw["frame_ms_p50"] = frame_ms.quantile(0.5);
    out.raw["probe_ms"] = speed.median();

    out.values["count_mae"] = abs_error / static_cast<double>(n);
    out.values["served_ratio"] = static_cast<double>(served) / static_cast<double>(k);
    out.values["frame_heap_mb"] = heap.mean_peak_mb();
    return out;
}

}  // namespace

run_result run_walkway(const options& opt) {
    const std::size_t frames = opt.frames > 0 ? opt.frames : 720;
    return run_single(opt, golden_capture(), walkway_frames(opt.seed, frames, golden_capture()));
}

run_result run_crowd(const options& opt) {
    const std::size_t frames = opt.frames > 0 ? opt.frames : 288;
    return run_single(opt, crowd_capture(), crowd_frames(opt.seed, frames));
}

}  // namespace polebench
