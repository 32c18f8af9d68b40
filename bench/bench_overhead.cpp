// Clean-frame overhead of the layers wrapped around the counting
// pipeline. Four layer sets process the same clean captures on the shared
// timing core (bench_common.hpp):
//
//   bare       crowd_counter alone
//   supervisor frame_supervisor: sanitization, duplicate removal,
//              plausibility checks, watchdog polls, health accounting and
//              the lock-free metrics registry
//   +trace     the supervisor with a trace sink (a span tree per frame)
//   +obs       the supervisor with the pole-side obs stack: a structured
//              event log behind a tagging sink, a flight recorder taking
//              each delivered cloud by move, and an SLO engine sweeping
//              two rules every frame
//
// and three budgets gate them: supervisor vs bare <= 5%, +trace vs
// supervisor <= 2%, +obs vs supervisor <= 2%. Each gate reads the median
// over rounds of the per-round time ratio. Every layer set processes each
// frame back to back in a balanced order, so host drift cancels frame by
// frame; that is what keeps the gates steady on a shared host. The
// process exits nonzero when a gate or a sanity check fails.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "replay/model_io.hpp"
#include "runtime/supervisor.hpp"
#include "sim/trajectory.hpp"
#include "telemetry/event.hpp"
#include "telemetry/trace.hpp"

using namespace hawc;

namespace {

// Timed rounds (~12 s on a 4-core host). There the obs stack reads -3.6
// .. +1.6% against its 2% budget; 41 rounds keep each gate's median
// within a few points from run to run.
constexpr std::size_t rounds = 41;

enum layer_set : std::size_t { bare, supervised, traced, observed, layer_count };

struct gate {
    const char* name;
    layer_set layers;
    layer_set reference;
    double budget_pct;
};

constexpr gate gates[] = {{"supervisor vs bare", supervised, bare, 5.0},
                          {"+trace vs supervisor", traced, supervised, 2.0},
                          {"+obs vs supervisor", observed, supervised, 2.0}};

}  // namespace

int main() {
    bench::print_header("Layer overhead",
                        "bare crowd_counter vs frame_supervisor vs +trace vs +obs on clean "
                        "frames");

    // The golden deployment (data/golden), as parity_checker and polebench
    // load it: the int8 HAWC as primary with its fp32 model as the
    // supervisor's fallback. A trained model counts people on these
    // frames, so the count checks below compare real counts.
    const std::filesystem::path golden{HAWC_GOLDEN_DIR};
    rng skeleton{11};  // throw-away initial weights, overwritten by the load
    hawc_config model_cfg;
    model_cfg.features.upsample.target_points = 225;
    model_cfg.features.projection.target_points = 225;
    model_cfg.conv_channels[0] = 8;
    model_cfg.conv_channels[1] = 12;
    model_cfg.conv_channels[2] = 16;
    model_cfg.hidden_units = 32;
    hawc_model fp32{model_cfg, replay::load_object_pool_file(golden / "object.pool"), skeleton};
    replay::load_weights_file(golden / "hawc_fp32.weights", fp32.network());
    const quantized_classifier int8{
        replay::load_quantized_file(golden / "hawc_int8.qmodel"),
        [&fp32](const point_cloud& c, rng& r) { return fp32.extractor().extract(c, r); },
        "HAWC-int8"};

    capture_config capture;
    capture.min_cluster_points = 20;
    const crowd_counter counter{capture, int8};
    supervisor_config sup_cfg;
    sup_cfg.capture = capture;
    frame_supervisor plain{sup_cfg, int8, &fp32};
    frame_supervisor with_trace{sup_cfg, int8, &fp32};
    frame_supervisor with_obs{sup_cfg, int8, &fp32};

    telemetry::trace_sink sink{16384};
    with_trace.set_trace_sink(&sink);

    obs::event_log log{{.capacity = 256, .tokens_per_tick = 8.0, .burst = 32.0}};
    telemetry::tagging_event_sink tagger;
    tagger.set_target(&log);
    tagger.set_pole("bench-0");
    with_obs.set_event_sink(&tagger);
    obs::flight_recorder recorder{{.frame_capacity = 16}, "bench-0", 11};
    recorder.attach_sources(&log, nullptr);
    obs::slo_engine slo{with_obs.metrics(), with_obs.metrics(),
                        obs::parse_slo_rules(
                            "alert drop_burn if "
                            "ratio(hawc_frames_dropped_total/hawc_frames_total) > 0.05 "
                            "window 8/32 resolve 8 severity error\n"
                            "alert p99_latency if p99(hawc_frame_ms) > 1e9 "
                            "severity warning\n"),
                        &log};

    // Identical clean frames for every layer set.
    const std::size_t frames = bench::scaled(120, 20);
    const scanner sensor{capture.sensor};
    rng traffic_rng{2025};
    const traffic_schedule traffic{traffic_rng, 600.0, /*arrivals_per_minute=*/12.0};
    std::vector<point_cloud> captures;
    captures.reserve(frames);
    for (std::size_t i = 0; i < frames; ++i) {
        const double t = 5.0 + static_cast<double>(i) * 4.5;
        const scene frame = traffic.scene_at(t, traffic_rng);
        captures.push_back(sensor.scan(frame.primitives(), traffic_rng, capture.scan).to_cloud());
    }

    // Each call consumes an owned copy of its frame, delivered just before
    // it and outside the timer (the copy a pole link pays to hand a frame
    // over). The call ends the cloud's life as a pole does: +obs moves it
    // into the flight recorder, which frees the frame it evicts, and every
    // other layer set frees it on return. Each frame counts with its own
    // fixed-seed rng, so every layer set draws the same samples and must
    // reach the same count.
    std::vector<point_cloud> delivered(layer_count);
    std::vector<std::size_t> counted(layer_count, 0);
    std::uint64_t tick = 0;
    const auto deliver = [&](layer_set l) {
        return [&, l](std::size_t i) { delivered[l] = captures[i]; };
    };
    const auto supervise = [&](layer_set l, frame_supervisor& sup) {
        return [&, l](std::size_t i) {
            rng r{11 + i};
            const point_cloud cloud = std::move(delivered[l]);
            counted[l] += sup.process(cloud, r).count;
        };
    };
    const bench::timed_config configs[layer_count] = {
        {deliver(bare),
         [&](std::size_t i) {
             rng r{11 + i};
             const point_cloud cloud = std::move(delivered[bare]);
             counted[bare] += counter.count(cloud, r).count;
         }},
        {deliver(supervised), supervise(supervised, plain)},
        {deliver(traced), supervise(traced, with_trace)},
        {deliver(observed), [&](std::size_t i) {
             rng r{11 + i};
             tagger.set_tick(tick);
             const supervisor_carry before = with_obs.carry();
             const frame_report report = with_obs.process(delivered[observed], r);
             counted[observed] += report.count;
             recorder.record(tick, static_cast<std::uint32_t>(report.count),
                             std::move(delivered[observed]), before, report);
             log.advance_tick(tick);
             slo.evaluate(tick);
             ++tick;
         }}};

    const bench::timing_result timing = bench::time_interleaved(configs, frames, rounds);

    const char* names[layer_count] = {"crowd_counter (bare)", "frame_supervisor",
                                      "+ trace sink", "+ event log, recorder, SLO"};
    const auto per_frame = [&](double ms) {
        return text_table::num(ms / static_cast<double>(frames), 4);
    };
    std::cout << frames << " clean frames x " << rounds << " rounds (+1 warm-up), "
              << "interleaved frame by frame\n\n";
    text_table table{{"Layer set", "Median ms/frame", "IQR", "Min", "Count (all passes)"}};
    for (std::size_t l = 0; l < layer_count; ++l) {
        const bench::timing_summary& s = timing.summary[l];
        table.add_row({names[l], per_frame(s.median), per_frame(s.iqr), per_frame(s.min),
                       std::to_string(counted[l])});
    }
    table.print(std::cout);

    bool ok = true;
    std::cout << "\n";
    text_table verdicts{{"Gate", "Median overhead (%)", "IQR (%)", "Budget (%)", "Verdict"}};
    for (const gate& g : gates) {
        std::vector<double> pct(rounds);
        for (std::size_t r = 0; r < rounds; ++r) {
            pct[r] = 100.0 * (timing.round_ms[g.layers][r] / timing.round_ms[g.reference][r] -
                              1.0);
        }
        const bench::timing_summary s = bench::summarize(pct);
        const bool within = s.median <= g.budget_pct;
        ok = ok && within;
        verdicts.add_row({g.name, text_table::num(s.median), text_table::num(s.iqr),
                          text_table::num(g.budget_pct, 0), within ? "ok" : "OVER BUDGET"});
    }
    verdicts.print(std::cout);

    // Sanity: identical inputs and seeds must count identically under
    // every supervised layer set, the trace sink must hold a span tree,
    // the recorder must have taken every frame, the SLO engine must have
    // swept its rules, and the supervisor's health accounting must close.
    const auto check = [&](bool pass, const std::string& what) {
        if (!pass) std::cout << "FAIL: " << what << "\n";
        ok = ok && pass;
    };
    std::cout << "\n";
    check(counted[supervised] > 0, "the supervisor counted no one on any frame");
    check(counted[traced] == counted[supervised], "counts diverged under tracing");
    check(counted[observed] == counted[supervised], "counts diverged under observability");
    check(sink.recorded() > 0, "trace sink recorded no spans");
    check(recorder.frames_recorded() == (rounds + 1) * frames, "flight recorder missed frames");
    check(slo.evaluations() > 0, "SLO engine never evaluated");
    check(plain.health().accounted(), "supervisor health accounting broken");
    std::cout << "Spans recorded: " << sink.recorded()
              << ", frames recorded: " << recorder.frames_recorded()
              << ", events published: " << log.published()
              << ", SLO evaluations: " << slo.evaluations() << "\n"
              << (ok ? "All overhead gates OK\n" : "OVERHEAD GATE FAILED\n");
    return ok ? 0 : 1;
}
