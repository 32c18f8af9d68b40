// `fleet`: 8 poles on fleet_manager, streamed from an in-memory HWCC
// corpus-set container. Each tick reads one frame per pole from the
// container, submits it over the pole's lossy link, and runs tick(); the
// next tick starts when tick() returns (closed loop).
//
// Passes, each on a fresh fleet over the same recording:
//   reference  1 lane, untraced, reference_ticks ticks: the per-pole
//              outcome histories the correctness gate holds every other
//              pass to, and the 1-lane throughput
//   traced     (--trace 1) the reference pass again with spans around
//              container_reader::frame, submit and tick
//   scaling    the reference pass at scaling_lanes(): the cross-lane
//              determinism gate, pool speedup and fan-out efficiency
//   timed      1 lane, untraced, for --seconds
// Every pass ends with drain ticks so the link and pole accounting can be
// checked to cover every submitted frame.

#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <streambuf>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet_manager.hpp"
#include "polebench.hpp"
#include "telemetry/export.hpp"

namespace polebench {

using namespace hawc;
using telemetry::scoped_span;

namespace {

constexpr std::size_t pole_count = 8;
constexpr std::size_t warmup_ticks = 4;
constexpr std::size_t drain_ticks = 8;

// The link and watchdog chaos is the mix of the repository's fleet example
// (examples/fleet_service.cpp): pole 2's link drops, delays and corrupts,
// pole 3's reorders and duplicates, pole 4 goes silent for the middle
// third of its stream, and the watchdog quarantines after 4 dropped
// frames or 5 silent ticks. Like the sensor faults (fleet_frames), it is
// a fault-coverage fixture, not measured field traffic.
constexpr std::size_t lossy_pole = 2;
constexpr std::size_t shuffling_pole = 3;
constexpr std::size_t silent_pole = 4;

std::vector<fleet::pole_setup> pole_setups(const deployment& dep, const fleet_recording& rec) {
    std::vector<fleet::pole_setup> setups(pole_count);
    for (std::size_t p = 0; p < pole_count; ++p) {
        setups[p].pole_id = "pole-" + std::to_string(p);
        setups[p].seed = rec.pole_seeds[p];
        setups[p].supervisor = bench_supervisor(golden_capture());
        setups[p].primary = &dep.primary();
        setups[p].fallback = &dep.fallback();
        setups[p].watchdog.max_consecutive_dropped = 4;
    }
    setups[lossy_pole].link.drop_prob = 0.2;
    setups[lossy_pole].link.delay_prob = 0.2;
    setups[lossy_pole].link.corrupt_prob = 0.1;
    setups[shuffling_pole].link.reorder_prob = 0.3;
    setups[shuffling_pole].link.duplicate_prob = 0.3;
    setups[silent_pole].watchdog.max_silent_ticks = 5;
    return setups;
}

/// Whether pole `pole` sends its recorded frame at tick `tick`.
bool sends(const fleet_recording& rec, std::size_t pole, std::uint64_t tick) {
    if (pole != silent_pole) return true;
    const std::size_t f = rec.frame_at(pole, tick);
    return f < rec.frames_per_pole / 3 || f >= 2 * rec.frames_per_pole / 3;
}

/// Read-only, seekable stream buffer over the shared container bytes, so
/// each fleet's reader streams the one recording instead of a copy.
class bytes_view final : public std::streambuf {
public:
    explicit bytes_view(const std::string& bytes) {
        // The get area is only ever read.
        char* begin = const_cast<char*>(bytes.data());
        setg(begin, begin, begin + bytes.size());
    }

protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir, std::ios_base::openmode) override {
        char* base = dir == std::ios_base::beg   ? eback()
                     : dir == std::ios_base::cur ? gptr()
                                                 : egptr();
        if (off < eback() - base || off > egptr() - base) return pos_type(off_type(-1));
        setg(eback(), base + off, egptr());
        return pos_type(gptr() - eback());
    }
    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
        return seekoff(off_type(pos), std::ios_base::beg, which);
    }
};

/// A fleet with its event log, flight recorders and SLO rules attached,
/// and an open reader over the recording.
struct fleet_rig {
    fleet_rig(const deployment& dep, const fleet_recording& rec)
        : fleet{fleet::fleet_config{}, pole_setups(dep, rec)},
          view{rec.container},
          bytes{&view},
          reader{bytes} {
        fleet.attach_observability(log);
        fleet.enable_flight_recorders(obs::flight_recorder_config{});
        fleet.install_slo(fleet::default_fleet_slo_rules());
        for (std::size_t p = 0; p < pole_count; ++p) fleet.pole(p).set_record_history(true);
        // One hot chunk per pole, as replay_container_set does.
        reader.set_cache_capacity(pole_count);
    }

    using histories = std::vector<std::vector<fleet::frame_outcome>>;
    histories outcome_histories() const {
        histories out;
        for (std::size_t p = 0; p < pole_count; ++p) out.push_back(fleet.pole(p).history());
        return out;
    }

    obs::event_log log;
    fleet::fleet_manager fleet;
    bytes_view view;
    std::istream bytes;
    replay::container_reader reader;
};

/// Per-pole supervisor registry readings, accumulated across restarts
/// (a watchdog restart resets the supervisor's registry).
class pole_meters {
public:
    explicit pole_meters(fleet::fleet_manager& fleet) {
        for (std::size_t p = 0; p < fleet.pole_count(); ++p) {
            const telemetry::metrics_registry& reg = fleet.pole(p).supervisor().metrics();
            pole meter;
            meter.frames = reg.find_histogram("hawc_frame_ms");
            meter.fixed_eps.c = reg.find_counter("hawc_fallback_fixed_eps_total");
            meter.fallback.c = reg.find_counter("hawc_fallback_float_model_total");
            HAWC_REQUIRE(meter.frames != nullptr && meter.fixed_eps.c != nullptr &&
                             meter.fallback.c != nullptr,
                         "supervisor registry lacks the frame metrics");
            poles_.push_back(meter);
        }
    }

    /// Call after every tick. Appends each frame's supervisor time
    /// (a pole's mean when it ran several in the tick) to `frame_ms`.
    void after_tick(timed_series* frame_ms, std::uint64_t tick) {
        for (auto& p : poles_) {
            std::uint64_t count = p.frames->count();
            double sum = p.frames->sum();
            if (count < p.last_count) p.last_count = 0, p.last_sum = 0.0;  // restarted
            const std::uint64_t frames = count - p.last_count;
            const double ms = sum - p.last_sum;
            busy_ms += ms;
            if (frame_ms != nullptr) {
                for (std::uint64_t f = 0; f < frames; ++f) {
                    frame_ms->add(ms / static_cast<double>(frames), tick);
                }
            }
            p.last_count = count;
            p.last_sum = sum;
            fixed_eps += p.fixed_eps.advance();
            fallbacks += p.fallback.advance();
        }
    }

    double busy_ms = 0.0;
    std::uint64_t fixed_eps = 0;
    std::uint64_t fallbacks = 0;

private:
    struct counter_reading {
        const telemetry::counter* c = nullptr;
        std::uint64_t last = 0;
        std::uint64_t advance() {
            const std::uint64_t v = c->value();
            const std::uint64_t delta = v >= last ? v - last : v;  // restarted
            last = v;
            return delta;
        }
    };
    struct pole {
        const telemetry::latency_histogram* frames = nullptr;
        counter_reading fixed_eps;
        counter_reading fallback;
        std::uint64_t last_count = 0;
        double last_sum = 0.0;
    };
    std::vector<pole> poles_;
};

struct pass_result {
    timed_series step_ms;   // first read .. tick() returned
    timed_series frame_ms;  // per-frame supervisor time
    timed_series speed;     // speed_probe times
    double tick_call_ms = 0.0;  // tick() alone, summed
    double wall_s = 0.0;
    std::uint64_t ticks = 0;       // timed ticks
    std::uint64_t submitted = 0;   // over the whole pass
    double busy_ms = 0.0;          // during the timed ticks
    std::vector<std::size_t> history_at_reference;  // per pole, after reference_ticks
    std::uint64_t fixed_eps = 0;
    std::uint64_t fallbacks = 0;
};

/// Run one pass: ticks [0, warmup) untimed, then timed ticks until both
/// `min_ticks` and `seconds` are reached, then the drain. `heap`, when
/// given, meters every tick but the drain's.
pass_result run_pass(fleet_rig& rig, const fleet_recording& recording, std::size_t warmup,
                     std::size_t min_ticks, double seconds, std::size_t reference_ticks,
                     span_log* log, heap_meter* heap = nullptr) {
    pass_result out;
    pole_meters meters{rig.fleet};
    telemetry::tracer* trace = log != nullptr ? log->tracer() : nullptr;
    auto step = [&](std::uint64_t t, bool submit) {
        if (submit) {
            for (std::uint32_t s = 0; s < pole_count; ++s) {
                if (!sends(recording, s, t)) continue;
                const replay::frame_record* rec = nullptr;
                {
                    scoped_span span{trace, "replay.read"};
                    rec = &rig.reader.frame(s, recording.frame_at(s, t));
                }
                scoped_span span{trace, "fleet.submit"};
                fleet::link_message msg;
                msg.frame_index = t;
                msg.ground_truth = rec->ground_truth;
                msg.cloud = rec->cloud;
                rig.fleet.submit(s, std::move(msg));
                ++out.submitted;
            }
        }
        const std::uint64_t tick_start = telemetry::steady_now_ns();
        {
            scoped_span span{trace, "fleet.tick"};
            rig.fleet.tick();
        }
        const double tick_ms = seconds_since(tick_start) * 1e3;
        // Ship the postmortem bundles off after every tick, as the fleet
        // example does. Left pending, each pole keeps up to two of them,
        // and the heap would carry however many this seed's quarantines
        // happened to leave.
        (void)rig.fleet.collect_postmortems();
        return tick_ms;
    };
    auto metered_step = [&](std::uint64_t t) {
        if (heap != nullptr) heap->begin_call();
        const double tick_ms = step(t, true);
        if (heap != nullptr) heap->end_call();
        return tick_ms;
    };
    auto note_reference = [&](std::uint64_t ticks_done) {
        if (ticks_done != reference_ticks) return;
        for (std::size_t p = 0; p < pole_count; ++p) {
            out.history_at_reference.push_back(rig.fleet.pole(p).history().size());
        }
    };

    std::uint64_t t = 0;
    for (; t < warmup; ++t) {
        metered_step(t);
        meters.after_tick(nullptr, t);
        note_reference(t + 1);
    }
    const double busy_before = meters.busy_ms;
    const std::uint64_t start = telemetry::steady_now_ns();
    // The recording repeats every frames_per_pole ticks; the pass ends on
    // a whole number of such cycles.
    const std::size_t cycle = recording.frames_per_pole;
    out.step_ms = timed_series{};
    out.frame_ms = timed_series{};
    out.speed = timed_series{};
    speed_probe probe;
    for (;; ++t) {
        const bool enough = out.ticks >= min_ticks && t >= reference_ticks;
        if (enough && out.ticks % cycle == 0 && seconds_since(start) >= seconds) break;
        probe.pace(out.speed, t);
        const std::uint64_t step_start = telemetry::steady_now_ns();
        const double tick_ms = metered_step(t);
        out.step_ms.add(seconds_since(step_start) * 1e3, t);
        out.tick_call_ms += tick_ms;
        meters.after_tick(&out.frame_ms, t);
        ++out.ticks;
        note_reference(t + 1);
    }
    out.wall_s = seconds_since(start);
    out.busy_ms = meters.busy_ms - busy_before;
    for (std::size_t d = 0; d < drain_ticks; ++d) {
        step(t + d, false);
        meters.after_tick(nullptr, t + d);
    }
    out.fixed_eps = meters.fixed_eps;
    out.fallbacks = meters.fallbacks;
    return out;
}

/// Every submitted frame is accounted for by the link and the pole.
void check_accounting(const fleet_rig& rig, const pass_result& pass, const char* name,
                      run_result& out) {
    std::uint64_t sent = 0;
    for (std::size_t p = 0; p < pole_count; ++p) {
        const fleet::pole_runtime& pole = rig.fleet.pole(p);
        const fleet::link_stats& l = pole.link();
        const fleet::pole_stats& s = pole.stats();
        sent += l.sent;
        const std::uint64_t arrived = s.rejected_quarantined + s.shed_inbox_overflow +
                                      s.discarded_on_quarantine + s.checksum_failures +
                                      s.duplicates_dropped + s.processed + pole.inbox_depth();
        if (l.sent + l.duplicated != l.delivered + l.dropped || l.delivered != arrived) {
            out.fail(std::string{name} + " pass: " + pole.id() + " link/pole stats do not account "
                     "for every submitted frame (sent " + std::to_string(l.sent) + ", delivered " +
                     std::to_string(l.delivered) + ", accounted " + std::to_string(arrived) + ")");
        }
    }
    if (sent != pass.submitted) {
        out.fail(std::string{name} + " pass: links saw " + std::to_string(sent) +
                 " frames, benchmark submitted " + std::to_string(pass.submitted));
    }
}

/// The reference pass: its per-pole outcome histories, and how many of
/// each it had recorded after reference_ticks ticks.
struct reference_run {
    fleet_rig::histories history;
    std::vector<std::size_t> at_reference;
};

/// After reference_ticks ticks, a pass must have recorded as many
/// outcomes per pole as the reference pass, and the same ones.
void check_history(const fleet_rig& rig, const pass_result& pass, const reference_run& reference,
                   const char* name, run_result& out) {
    for (std::size_t p = 0; p < pole_count; ++p) {
        const auto& ref = reference.history[p];
        const auto& got = rig.fleet.pole(p).history();
        const std::size_t upto = reference.at_reference.at(p);
        const auto prefix = static_cast<std::ptrdiff_t>(upto);
        if (pass.history_at_reference.at(p) != upto || upto > got.size() ||
            !std::equal(ref.begin(), ref.begin() + prefix, got.begin())) {
            out.fail(std::string{name} + ": pole " + std::to_string(p) + " outcome history (" +
                     std::to_string(pass.history_at_reference.at(p)) + " by the reference tick, "
                     "reference " + std::to_string(upto) + ") differs from the 1-lane reference "
                     "pass");
        }
    }
}

}  // namespace

run_result run_fleet(const options& opt) {
    run_result out;
    const std::size_t frames_per_pole = opt.frames > 0 ? opt.frames : 128;
    // The reference pass replays every recorded frame once.
    const std::size_t reference_ticks = opt.min_steps > 0 ? opt.min_steps : frames_per_pole;
    const std::size_t min_ticks = opt.min_steps > 0 ? opt.min_steps : 200;
    const fleet_recording rec =
        fleet_frames(opt.seed, pole_count, frames_per_pole, golden_capture());

    // ---- setup: model load + validation, fleet construction, container open ----
    struct setup_objects {
        std::unique_ptr<deployment> dep;
        std::unique_ptr<fleet_rig> rig;  // destroyed before the deployment it uses
    };
    setup_timer setup{[&] {
        setup_objects made;
        made.dep = std::make_unique<deployment>(opt.golden_dir);
        made.rig = std::make_unique<fleet_rig>(*made.dep, rec);
        return made;
    }};
    std::size_t setup_heap = 0;
    const setup_objects kept = setup.first_round(setup_heap);
    const deployment* dep = kept.dep.get();
    fleet_rig* timed = kept.rig.get();

    // ---- reference pass ----
    set_global_thread_count(1);
    pass_result ref;
    reference_run reference;
    {
        fleet_rig rig{*dep, rec};
        ref = run_pass(rig, rec, warmup_ticks, reference_ticks - warmup_ticks, 0.0,
                       reference_ticks, nullptr);
        check_accounting(rig, ref, "reference", out);
        reference.history = rig.outcome_histories();
        reference.at_reference = ref.history_at_reference;
    }

    (void)setup.round();

    // ---- traced pass ----
    if (opt.trace) {
        fleet_rig traced{*dep, rec};
        span_log log{std::size_t{1} << 18};
        const pass_result tr = run_pass(traced, rec, warmup_ticks,
                                        reference_ticks - warmup_ticks, 0.0, reference_ticks, &log);
        check_accounting(traced, tr, "traced", out);
        check_history(traced, tr, reference, "traced", out);
        if (log.overflowed()) out.fail("span log overflowed; raise its capacity");
        out.chrome_trace = telemetry::to_chrome_trace(log.spans());

        // Spans cover warm-up and drain ticks too; report per tick run.
        const double ticks = static_cast<double>(tr.ticks + warmup_ticks + drain_ticks);
        const std::map<std::string, double> total = log.total_ms();
        for (const char* name : {"replay.read", "fleet.submit", "fleet.tick"}) {
            const auto it = total.find(name);
            out.values[std::string{name} + "_ms"] = it == total.end() ? 0.0 : it->second / ticks;
        }
        out.values["trace.overhead_ratio"] =
            tr.step_ms.quantile(0.5, &tr.speed) / ref.step_ms.quantile(0.5, &ref.speed);

        fleet::pole_stats sum;
        std::uint64_t link_dropped = 0;
        double degraded = 0.0;
        double dropped = 0.0;
        for (std::size_t p = 0; p < pole_count; ++p) {
            const fleet::pole_runtime& pole = traced.fleet.pole(p);
            sum.checksum_failures += pole.stats().checksum_failures;
            sum.duplicates_dropped += pole.stats().duplicates_dropped;
            sum.shed_inbox_overflow += pole.stats().shed_inbox_overflow;
            sum.quarantines += pole.stats().quarantines;
            link_dropped += pole.link().dropped;
            for (const auto& h : pole.history()) {
                degraded += h.status == frame_status::degraded ? 1.0 : 0.0;
                dropped += h.status == frame_status::dropped ? 1.0 : 0.0;
            }
        }
        out.values["replay.chunks_decoded"] = static_cast<double>(traced.reader.chunks_decoded());
        out.values["fleet.checksum_failures"] = static_cast<double>(sum.checksum_failures);
        out.values["fleet.link_dropped"] = static_cast<double>(link_dropped);
        out.values["fleet.frames_shed"] = static_cast<double>(sum.shed_inbox_overflow);
        out.values["fleet.duplicates_dropped"] = static_cast<double>(sum.duplicates_dropped);
        out.values["fleet.quarantines"] = static_cast<double>(sum.quarantines);
        out.values["runtime.frames_degraded"] = degraded;
        out.values["runtime.frames_dropped"] = dropped;
        out.values["runtime.fixed_eps_fallbacks"] = static_cast<double>(tr.fixed_eps);
        out.values["nn.fallback_forwards"] = static_cast<double>(tr.fallbacks);
        out.values["obs.events_accepted"] = static_cast<double>(traced.log.published());
        out.values["obs.events_suppressed"] = static_cast<double>(traced.log.suppressed());
    }

    // ---- scaling pass ----
    {
        const std::size_t lanes = scaling_lanes();
        set_global_thread_count(lanes);
        fleet_rig scaled{*dep, rec};
        const pass_result sc = run_pass(scaled, rec, warmup_ticks, reference_ticks - warmup_ticks,
                                        0.0, reference_ticks, nullptr);
        check_accounting(scaled, sc, "scaling", out);
        check_history(scaled, sc, reference, "scaling", out);
        if (opt.trace) {
            out.values["fleet.pole_busy_ms"] = sc.busy_ms / static_cast<double>(sc.ticks);
            out.values["fleet.fanout_efficiency"] =
                sc.busy_ms / (sc.tick_call_ms * static_cast<double>(lanes));
            out.values["common.pool_speedup"] =
                (static_cast<double>(sc.frame_ms.size()) / sc.wall_s) /
                (static_cast<double>(ref.frame_ms.size()) / ref.wall_s);
        }
    }

    // ---- timed pass ----
    set_global_thread_count(timed_lanes());
    (void)setup.round();
    heap_meter heap{setup_heap};
    const pass_result run = run_pass(*timed, rec, warmup_ticks, min_ticks, opt.seconds,
                                     reference_ticks, nullptr, &heap);
    set_global_thread_count(1);
    (void)setup.round();
    out.values["setup_s"] = setup.median_s();
    check_accounting(*timed, run, "timed", out);
    check_history(*timed, run, reference, "timed", out);

    // count_mae over the gated prefix, which replays every recorded frame
    // once (deterministic per seed); served_ratio over everything
    // submitted, drain included.
    double abs_error = 0.0;
    double judged = 0.0;
    double served = 0.0;
    for (std::size_t p = 0; p < pole_count; ++p) {
        const auto& history = timed->fleet.pole(p).history();
        for (std::size_t h = 0; h < history.size(); ++h) {
            const fleet::frame_outcome& o = history[h];
            if (o.status != frame_status::dropped) served += 1.0;
            if (h >= reference.at_reference.at(p)) continue;
            const double truth = rec.truth[p][rec.frame_at(p, o.frame_index)];
            abs_error += std::abs(static_cast<double>(o.count) - truth);
            judged += 1.0;
        }
    }

    out.attempted = run.submitted;
    out.values["tick_ms_p50"] = run.step_ms.quantile(0.5, &run.speed);
    out.values["tick_ms_p95"] = run.step_ms.quantile(0.95, &run.speed);
    out.values["frame_ms_p50"] = run.frame_ms.quantile(0.5, &run.speed);
    out.values["frame_ms_p95"] = run.frame_ms.quantile(0.95, &run.speed);
    out.values["frames_per_s"] = run.frame_ms.rate(&run.speed);
    out.raw["tick_ms_p50"] = run.step_ms.quantile(0.5);
    out.raw["probe_ms"] = run.speed.median();
    out.values["count_mae"] = abs_error / std::max(1.0, judged);
    out.values["served_ratio"] = served / static_cast<double>(run.submitted);
    out.values["frame_heap_mb"] = heap.mean_peak_mb();
    return out;
}

}  // namespace polebench
