#pragma once

// polebench: the pole benchmark. Three closed-loop workloads drive the
// HAWC-CC program through its public API with the checked-in trained
// deployment (data/golden): `walkway` (one supervisor, Table V scenes),
// `crowd` (one supervisor, Table VI density scenes) and `fleet` (8 poles
// on fleet_manager, streamed from an in-memory HWCC container with sensor
// and link faults). Timed passes run at 1 lane; a 4-lane scaling pass
// checks cross-lane determinism and measures lane scaling. See README.md.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "runtime/supervisor.hpp"
#include "telemetry/trace.hpp"

namespace polebench {

// ---- command line and results ---------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path golden_dir = "data/golden";
    // Load-size overrides for the self-tests (0 = the workload default).
    std::size_t frames = 0;     // distinct frames (fleet: frames per pole)
    std::size_t min_steps = 0;  // timed frames (fleet: ticks) per run
    std::filesystem::path trace_out;  // where the traced run's spans go (Chrome format)
};

/// What one run measured. `values` holds metrics by name; their units
/// and directions live in one table (main.cpp) next to BENCHMARK.json.
struct run_result {
    std::uint64_t attempted = 0;  // frames (fleet: frames submitted) in the timed pass
    std::uint64_t failures = 0;   // correctness-gate findings
    std::vector<std::string> failure_notes;  // the first few of them
    std::map<std::string, double> values;
    // Raw figures printed for reference, not metrics: timings before
    // speed normalisation, and the probe's median time.
    std::map<std::string, double> raw;
    std::string chrome_trace;  // the traced run's spans, when traced

    void fail(std::string why) {
        if (failures++ < 20) failure_notes.push_back(std::move(why));
    }
};

run_result run_walkway(const options& opt);
run_result run_crowd(const options& opt);
run_result run_fleet(const options& opt);

// ---- the trained deployment ------------------------------------------------

/// The golden capture: 24 channels x 720 azimuth steps, the sensor the
/// checked-in model was trained for.
hawc::capture_config golden_capture();

/// Supervisor configuration for the benchmark: the golden capture with
/// the cooperative wall-clock deadlines disabled, so no frame's path (and
/// so no count) depends on how fast the host happens to be.
hawc::supervisor_config bench_supervisor(const hawc::capture_config& capture);

/// The checked-in int8 primary, its fp32 fallback and the object pool,
/// loaded (checksummed envelopes) and validated. Not movable: the int8
/// classifier's featurizer refers to the fp32 model's extractor.
class deployment {
public:
    explicit deployment(const std::filesystem::path& dir);
    deployment(const deployment&) = delete;
    deployment& operator=(const deployment&) = delete;

    const hawc::human_classifier& primary() const { return int8_; }
    const hawc::human_classifier& fallback() const { return fp32_; }
    const hawc::quantized_model& int8_model() const { return int8_.model(); }
    const hawc::cnn_feature_config& features() const { return fp32_.extractor().config(); }
    const hawc::object_pool& pool() const { return pool_; }

private:
    hawc::object_pool pool_;
    hawc::hawc_model fp32_;
    hawc::quantized_classifier int8_;
};

// ---- generated inputs ------------------------------------------------------

struct frame {
    hawc::point_cloud cloud;
    std::uint32_t truth = 0;
    std::uint64_t rng_seed = 0;  // the per-frame stream handed to process()
};

/// Table V regime: 0-8 people and 0-4 objects per scanned walkway scene,
/// stratified over frame index so every seed gets the same mix.
std::vector<frame> walkway_frames(std::uint64_t seed, std::size_t count,
                                  const hawc::capture_config& capture);

/// Table VI regime: pedestrian levels 20..250 composited from donor
/// clusters scanned at setup, objects at 1:2.
std::vector<frame> crowd_frames(std::uint64_t seed, std::size_t count);
hawc::capture_config crowd_capture();

/// The fleet recording: per pole, walkway scans with seeded sensor faults,
/// packed into one HWCC corpus-set container held in memory.
struct fleet_recording {
    std::string container;                          // HWCC bytes
    std::vector<std::uint64_t> pole_seeds;          // stream base seeds
    std::vector<std::vector<std::uint32_t>> truth;  // [pole][frame]
    std::size_t frames_per_pole = 0;
    std::size_t chunk_frames = 0;  // frames per container chunk
    std::size_t stagger = 0;       // pole p starts p * stagger frames in

    /// The recorded frame pole `pole` replays at tick `tick`. Staggered
    /// starts spread the poles' chunk decodes over the ticks instead of
    /// landing them all on one.
    std::size_t frame_at(std::size_t pole, std::uint64_t tick) const {
        return static_cast<std::size_t>((tick + pole * stagger) % frames_per_pole);
    }
};
fleet_recording fleet_frames(std::uint64_t seed, std::size_t poles, std::size_t frames_per_pole,
                             const hawc::capture_config& capture);

// ---- measurement helpers ---------------------------------------------------

/// The timed pass's lanes: 1, unless HAWC_THREADS names another count (the
/// run is then marked non-baseline).
std::size_t timed_lanes();

/// Lanes of the scaling pass: 4, or the host's cores when it has fewer.
std::size_t scaling_lanes();

double seconds_since(std::uint64_t start_ns);
/// CPU time of the whole process so far, in seconds. With the guest's
/// paravirtual steal-time accounting it leaves out time the host gave the
/// vCPU to someone else.
double process_cpu_s();
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// A timed pass's samples, each tagged with the step (frame, or tick) it
/// belongs to. Metrics are taken over the whole pass, which ends after a
/// whole number of passes over its distinct inputs, so every run holds
/// the same mix of them.
///
/// Given the speed_probe's times over the same pass (`speed`, each tagged
/// with the step it ran before), every sample is first brought to the
/// probe's nominal speed: multiplied by speed_probe::nominal_ms over the
/// median of the probe_window probe times nearest its step. Its time
/// then reads as a time on a host where the probe takes nominal_ms.
class timed_series {
public:
    static constexpr std::size_t probe_window = 5;

    timed_series() : cpu_start_s_{process_cpu_s()} {}
    void add(double value_ms, std::uint64_t step) {
        steps_.push_back(step);
        cpu_s_.push_back(process_cpu_s());
        values_.push_back(value_ms);
    }
    /// The q-quantile of the (normalised) samples.
    double quantile(double q, const timed_series* speed = nullptr) const;
    /// Samples per second of the process's CPU time, less the probe's own
    /// time, with each sample's share of that time normalised as above.
    /// A closed loop at one lane keeps one core busy, so this is its
    /// throughput per busy core, whatever share of a core the host gave
    /// the run.
    double rate(const timed_series* speed = nullptr) const;
    /// Median of the samples as measured.
    double median() const;
    std::size_t size() const { return values_.size(); }

private:
    /// Per sample, the factor that brings it to the probe's nominal speed.
    std::vector<double> speed_factors(const timed_series* speed) const;

    double cpu_start_s_;
    std::vector<std::uint64_t> steps_;
    std::vector<double> cpu_s_;
    std::vector<double> values_;
};

/// Host-speed probe. On a shared host the speed of one thread drifts with
/// the neighbours' load (a busy sibling thread on the core, clock
/// frequency, stolen time), by up to 2x between minutes, and every timing
/// of a run moves with it. The probe is a fixed kernel of the benchmark's
/// own, so no change to the program moves it: throughput-bound float
/// arithmetic (16 independent multiply-add chains over two 64 KiB arrays,
/// then a brute-force nearest-neighbour search of 48 points among 1024),
/// with its arrays brought into cache before the timer starts. Timed
/// passes run it between measured calls about every 10 ms, and the
/// end-to-end timings are reported at the probe's nominal speed (see
/// timed_series).
class speed_probe {
public:
    /// A fixed reference, about the probe's time on the baseline host
    /// (README, Baseline): a normalised time reads as a time on a host
    /// where the probe takes nominal_ms.
    static constexpr double nominal_ms = 0.1;

    speed_probe();
    /// Run the kernel once; its wall time in ms.
    double run_ms();
    /// Run it into `series`, tagged with the step it runs before, when
    /// 10 ms have passed since the last paced run.
    void pace(timed_series& series, std::uint64_t step);

private:
    std::vector<float> a_;
    std::vector<float> b_;
    std::uint64_t last_ns_ = 0;
    volatile float sink_ = 0.0f;
};

/// Spans kept in memory: the benchmark's own, recorded through tracer()
/// around public calls, or the program's, when sink() is installed on
/// its tracer. total_ms() sums each name's durations.
class span_log {
public:
    explicit span_log(std::size_t capacity);
    hawc::telemetry::tracer* tracer() { return &tracer_; }
    hawc::telemetry::trace_sink* sink() { return &sink_; }
    std::map<std::string, double> total_ms() const;
    std::vector<hawc::telemetry::span_record> spans() const { return sink_.snapshot(); }
    bool overflowed() const { return sink_.recorded() > sink_.capacity(); }

private:
    hawc::telemetry::trace_sink sink_;
    hawc::telemetry::tracer tracer_;
};

// ---- heap accounting (heap_meter.cpp) ---------------------------------------

/// Heap bytes live in the whole process, and their high-water mark since
/// the last heap_reset_peak(), counted by the benchmark's replacement of
/// the global operator new and delete.
std::size_t heap_live_bytes();
std::size_t heap_peak_bytes();
void heap_reset_peak();

/// The program's heap over a pass. Only calls into the program are
/// metered: the heap its set-up left live, plus the net bytes each
/// metered call leaves behind, plus the rise above that inside the call.
/// What the benchmark allocates between calls (its inputs, sample series,
/// reference results, the other passes' objects) never enters. Reported
/// is the mean over the calls of the program's heap at each call's
/// high-water mark: the largest call alone would move with whichever
/// frame happens to cross a vector's next capacity doubling.
class heap_meter {
public:
    explicit heap_meter(std::size_t setup_bytes) : held_{static_cast<double>(setup_bytes)} {}
    void begin_call() {
        heap_reset_peak();
        start_ = heap_live_bytes();
    }
    void end_call() {
        const double start = static_cast<double>(start_);
        peak_sum_ += held_ + static_cast<double>(heap_peak_bytes()) - start;
        held_ += static_cast<double>(heap_live_bytes()) - start;
        ++calls_;
    }
    double mean_peak_mb() const {
        return peak_sum_ / std::max(1.0, static_cast<double>(calls_)) / (1024.0 * 1024.0);
    }

private:
    double held_;
    double peak_sum_ = 0.0;
    std::size_t calls_ = 0;
    std::size_t start_ = 0;
};

// ---- set-up timing ----------------------------------------------------------

inline constexpr std::size_t setup_rounds = 4;
inline constexpr std::size_t setup_round_samples = 15;
inline constexpr std::size_t setup_batch = 8;

/// Set-up timing. A sample builds setup_batch objects in a row and takes
/// the mean time of one; the objects are destroyed outside the timed
/// region. Samples are taken in setup_rounds rounds spread over the run
/// (before the first pass and after later ones), so that one burst of
/// host noise moves a few samples rather than their median. The speed
/// probe runs before every sample, and the median is reported at the
/// probe's nominal speed.
template <typename Build>
class setup_timer {
public:
    using object = std::invoke_result_t<Build&>;

    explicit setup_timer(Build build) : build_{std::move(build)} {}

    /// One round of samples; returns the last object built.
    object round() {
        std::optional<object> kept;
        for (std::size_t s = 0; s < setup_round_samples; ++s) {
            std::vector<object> batch;
            batch.reserve(setup_batch);
            probe_ms_.add(probe_.run_ms(), samples_);
            const std::uint64_t start = hawc::telemetry::steady_now_ns();
            for (std::size_t b = 0; b < setup_batch; ++b) batch.push_back(build_());
            times_.add(seconds_since(start) * 1e3 / static_cast<double>(setup_batch), samples_++);
            kept.reset();
            kept.emplace(std::move(batch.back()));
        }
        return std::move(*kept);
    }

    /// The first round, measuring what the object it returns holds on
    /// the heap.
    object first_round(std::size_t& heap_bytes) {
        const std::size_t live_before = heap_live_bytes();
        object kept = round();
        heap_bytes = heap_live_bytes() - live_before;
        return kept;
    }

    /// Median over every sample so far, in seconds, at the probe's
    /// nominal speed.
    double median_s() const { return times_.quantile(0.5, &probe_ms_) * 1e-3; }

private:
    Build build_;
    speed_probe probe_;
    timed_series times_;
    timed_series probe_ms_;
    std::uint64_t samples_ = 0;
};

}  // namespace polebench
