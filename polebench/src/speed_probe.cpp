// Host-speed probe: a fixed kernel of the benchmark's own, timed between
// the measured calls. See speed_probe in polebench.hpp.

#include "polebench.hpp"

namespace polebench {

namespace {

constexpr std::size_t probe_floats = 16384;  // per array: 64 KiB
constexpr std::size_t probe_passes = 24;
constexpr std::size_t probe_queries = 48;
constexpr std::size_t probe_points = 1024;
constexpr double probe_interval_s = 0.010;

/// A fixed 64-bit LCG, so the probe's data never depends on the seed.
std::uint64_t lcg(std::uint64_t& state) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
}

}  // namespace

speed_probe::speed_probe() : a_(probe_floats), b_(probe_floats) {
    std::uint64_t state = 0x5eed;
    for (float& v : a_) v = static_cast<float>(lcg(state) % 1000) * 1e-3f;
    for (float& v : b_) v = static_cast<float>(lcg(state) % 1000) * 1e-3f;
}

double speed_probe::run_ms() {
    // Bring both arrays back into the core's caches first, untimed: the
    // measured calls in between evict them, by as much as the frame that
    // ran last happened to touch.
    float warm = 0.0f;
    for (std::size_t i = 0; i < probe_floats; i += 16) warm += a_[i] + b_[i];
    sink_ = sink_ + warm;

    // Throughput-bound on purpose: a latency-bound kernel (one dependency
    // chain) barely slows when a sibling thread shares the core, while the
    // program slows as much as this does.
    const std::uint64_t start = hawc::telemetry::steady_now_ns();
    float acc[16] = {};
    for (std::size_t pass = 0; pass < probe_passes; ++pass) {
        for (std::size_t i = 0; i + 16 <= probe_floats; i += 16) {
            for (std::size_t k = 0; k < 16; ++k) acc[k] += a_[i + k] * b_[i + k];
        }
    }
    float nearest = 0.0f;
    for (std::size_t q = 0; q < probe_queries; ++q) {
        const float qx = a_[q];
        const float qy = a_[q + 100];
        const float qz = a_[q + 200];
        float best = 1e30f;
        for (std::size_t i = 0; i < probe_points; ++i) {
            const float dx = b_[3 * i] - qx;
            const float dy = b_[3 * i + 1] - qy;
            const float dz = b_[3 * i + 2] - qz;
            const float d = dx * dx + dy * dy + dz * dz;
            best = d < best ? d : best;
        }
        nearest += best;
    }
    const double ms = seconds_since(start) * 1e3;
    float sum = nearest;
    for (const float v : acc) sum += v;
    sink_ = sink_ + sum;
    return ms;
}

void speed_probe::pace(timed_series& series, std::uint64_t step) {
    const std::uint64_t now = hawc::telemetry::steady_now_ns();
    if (last_ns_ != 0 && static_cast<double>(now - last_ns_) * 1e-9 < probe_interval_s) return;
    series.add(run_ms(), step);
    last_ns_ = hawc::telemetry::steady_now_ns();
}

}  // namespace polebench
