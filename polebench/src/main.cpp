// polebench command line.
//
//   polebench --workload walkway|crowd|fleet --seed N --seconds S --trace 0|1
//             [--golden DIR] [--source-id ID] [--trace-out FILE]
//             [--frames N] [--min-steps N]
//   polebench --selftest
//
// Prints every metric by name and unit, `# raw` lines with the timings
// before speed normalisation (for reference, not metrics), a `# meta` line
// with the host and build fingerprint, and as the last line one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and, with --trace-out, writes the traced run's spans as a Chrome
// trace). --frames and --min-steps shrink a run for the self-tests.
// Exits 1 when the correctness gate fails, 2 on a usage or build error.

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/build_info.hpp"
#include "polebench.hpp"

#ifndef POLEBENCH_BUILD_TYPE
#define POLEBENCH_BUILD_TYPE "unknown"
#endif

namespace polebench {
namespace {

struct metric_spec {
    const char* name;
    const char* unit;
};

// The declared metrics, in print order. BENCHMARK.json declares the same
// names and units (the self-test holds the two together).
constexpr metric_spec end_to_end[] = {
    {"frame_ms_p50", "ms"},   {"frame_ms_p95", "ms"}, {"tick_ms_p50", "ms"},
    {"tick_ms_p95", "ms"},    {"frames_per_s", "1/s"}, {"count_mae", "people"},
    {"served_ratio", "ratio"}, {"setup_s", "s"},      {"frame_heap_mb", "MB"},
};

constexpr metric_spec per_layer[] = {
    {"preprocess.ingest_ms", "ms"},
    {"clustering.eps_ms", "ms"},
    {"clustering.dbscan_ms", "ms"},
    {"clustering.tree_extract_ms", "ms"},
    {"counting.classify_ms", "ms"},
    {"runtime.unattributed_ms", "ms"},
    {"runtime.process_ms", "ms"},
    {"counting.split_ms", "ms"},
    {"features.upsample_ms", "ms"},
    {"features.sigma_ms", "ms"},
    {"features.project_ms", "ms"},
    {"quant.forward_ms", "ms"},
    {"replay.read_ms", "ms"},
    {"fleet.submit_ms", "ms"},
    {"fleet.tick_ms", "ms"},
    {"fleet.pole_busy_ms", "ms"},
    {"fleet.fanout_efficiency", "ratio"},
    {"common.pool_speedup", "x"},
    {"trace.overhead_ratio", "ratio"},
    {"preprocess.kept_ratio", "ratio"},
    {"clustering.points_in", "points"},
    {"clustering.clusters", "clusters"},
    {"quant.forward_calls", "calls"},
    {"quant.rows_per_call", "rows"},
    {"nn.fallback_forwards", "count"},
    {"runtime.frames_degraded", "count"},
    {"runtime.frames_dropped", "count"},
    {"runtime.fixed_eps_fallbacks", "count"},
    {"replay.chunks_decoded", "count"},
    {"fleet.checksum_failures", "count"},
    {"fleet.link_dropped", "count"},
    {"fleet.frames_shed", "count"},
    {"fleet.duplicates_dropped", "count"},
    {"fleet.quarantines", "count"},
    {"obs.events_accepted", "count"},
    {"obs.events_suppressed", "count"},
};

std::string cpu_model() {
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
    for (unsigned int i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model{brand};
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string env_or_empty(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? v : "";
}

std::string meta_line(const options& opt, const std::string& source_id) {
    const hawc::obs::build_info build = hawc::obs::current_build_info();
    const std::string threads = env_or_empty("HAWC_THREADS");
    const std::string isa = env_or_empty("HAWC_KERNEL_ISA");
    std::ostringstream m;
    m << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
      << ", \"seconds\": " << number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"cpu\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_isa\": " << json_string(build.isa)
      << ", \"compiler\": " << json_string(build.compiler)
      << ", \"build_type\": " << json_string(POLEBENCH_BUILD_TYPE)
      << ", \"version\": " << json_string(build.version)
      << ", \"source\": " << json_string(source_id)
      << ", \"HAWC_THREADS\": " << json_string(threads)
      << ", \"HAWC_KERNEL_ISA\": " << json_string(isa)
      << ", \"baseline\": " << (threads.empty() && isa.empty() ? "true" : "false") << "}";
    return m.str();
}

int usage(const char* why) {
    std::cerr << "polebench: " << why << "\n"
              << "usage: polebench --workload walkway|crowd|fleet --seed N --seconds S "
                 "--trace 0|1 [--golden DIR] [--source-id ID] [--trace-out FILE]\n"
              << "       polebench --selftest\n";
    return 2;
}

/// Same seed, same frames; another seed, other frames.
int selftest() {
    const hawc::capture_config cap = golden_capture();
    int failures = 0;
    auto expect = [&](bool ok, const char* what) {
        std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
        if (!ok) ++failures;
    };
    auto same = [](const std::vector<frame>& a, const std::vector<frame>& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (!(a[i].cloud == b[i].cloud) || a[i].truth != b[i].truth ||
                a[i].rng_seed != b[i].rng_seed) {
                return false;
            }
        }
        return true;
    };
    expect(same(walkway_frames(5, 6, cap), walkway_frames(5, 6, cap)),
           "walkway: same seed gives identical frames");
    expect(!same(walkway_frames(5, 6, cap), walkway_frames(6, 6, cap)),
           "walkway: another seed gives other frames");
    expect(same(crowd_frames(5, 3), crowd_frames(5, 3)), "crowd: same seed gives identical frames");
    expect(!same(crowd_frames(5, 3), crowd_frames(6, 3)), "crowd: another seed gives other frames");
    expect(fleet_frames(5, 2, 4, cap).container == fleet_frames(5, 2, 4, cap).container,
           "fleet: same seed gives an identical container");
    expect(fleet_frames(5, 2, 4, cap).container != fleet_frames(6, 2, 4, cap).container,
           "fleet: another seed gives another container");
    return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace polebench

int main(int argc, char** argv) {
    using namespace polebench;
    if (std::strcmp(POLEBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "polebench: refusing to measure a " << POLEBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    options opt;
    std::string source_id = "unknown";
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--selftest") return selftest();
            if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
            const std::string value = argv[++i];
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = value == "1";
            } else if (arg == "--golden") {
                opt.golden_dir = value;
            } else if (arg == "--source-id") {
                source_id = value;
            } else if (arg == "--frames") {
                opt.frames = std::stoul(value);
            } else if (arg == "--min-steps") {
                opt.min_steps = std::stoul(value);
            } else if (arg == "--trace-out") {
                opt.trace_out = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        }
    } catch (const std::exception&) {
        return usage("malformed number");
    }
    if (!have_workload) return usage("--workload is required");

    run_result result;
    try {
        if (opt.workload == "walkway") {
            result = run_walkway(opt);
        } else if (opt.workload == "crowd") {
            result = run_crowd(opt);
        } else if (opt.workload == "fleet") {
            result = run_fleet(opt);
        } else {
            return usage(("unknown workload " + opt.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::cerr << "polebench: " << opt.workload << " failed: " << e.what() << "\n";
        return 2;
    }

    if (!opt.trace_out.empty() && !result.chrome_trace.empty()) {
        std::ofstream spans{opt.trace_out, std::ios::binary};
        spans << result.chrome_trace;
        if (!spans) result.fail("cannot write the span trace to " + opt.trace_out.string());
    }

    std::cout << "polebench " << opt.workload << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0) << "\n";
    std::ostringstream metrics;
    bool first = true;
    auto emit = [&](const metric_spec& spec, bool required) {
        const auto it = result.values.find(spec.name);
        if (it == result.values.end() && required) {
            result.fail(std::string{"metric "} + spec.name + " was not measured");
        }
        double v = it == result.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            result.fail(std::string{"metric "} + spec.name + " is not finite");
            v = 0.0;
        }
        std::cout << "  " << spec.name << " = " << number(v) << " " << spec.unit << "\n";
        metrics << (first ? "" : ", ") << json_string(spec.name) << ": {\"value\": " << number(v)
                << ", \"unit\": " << json_string(spec.unit) << "}";
        first = false;
    };
    if (opt.trace) {
        // A layer a workload does not exercise reads 0.
        for (const metric_spec& spec : per_layer) emit(spec, false);
    } else {
        for (const metric_spec& spec : end_to_end) emit(spec, true);
    }
    for (const auto& [name, v] : result.raw) {
        std::cout << "  # raw " << name << " = " << number(v) << "\n";
    }
    for (const std::string& why : result.failure_notes) {
        std::cout << "GATE FAILURE: " << why << "\n";
    }
    if (result.failures > result.failure_notes.size()) {
        std::cout << "GATE FAILURE: ... and " << result.failures - result.failure_notes.size()
                  << " more\n";
    }
    const bool correct = result.failures == 0;
    std::cout << "# meta " << meta_line(opt, source_id) << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(1, result.attempted)
              << ", \"failed\": " << result.failures << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return correct ? 0 : 1;
}
