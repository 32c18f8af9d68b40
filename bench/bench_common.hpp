#pragma once

// Shared infrastructure for the paper-reproduction benches: standard
// dataset/model configurations, a fast-mode switch, helpers to print
// measured-vs-paper rows, and the timing core that bench_overhead
// measures with.
//
// Every bench is deterministic given its seeds. Set HAWC_BENCH_FAST=1 to
// run a reduced configuration (smaller dataset, fewer epochs) when
// iterating; the shipped numbers in EXPERIMENTS.md use the default.

#include <chrono>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "classifiers/autoencoder_model.hpp"
#include "classifiers/hawc_model.hpp"
#include "classifiers/ocsvm_model.hpp"
#include "classifiers/pointnet_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "counting/crowd_counter.hpp"

namespace hawc::bench {

/// True when HAWC_BENCH_FAST=1 is set in the environment.
bool fast_mode();

/// Scale a count down in fast mode.
std::size_t scaled(std::size_t full, std::size_t fast);

/// The standard single-person dataset every accuracy bench trains on.
single_person_dataset standard_dataset();

/// The standard crowd dataset (Tables IV and V).
std::vector<crowd_sample> standard_crowd_dataset();
crowd_dataset_config standard_crowd_config();

/// Standard model configurations bound to a dataset's N'_max.
hawc_config standard_hawc_config(const single_person_dataset& ds);
pointnet_config standard_pointnet_config(const single_person_dataset& ds);
autoencoder_config standard_autoencoder_config();

/// Train the standard HAWC (prints progress to stderr).
hawc_model train_standard_hawc(const single_person_dataset& ds, rng& random);

/// Print a section header so bench output is self-describing.
void print_header(const std::string& table_name, const std::string& description);

/// Print a "paper vs measured" note line.
void print_paper_note(const std::string& note);

/// Median, interquartile range and minimum of a sample set.
struct timing_summary {
    double median = 0.0;
    double iqr = 0.0;
    double min = 0.0;
};

/// Summarise samples with hawc::percentile (linear interpolation).
timing_summary summarize(const std::vector<double>& samples);

/// One configuration under test. `run` is the timed call for one item;
/// `prepare`, when set, runs just before it outside the timer (e.g. to
/// deliver the input copy the call consumes).
struct timed_config {
    std::function<void(std::size_t item)> prepare{};
    std::function<void(std::size_t item)> run{};
};

/// Per-configuration results of time_interleaved().
struct timing_result {
    std::vector<std::vector<double>> round_ms;  ///< [config][round]: ms summed over items
    std::vector<timing_summary> summary;        ///< [config]: over the rounds
};

/// Slot-th configuration run at `step` of a balanced (Williams) order
/// over n configurations: every n steps (2n when n is odd) each
/// configuration takes each slot once and directly follows each other
/// configuration equally often. Two configurations alternate 01, 10.
std::size_t balanced_order(std::size_t n, std::size_t step, std::size_t slot);

/// The shared timing core. Runs one untimed warm-up pass, then `rounds`
/// timed passes; every pass walks the items in order, and for each item
/// every configuration runs back to back in balanced_order(), step
/// counting items across passes (pass 0 is the warm-up). The balance
/// matters: the first call of an item meets its input cold, and a call
/// runs faster or slower depending on which configuration ran before it.
/// `Clock` lets a test substitute a fake clock.
template <typename Clock = std::chrono::steady_clock>
timing_result time_interleaved(std::span<const timed_config> configs, std::size_t items,
                               std::size_t rounds) {
    const std::size_t n = configs.size();
    timing_result result;
    result.round_ms.assign(n, std::vector<double>(rounds, 0.0));
    for (std::size_t pass = 0; pass <= rounds; ++pass) {
        for (std::size_t item = 0; item < items; ++item) {
            for (std::size_t slot = 0; slot < n; ++slot) {
                const std::size_t c = balanced_order(n, pass * items + item, slot);
                if (configs[c].prepare) configs[c].prepare(item);
                const auto start = Clock::now();
                configs[c].run(item);
                const auto elapsed = Clock::now() - start;
                if (pass == 0) continue;
                const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed);
                result.round_ms[c][pass - 1] += 1.0e-6 * static_cast<double>(ns.count());
            }
        }
    }
    for (const auto& per_round : result.round_ms) result.summary.push_back(summarize(per_round));
    return result;
}

}  // namespace hawc::bench
