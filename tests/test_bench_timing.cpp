// Tests for the shared bench timing core (bench/bench_common.hpp): call
// order, warm-up exclusion, per-round attribution and the summary. The
// core runs on a fake clock that only the fake configurations advance, so
// every expected total is exact and nothing depends on wall-clock time.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"

namespace hawc {
namespace {

struct fake_clock {
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<fake_clock>;
    static constexpr bool is_steady = true;

    static time_point now() { return time_point{duration{ticks}}; }
    static inline std::int64_t ticks = 0;
};

struct call {
    bool prepare;
    std::size_t config;
    std::size_t item;
    bool operator==(const call&) const = default;
};

constexpr std::size_t items = 3;
constexpr std::size_t rounds = 4;
constexpr std::int64_t warm_up_ns = 1'000'000'000;
constexpr std::int64_t prepare_ns = 5'000'000'000;

// Timed cost of one call: 1 ms per pass number, plus a per-config and a
// per-item offset, so every (round, config) total is distinct. Warm-up
// calls cost a full second and prepare calls five, so either one leaking
// into a total is unmistakable.
std::int64_t run_ns(std::size_t pass, std::size_t config, std::size_t item) {
    if (pass == 0) return warm_up_ns;
    return 1'000'000 * static_cast<std::int64_t>(pass) +
           1'000 * static_cast<std::int64_t>(config) + static_cast<std::int64_t>(item);
}

struct recorded_run {
    std::vector<call> log;
    bench::timing_result result;
};

recorded_run run_fakes(std::size_t config_count) {
    recorded_run out;
    fake_clock::ticks = 0;
    std::vector<std::size_t> runs(config_count, 0);
    std::vector<bench::timed_config> configs;
    for (std::size_t c = 0; c < config_count; ++c) {
        configs.push_back(
            {.prepare =
                 [&out, c](std::size_t item) {
                     out.log.push_back({true, c, item});
                     fake_clock::ticks += prepare_ns;
                 },
             .run =
                 [&out, &runs, c](std::size_t item) {
                     out.log.push_back({false, c, item});
                     fake_clock::ticks += run_ns(runs[c]++ / items, c, item);
                 }});
    }
    out.result = bench::time_interleaved<fake_clock>(configs, items, rounds);
    return out;
}

TEST(bench_timing, calls_follow_the_balanced_order) {
    const recorded_run r = run_fakes(4);
    std::vector<call> expected;
    for (std::size_t pass = 0; pass <= rounds; ++pass) {
        for (std::size_t item = 0; item < items; ++item) {
            for (std::size_t slot = 0; slot < 4; ++slot) {
                const std::size_t c = bench::balanced_order(4, pass * items + item, slot);
                expected.push_back({true, c, item});
                expected.push_back({false, c, item});
            }
        }
    }
    EXPECT_EQ(r.log, expected);
}

TEST(bench_timing, balanced_order_rows) {
    const auto row = [](std::size_t n, std::size_t step) {
        std::vector<std::size_t> out;
        for (std::size_t slot = 0; slot < n; ++slot) {
            out.push_back(bench::balanced_order(n, step, slot));
        }
        return out;
    };
    using v = std::vector<std::size_t>;
    // Two configurations alternate; the pattern continues across passes.
    EXPECT_EQ(row(2, 0), (v{0, 1}));
    EXPECT_EQ(row(2, 1), (v{1, 0}));
    EXPECT_EQ(row(2, 7), (v{1, 0}));
    // Four: the Williams square 0132 / 1203 / 2310 / 3021.
    EXPECT_EQ(row(4, 0), (v{0, 1, 3, 2}));
    EXPECT_EQ(row(4, 1), (v{1, 2, 0, 3}));
    EXPECT_EQ(row(4, 2), (v{2, 3, 1, 0}));
    EXPECT_EQ(row(4, 3), (v{3, 0, 2, 1}));
    EXPECT_EQ(row(4, 4), (v{0, 1, 3, 2}));
    // Odd counts add the reversed rows.
    EXPECT_EQ(row(3, 0), (v{0, 1, 2}));
    EXPECT_EQ(row(3, 3), (v{2, 1, 0}));
    EXPECT_EQ(row(1, 0), (v{0}));
    EXPECT_EQ(row(1, 1), (v{0}));
}

TEST(bench_timing, balanced_order_balances_slots_and_predecessors) {
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t period = n % 2 == 0 ? n : 2 * n;
        const std::size_t each = period / n;
        for (std::size_t start : {std::size_t{0}, std::size_t{5}}) {
            std::vector<std::vector<std::size_t>> in_slot(n, std::vector<std::size_t>(n, 0));
            std::vector<std::vector<std::size_t>> follows(n, std::vector<std::size_t>(n, 0));
            for (std::size_t step = start; step < start + period; ++step) {
                std::vector<bool> seen(n, false);
                for (std::size_t slot = 0; slot < n; ++slot) {
                    const std::size_t c = bench::balanced_order(n, step, slot);
                    ASSERT_LT(c, n);
                    ASSERT_FALSE(seen[c]) << "n " << n << " step " << step;
                    seen[c] = true;
                    ++in_slot[c][slot];
                    if (slot > 0) ++follows[bench::balanced_order(n, step, slot - 1)][c];
                }
            }
            for (std::size_t a = 0; a < n; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    EXPECT_EQ(in_slot[a][b], each) << "n " << n;
                    EXPECT_EQ(follows[a][b], a == b ? 0 : each) << "n " << n;
                }
            }
        }
    }
}

TEST(bench_timing, every_config_runs_every_item_once_per_pass) {
    const recorded_run r = run_fakes(2);
    const std::size_t calls_per_pass = 2 * items;
    ASSERT_EQ(r.log.size() % (2 * calls_per_pass), 0U);
    ASSERT_EQ(r.log.size() / (2 * calls_per_pass), rounds + 1);
    for (std::size_t pass = 0; pass <= rounds; ++pass) {
        std::vector<std::vector<int>> seen(2, std::vector<int>(items, 0));
        for (std::size_t k = 0; k < 2 * calls_per_pass; ++k) {
            const call& entry = r.log[pass * 2 * calls_per_pass + k];
            if (!entry.prepare) ++seen[entry.config][entry.item];
        }
        for (const auto& per_config : seen) {
            for (int n : per_config) EXPECT_EQ(n, 1) << "pass " << pass;
        }
    }
}

TEST(bench_timing, totals_exclude_warm_up_and_prepare) {
    const recorded_run r = run_fakes(2);
    ASSERT_EQ(r.result.round_ms.size(), 2U);
    for (std::size_t c = 0; c < 2; ++c) {
        ASSERT_EQ(r.result.round_ms[c].size(), rounds);
        for (std::size_t round = 0; round < rounds; ++round) {
            std::int64_t expected_ns = 0;
            for (std::size_t item = 0; item < items; ++item) {
                expected_ns += run_ns(round + 1, c, item);
            }
            EXPECT_NEAR(r.result.round_ms[c][round], 1.0e-6 * static_cast<double>(expected_ns),
                        1e-9)
                << "config " << c << " round " << round;
        }
    }
}

TEST(bench_timing, summary_matches_percentile) {
    const std::vector<double> samples{5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0};
    const bench::timing_summary s = bench::summarize(samples);
    EXPECT_DOUBLE_EQ(s.median, percentile(samples, 50.0));
    EXPECT_DOUBLE_EQ(s.iqr, percentile(samples, 75.0) - percentile(samples, 25.0));
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    // Sorted 1 2 3 4 5 7 9: median 4, quartiles 2.5 and 6.
    EXPECT_DOUBLE_EQ(s.median, 4.0);
    EXPECT_DOUBLE_EQ(s.iqr, 3.5);
}

TEST(bench_timing, result_summary_is_over_rounds) {
    const recorded_run r = run_fakes(2);
    ASSERT_EQ(r.result.summary.size(), 2U);
    for (std::size_t c = 0; c < 2; ++c) {
        const bench::timing_summary expected = bench::summarize(r.result.round_ms[c]);
        EXPECT_DOUBLE_EQ(r.result.summary[c].median, expected.median);
        EXPECT_DOUBLE_EQ(r.result.summary[c].iqr, expected.iqr);
        EXPECT_DOUBLE_EQ(r.result.summary[c].min, r.result.round_ms[c][0]);
    }
}

}  // namespace
}  // namespace hawc
