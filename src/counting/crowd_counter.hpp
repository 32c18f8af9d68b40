#pragma once

// The end-to-end crowd counting pipeline (paper Figure 3): ingest ->
// cluster -> classify each cluster -> count the "Human" clusters.
// Generic over the classifier (HAWC-CC / PointNet-CC / AutoEncoder-CC /
// OC-SVM-CC, fp32 or int8) and over the clustering stage (adaptive
// DBSCAN by default; Table IV swaps in fixed-eps or hierarchical).

#include <functional>

#include "classifiers/classifier.hpp"
#include "common/timer.hpp"
#include "counting/metrics.hpp"
#include "dataset/builders.hpp"
#include "telemetry/trace.hpp"

namespace hawc {

/// Pluggable clustering stage: cloud (post-ingest) -> clusters.
using clusterer_fn = std::function<std::vector<point_cloud>(const point_cloud&)>;

/// Merged-cluster handling. In dense crowds DBSCAN can merge adjacent
/// pedestrians into one cluster; such a mega-cluster neither looks like
/// a single person to the classifier nor should count as one. When a
/// cluster is wider than any single person, the counter estimates how
/// many people could occupy its ground footprint (occupied xy grid cells
/// times cell area over a typical per-person footprint), splits it into
/// that many person-sized sub-clusters with k-means, and classifies each
/// sub-cluster individually. This is an extension over the paper's
/// described pipeline — required to keep Table VI counts near-linear at
/// 2+ people/m^2 — and can be disabled to recover plain
/// one-per-cluster counting.
struct multiplicity_config {
    bool enabled = true;
    double cell_size_m = 0.3;
    double person_footprint_m2 = 0.36;       // median single-person footprint
    double single_person_max_extent_m = 1.1;  // wider clusters get split
    std::size_t max_per_cluster = 15;
};

/// Estimated person capacity of an oversized cluster's footprint.
std::size_t estimate_multiplicity(const point_cloud& cluster, const multiplicity_config& config);

/// Per-capture timing breakdown in milliseconds.
struct stage_times {
    double ingest_ms = 0.0;
    double clustering_ms = 0.0;
    double classification_ms = 0.0;

    double total_ms() const { return ingest_ms + clustering_ms + classification_ms; }
};

struct count_result {
    std::size_t count = 0;           // clusters classified human
    std::size_t cluster_count = 0;   // clusters examined
    stage_times times;
};

/// Result of the classification half of the pipeline alone.
struct cluster_count_result {
    std::size_t count = 0;     // clusters (or sub-clusters) classified human
    std::size_t examined = 0;  // clusters meeting the minimum size
    bool truncated = false;    // classification stopped at the deadline
};

class crowd_counter {
public:
    /// `classifier` must outlive the counter. The default clustering
    /// stage is the paper's adaptive DBSCAN.
    crowd_counter(const capture_config& config, const human_classifier& classifier);

    /// Replace the clustering stage (Table IV ablations). The function
    /// receives the ingested cloud and must return the final clusters
    /// (minimum-size filtering is applied by the counter afterwards).
    void set_clusterer(clusterer_fn clusterer) { clusterer_ = std::move(clusterer); }

    /// Adjust or disable merged-cluster multiplicity estimation.
    void set_multiplicity(const multiplicity_config& config) { multiplicity_ = config; }
    const multiplicity_config& multiplicity() const { return multiplicity_; }

    /// Count people in one raw capture.
    count_result count(const point_cloud& raw, rng& random) const;

    /// Classification half of count(): size-filter, multiplicity-split and
    /// classify pre-built clusters. Used by count() and by the streaming
    /// runtime's frame supervisor, which clusters under its own fallback
    /// policy. When `time_budget` is armed and expires, the remaining
    /// clusters are skipped and the result is flagged truncated.
    ///
    /// Each cluster is classified on its own forked rng stream; the
    /// streams and the reduction order are fixed before any cluster is
    /// classified, so the result is identical for every thread count
    /// (including one). When the classifier reports thread_safe(),
    /// clusters fan out across the global pool; otherwise the same loop
    /// runs inline, in cluster order.
    ///
    /// With a telemetry handle, each examined cluster emits a
    /// "classify_cluster" span under `telem.parent` (workers record into
    /// the shared sink) and per-cluster counters are bumped.
    cluster_count_result count_clusters(std::span<const point_cloud> clusters, rng& random,
                                        const deadline& time_budget = {},
                                        const telemetry_handle& telem = {}) const;

    /// Evaluate over a crowd dataset; collects MAE/MSE and latency.
    struct evaluation {
        counting_metrics metrics;
        double mean_latency_ms = 0.0;
        double stddev_latency_ms = 0.0;
    };
    evaluation evaluate(std::span<const crowd_sample> samples, rng& random) const;

    const capture_config& config() const { return config_; }
    std::string name() const { return classifier_->name() + "-CC"; }

private:
    /// People contributed by one size-qualified cluster: classify it, or
    /// for oversized clusters split and vote (see multiplicity_config).
    std::size_t count_one(const point_cloud& cluster, rng& random) const;

    capture_config config_;
    const human_classifier* classifier_;
    clusterer_fn clusterer_;  // empty = adaptive DBSCAN from config_
    multiplicity_config multiplicity_{};
};

/// Convenience factories for Table IV's alternative clustering stages.
clusterer_fn make_fixed_eps_clusterer(double eps, const capture_config& config);
clusterer_fn make_hierarchical_clusterer(double cut_distance, const capture_config& config);

}  // namespace hawc
