#pragma once

// Static KD-tree over a point cloud. Supports the two queries the paper's
// pipeline needs: k-nearest-neighbour search (adaptive-eps selection and
// the HAP height-variation sigma pass) and fixed-radius search (DBSCAN
// region queries).
//
// The *_into overloads write into caller-owned buffers and perform no
// heap allocation per query (beyond growing the caller's buffer towards
// its steady-state capacity), so tight per-point loops — DBSCAN phase 1,
// the HAP height-variation sigma pass, the k-NN elbow curve — can run
// millions of queries without touching the allocator. Queries are const
// and touch no mutable state, so any number of threads may query one
// tree concurrently.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pointcloud/point_cloud.hpp"

namespace hawc {

/// Result of a nearest-neighbour query: point index plus distance.
struct neighbor {
    std::size_t index = 0;
    double distance = 0.0;
};

/// Balanced KD-tree built once over an immutable cloud. The tree keeps
/// one copy of the points, stored in leaf order, and reports indices into
/// the cloud passed at construction.
class kd_tree {
public:
    explicit kd_tree(const point_cloud& cloud);

    std::size_t size() const { return points_.size(); }

    /// The k nearest neighbours of `query`, sorted by ascending distance.
    /// Includes the query point itself if it is a member of the cloud.
    /// Returns fewer than k results when the cloud is smaller than k.
    std::vector<neighbor> nearest(const vec3& query, std::size_t k) const;

    /// Allocation-free k-NN: `out` is cleared and filled with the same
    /// results nearest() returns. Reuse `out` across queries; after the
    /// first few queries its capacity plateaus and queries stop
    /// allocating. k <= 16 additionally runs on a fixed-size inline heap.
    void nearest_into(const vec3& query, std::size_t k, std::vector<neighbor>& out) const;

    /// Indices of all points within `radius` (inclusive) of `query`.
    std::vector<std::size_t> radius_search(const vec3& query, double radius) const;

    /// Allocation-free radius query: `found` is cleared and filled with
    /// the indices radius_search() returns (same order). Reuse `found`
    /// across queries to amortise its capacity.
    void radius_search_into(const vec3& query, double radius,
                            std::vector<std::size_t>& found) const;

    /// Number of points within `radius` of `query` (no allocation beyond
    /// the recursion stack); used by DBSCAN core-point tests.
    std::size_t count_within(const vec3& query, double radius) const;

private:
    struct node {
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::int32_t begin = 0;   // leaf: range into points_ and order_
        std::int32_t end = 0;
        std::uint8_t axis = 0;
        double split = 0.0;
        bool leaf = false;
    };

    std::int32_t build(const point_cloud& cloud, std::int32_t begin, std::int32_t end,
                       int depth);

    template <typename Visitor>
    void visit_radius(std::int32_t node_index, const vec3& query, double radius_sq,
                      Visitor&& visit) const;

    template <typename Heap>
    void nearest_with_heap(const vec3& query, Heap& heap) const;

    static constexpr std::int32_t leaf_size = 16;

    std::vector<vec3> points_;        // the cloud in tree order: leaves are contiguous runs
    std::vector<std::int32_t> order_; // permutation: tree position -> cloud index
    std::vector<node> nodes_;
    std::int32_t root_ = -1;
};

}  // namespace hawc
