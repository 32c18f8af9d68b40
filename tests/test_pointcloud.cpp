// Tests for point_cloud, KD-tree (validated against brute force), and IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pointcloud/cloud_io.hpp"
#include "pointcloud/kd_tree.hpp"
#include "pointcloud/point_cloud.hpp"

namespace hawc {
namespace {

point_cloud random_cloud(std::size_t n, rng& r, double extent = 10.0) {
    point_cloud cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.push_back({r.uniform(-extent, extent), r.uniform(-extent, extent),
                         r.uniform(-extent, extent)});
    }
    return cloud;
}

TEST(point_cloud, basic_container_ops) {
    point_cloud c;
    EXPECT_TRUE(c.empty());
    c.push_back({1.0, 2.0, 3.0});
    c.push_back({4.0, 5.0, 6.0});
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], (vec3{4.0, 5.0, 6.0}));
    c.clear();
    EXPECT_TRUE(c.empty());
}

TEST(point_cloud, append) {
    point_cloud a{{{1.0, 0.0, 0.0}}};
    point_cloud b{{{2.0, 0.0, 0.0}, {3.0, 0.0, 0.0}}};
    a.append(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a[2].x, 3.0);
}

TEST(point_cloud, centroid_and_bounds) {
    point_cloud c{{{0.0, 0.0, 0.0}, {2.0, 4.0, 6.0}}};
    EXPECT_EQ(c.centroid(), (vec3{1.0, 2.0, 3.0}));
    const aabb box = c.bounds();
    EXPECT_EQ(box.lo, (vec3{0.0, 0.0, 0.0}));
    EXPECT_EQ(box.hi, (vec3{2.0, 4.0, 6.0}));
    EXPECT_EQ(point_cloud{}.centroid(), vec3{});
    EXPECT_TRUE(point_cloud{}.bounds().empty());
}

TEST(point_cloud, filtered) {
    point_cloud c{{{0.0, 0.0, -1.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 2.0}}};
    const point_cloud positive = c.filtered([](const vec3& p) { return p.z > 0.0; });
    EXPECT_EQ(positive.size(), 2u);
}

TEST(point_cloud, translated) {
    point_cloud c{{{1.0, 1.0, 1.0}}};
    const point_cloud moved = c.translated({1.0, -1.0, 0.5});
    EXPECT_EQ(moved[0], (vec3{2.0, 0.0, 1.5}));
}

TEST(point_cloud, rotated_z_quarter_turn) {
    point_cloud c{{{1.0, 0.0, 5.0}}};
    const point_cloud rotated = c.rotated_z({0.0, 0.0, 0.0}, std::numbers::pi / 2);
    EXPECT_NEAR(rotated[0].x, 0.0, 1e-12);
    EXPECT_NEAR(rotated[0].y, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(rotated[0].z, 5.0);  // z untouched
}

TEST(point_cloud, rotation_preserves_pairwise_distances) {
    rng r{3};
    const point_cloud c = random_cloud(40, r);
    const point_cloud rotated = c.rotated_z({1.0, 2.0, 0.0}, 1.234);
    for (std::size_t i = 0; i < c.size(); ++i) {
        for (std::size_t j = i + 1; j < c.size(); j += 7) {
            EXPECT_NEAR(c[i].distance_to(c[j]), rotated[i].distance_to(rotated[j]), 1e-9);
        }
    }
}

TEST(point_cloud, subset) {
    point_cloud c{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {2.0, 0.0, 0.0}}};
    const std::size_t indices[] = {2, 0};
    const point_cloud s = c.subset(indices);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].x, 2.0);
    EXPECT_EQ(s[1].x, 0.0);
}

TEST(cloud_io, roundtrip) {
    rng r{5};
    const point_cloud original = random_cloud(50, r);
    std::stringstream buffer;
    write_xyz(buffer, original);
    const point_cloud loaded = read_xyz(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_NEAR(loaded[i].x, original[i].x, 1e-4);
        EXPECT_NEAR(loaded[i].z, original[i].z, 1e-4);
    }
}

TEST(cloud_io, skips_comments_and_blank_lines) {
    std::istringstream in{"# header\n\n1 2 3\n# mid\n4 5 6\n"};
    const point_cloud c = read_xyz(in);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1], (vec3{4.0, 5.0, 6.0}));
}

TEST(cloud_io, rejects_malformed_line) {
    std::istringstream in{"1 2 3\nnot a point\n"};
    EXPECT_THROW(read_xyz(in), io_error);
}

TEST(cloud_io, missing_file_throws) {
    EXPECT_THROW(read_xyz_file("/nonexistent/path/cloud.xyz"), io_error);
}

// --- KD-tree, validated against brute force ---

// Every point of `cloud` with its distance to `q`, computed with the same
// squared-distance arithmetic the tree uses and sorted by (distance,
// index) — the order nearest() reports.
std::vector<neighbor> brute_force_ranked(const point_cloud& cloud, const vec3& q) {
    std::vector<neighbor> all;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        all.push_back({i, std::sqrt(cloud[i].distance_sq_to(q))});
    }
    std::sort(all.begin(), all.end(), [](const neighbor& a, const neighbor& b) {
        if (a.distance != b.distance) return a.distance < b.distance;
        return a.index < b.index;
    });
    return all;
}

// nearest(q, k) must equal brute force bit for bit. Distances always
// match exactly; indices match wherever they are determined, i.e.
// everywhere unless the k-th distance is tied with the (k+1)-th, in which
// case the tree may keep any of the equally distant points at that rank.
void expect_exact_nearest(const kd_tree& tree, const point_cloud& cloud, const vec3& q,
                          std::size_t k) {
    const auto all = brute_force_ranked(cloud, q);
    const auto got = tree.nearest(q, k);
    const std::size_t m = std::min(k, all.size());
    ASSERT_EQ(got.size(), m) << "k=" << k;
    const double kth = all[m - 1].distance;
    const bool kth_tied = m < all.size() && all[m].distance == kth;
    std::vector<std::size_t> seen;
    for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(got[i].distance, all[i].distance) << "k=" << k << " rank " << i;
        ASSERT_LT(got[i].index, cloud.size());
        EXPECT_EQ(std::sqrt(cloud[got[i].index].distance_sq_to(q)), got[i].distance)
            << "k=" << k << " rank " << i;
        if (!kth_tied || all[i].distance < kth) {
            EXPECT_EQ(got[i].index, all[i].index) << "k=" << k << " rank " << i;
        }
        if (i > 0 && got[i].distance == got[i - 1].distance) {
            EXPECT_LT(got[i - 1].index, got[i].index) << "k=" << k << " rank " << i;
        }
        seen.push_back(got[i].index);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end()) << "k=" << k;
}

// Both heap paths: k <= 16 runs on the inline heap, k > 16 on the
// caller's vector.
constexpr std::size_t knn_ks[] = {1, 9, 16, 17, 48};

class kd_tree_random_test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(kd_tree_random_test, nearest_matches_brute_force) {
    rng r{GetParam()};
    const point_cloud cloud = random_cloud(200 + GetParam() * 37, r);
    const kd_tree tree{cloud};
    for (int trial = 0; trial < 20; ++trial) {
        const vec3 q{r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0)};
        for (const std::size_t k : knn_ks) expect_exact_nearest(tree, cloud, q, k);
    }
    // Self queries: the query is a member of the cloud.
    for (std::size_t i = 0; i < cloud.size(); i += 23) {
        for (const std::size_t k : knn_ks) expect_exact_nearest(tree, cloud, cloud[i], k);
    }
}

TEST_P(kd_tree_random_test, nearest_exact_on_duplicate_clumps) {
    // Clumps of identical points (stuck sensor returns) on a lattice, so
    // exact distance ties occur inside a clump, between mirrored clumps
    // and across leaf boundaries; plus a few scattered points.
    rng r{GetParam() + 500};
    point_cloud cloud;
    for (int clump = 0; clump < 12; ++clump) {
        const vec3 c{static_cast<double>(r.uniform_index(5)) - 2.0,
                     static_cast<double>(r.uniform_index(5)) - 2.0,
                     static_cast<double>(r.uniform_index(3)) - 1.0};
        const std::size_t copies = 1 + r.uniform_index(30);
        for (std::size_t i = 0; i < copies; ++i) {
            cloud.push_back(c);
            cloud.push_back({-c.x, -c.y, c.z});  // mirror: same distance to the origin
        }
    }
    for (int i = 0; i < 40; ++i) cloud.push_back({r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0), 0.0});
    const kd_tree tree{cloud};

    std::vector<vec3> queries{{0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {1.0, 0.0, 0.5}};
    for (std::size_t i = 0; i < cloud.size(); i += 17) queries.push_back(cloud[i]);
    for (int i = 0; i < 10; ++i) {
        queries.push_back({r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0), r.uniform(-1.5, 1.5)});
    }
    for (const auto& q : queries) {
        for (const std::size_t k : knn_ks) expect_exact_nearest(tree, cloud, q, k);
    }
}

TEST_P(kd_tree_random_test, radius_matches_brute_force) {
    rng r{GetParam() + 1000};
    const point_cloud cloud = random_cloud(300, r);
    const kd_tree tree{cloud};
    for (int trial = 0; trial < 20; ++trial) {
        const vec3 q{r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0), r.uniform(-12.0, 12.0)};
        const double radius = r.uniform(0.5, 6.0);
        auto got = tree.radius_search(q, radius);
        std::sort(got.begin(), got.end());
        std::vector<std::size_t> want;
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            if (cloud[i].distance_to(q) <= radius) want.push_back(i);
        }
        EXPECT_EQ(got, want);
        EXPECT_EQ(tree.count_within(q, radius), want.size());
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, kd_tree_random_test, ::testing::Values(1, 2, 3, 4, 5));

TEST(kd_tree, self_query_returns_self_first) {
    rng r{77};
    const point_cloud cloud = random_cloud(100, r);
    const kd_tree tree{cloud};
    const auto nb = tree.nearest(cloud[42], 1);
    ASSERT_EQ(nb.size(), 1u);
    EXPECT_EQ(nb[0].index, 42u);
    EXPECT_NEAR(nb[0].distance, 0.0, 1e-12);
}

TEST(kd_tree, k_larger_than_cloud) {
    point_cloud cloud{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}}};
    const kd_tree tree{cloud};
    EXPECT_EQ(tree.nearest({0.0, 0.0, 0.0}, 10).size(), 2u);
}

TEST(kd_tree, empty_cloud) {
    const kd_tree tree{point_cloud{}};
    EXPECT_TRUE(tree.nearest({0.0, 0.0, 0.0}, 3).empty());
    EXPECT_TRUE(tree.radius_search({0.0, 0.0, 0.0}, 1.0).empty());
    EXPECT_EQ(tree.count_within({0.0, 0.0, 0.0}, 1.0), 0u);
}

TEST(kd_tree, duplicate_points) {
    point_cloud cloud;
    for (int i = 0; i < 50; ++i) cloud.push_back({1.0, 1.0, 1.0});
    const kd_tree tree{cloud};
    EXPECT_EQ(tree.radius_search({1.0, 1.0, 1.0}, 0.1).size(), 50u);
    EXPECT_EQ(tree.nearest({1.0, 1.0, 1.0}, 7).size(), 7u);
}

TEST(kd_tree, zero_radius_finds_exact_matches) {
    point_cloud cloud{{{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}}};
    const kd_tree tree{cloud};
    EXPECT_EQ(tree.radius_search({1.0, 0.0, 0.0}, 0.0).size(), 1u);
    EXPECT_TRUE(tree.radius_search({0.5, 0.0, 0.0}, -1.0).empty());
}

}  // namespace
}  // namespace hawc
