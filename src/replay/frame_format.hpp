#pragma once

// Recorded point-cloud frame sequences — the "record" half of
// record/replay. A corpus is a named, seeded sequence of raw captures
// (plus per-frame ground truth) that is stored in an HWCC container
// (container.hpp), can be checked in as a small golden file, and replays
// deterministically through the pipeline; see DESIGN.md "Replay & parity"
// for the determinism contract.
//
// Point coordinates are stored as float32: golden corpora are recorded
// sensor data, and the recorder rounds its in-memory clouds to float
// before returning them (see round_to_recorded), so that a recorded
// corpus, its container, and every future unpack of it are bit-identical.

#include <cstdint>
#include <string>
#include <vector>

#include "pointcloud/point_cloud.hpp"

namespace hawc::replay {

/// One recorded capture: the raw cloud as the sensor (or fault injector)
/// emitted it, plus the simulation ground truth for accuracy tracking.
struct frame_record {
    point_cloud cloud;
    std::uint32_t ground_truth = 0;

    /// Equal when the ground truth matches and every coordinate has the
    /// same float32 bit pattern — what the wire layout stores. A recorded
    /// NaN return therefore equals itself, which IEEE comparison of the
    /// coordinates would deny.
    bool operator==(const frame_record& other) const;
};

/// A recorded frame sequence. `base_seed` seeds the deterministic
/// per-frame rng streams on replay (see replay_driver.hpp).
struct frame_corpus {
    std::string name;
    std::uint64_t base_seed = 0;
    std::vector<frame_record> frames;

    std::size_t size() const { return frames.size(); }
    bool empty() const { return frames.empty(); }
    std::size_t total_points() const;

    bool operator==(const frame_corpus&) const = default;
};

/// Round every coordinate to its float32 representation — what the
/// on-disk format preserves. Recorded corpora pass through this before
/// being returned so pack/unpack round-trips bit-exactly.
point_cloud round_to_recorded(const point_cloud& cloud);

class byte_writer;
class byte_reader;

/// One frame in the wire layout (u32 ground truth, u64 point count, f32
/// x/y/z per point) — the unit the container's chunk payloads
/// (container.hpp) are built from.
void write_frame_record(byte_writer& out, const frame_record& frame);
frame_record read_frame_record(byte_reader& in);

}  // namespace hawc::replay
