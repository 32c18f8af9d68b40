#pragma once

// In-repo LZ4-class byte-oriented codec for the corpus container
// (container.hpp). The format is a token stream of (literal run, back
// reference) sequences:
//
//   token: 1 byte — high nibble = literal length, low nibble = match
//          length - 4; a nibble of 15 extends with 255-continuation bytes
//   literals: `literal length` raw bytes
//   offset: 3 bytes little-endian (1 .. 2^24-1, must not reach before the
//           start of the output) — 3 bytes instead of LZ4's 2 so matches
//           can span whole multi-frame chunks, where most of a fleet
//           recording's redundancy lives
//   match-length extension bytes when the low nibble is 15
//
// The final sequence carries literals only (the decoder stops when the
// input is exhausted after a literal run). The encoder is a greedy
// hash-chain match finder: newest-first candidate chains per 4-byte hash,
// depth-limited, emitting a match only when it is long enough (>= 6) to
// beat the 3-byte offset it costs.
//
// The decoder is fully bounds-checked: every literal copy, extension
// byte, offset, and match copy is validated against both the source and
// the destination before any byte moves, so a corrupted or adversarial
// stream throws io_error and can never write past the destination buffer
// (the property the container's corruption sweep pins under ASan).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hawc::replay {

/// Largest input one compress/decompress call accepts (1 GiB). Chunked
/// callers never get near this; the cap keeps every internal position fit
/// for the 32-bit chain tables and bounds allocation on malformed sizes.
inline constexpr std::size_t lz_max_input_size = std::size_t{1} << 30;

/// Worst-case compressed size of `n` input bytes: incompressible data
/// expands only by the literal-run framing (1 token + one extension byte
/// per 255 literals).
std::size_t lz_max_compressed_size(std::size_t n);

/// Match-finder work of one compress call: positions hashed and chain
/// candidates compared. Skip acceleration keeps both far below the input
/// size on incompressible data.
struct lz_work {
    std::size_t hashed = 0;
    std::size_t compared = 0;
};

/// Compress src[0, n) into `out` (replacing its contents). Returns the
/// compressed size (== out.size()). When `work` is set, it receives the
/// call's match-finder work.
std::size_t lz_compress_into(const void* src, std::size_t n, std::vector<char>& out,
                             lz_work* work = nullptr);
std::vector<char> lz_compress(const void* src, std::size_t n);

/// Decompress src[0, n) into dst[0, dst_size). The stream must produce
/// exactly `dst_size` bytes; anything else — short output, overlong
/// output, truncated extensions, an offset before the start — throws
/// io_error without ever writing past dst + dst_size.
void lz_decompress_into(const void* src, std::size_t n, void* dst, std::size_t dst_size);
std::vector<char> lz_decompress(const void* src, std::size_t n, std::size_t dst_size);

}  // namespace hawc::replay
