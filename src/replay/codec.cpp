#include "replay/codec.hpp"

#include <cstring>

#include "common/error.hpp"

namespace hawc::replay {

namespace {

constexpr std::size_t min_match = 4;   // smallest match the format encodes
constexpr std::size_t emit_match = 6;  // smallest match worth a 3-byte offset
constexpr std::size_t max_offset = (std::size_t{1} << 24) - 1;
constexpr unsigned hash_bits = 16;
constexpr int chain_depth = 32;

std::uint32_t read32(const unsigned char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t hash4(std::uint32_t v) {
    // Knuth multiplicative hash of the 4 bytes at the candidate position.
    return (v * 2654435761u) >> (32u - hash_bits);
}

}  // namespace

std::size_t lz_max_compressed_size(std::size_t n) {
    return n + n / 255 + 16;
}

std::size_t lz_compress_into(const void* src_v, std::size_t n, std::vector<char>& out,
                             lz_work* work) {
    HAWC_REQUIRE(n <= lz_max_input_size, "lz_compress input exceeds the 1 GiB cap");
    out.clear();
    if (work != nullptr) *work = {};
    if (n == 0) return 0;
    const auto* src = static_cast<const unsigned char*>(src_v);
    out.reserve(lz_max_compressed_size(n));

    const auto emit_extension = [&out](std::size_t extra) {
        while (extra >= 255) {
            out.push_back(static_cast<char>(255));
            extra -= 255;
        }
        out.push_back(static_cast<char>(extra));
    };
    // One sequence: the literals in [lit_start, lit_start + lit_len), then
    // — unless this is the terminal literal-only flush — a back reference.
    const auto emit_sequence = [&](std::size_t lit_start, std::size_t lit_len,
                                   std::size_t offset, std::size_t match_len) {
        const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
        const std::size_t match_nibble =
            match_len == 0 ? 0 : (match_len - min_match < 15 ? match_len - min_match : 15);
        out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
        if (lit_nibble == 15) emit_extension(lit_len - 15);
        out.insert(out.end(), src + lit_start, src + lit_start + lit_len);
        if (match_len != 0) {
            out.push_back(static_cast<char>(offset & 0xff));
            out.push_back(static_cast<char>((offset >> 8) & 0xff));
            out.push_back(static_cast<char>((offset >> 16) & 0xff));
            if (match_nibble == 15) emit_extension(match_len - min_match - 15);
        }
    };

    // head[h] = newest position whose 4-byte hash is h; prev[p] = the
    // next-older position sharing p's hash — a classic hash chain.
    std::vector<std::int32_t> head(std::size_t{1} << hash_bits, -1);
    std::vector<std::int32_t> prev(n >= min_match ? n : 0, -1);

    std::size_t anchor = 0;
    std::size_t pos = 0;
    std::size_t miss_streak = 0;  // consecutive positions with no usable match
    lz_work done;
    while (pos + min_match <= n) {
        const std::uint32_t h = hash4(read32(src + pos));
        ++done.hashed;
        std::size_t best_len = 0;
        std::size_t best_offset = 0;
        std::int32_t candidate = head[h];
        for (int depth = 0; candidate >= 0 && depth < chain_depth; ++depth) {
            const auto cand = static_cast<std::size_t>(candidate);
            const std::size_t offset = pos - cand;
            if (offset > max_offset) break;  // chain only gets older
            ++done.compared;
            const std::size_t max_len = n - pos;
            std::size_t len = 0;
            while (len < max_len && src[cand + len] == src[pos + len]) ++len;
            if (len > best_len) {
                best_len = len;
                best_offset = offset;
            }
            candidate = prev[cand];
        }
        if (best_len >= emit_match) {
            miss_streak = 0;
            emit_sequence(anchor, pos - anchor, best_offset, best_len);
            const std::size_t end = pos + best_len;
            while (pos < end && pos + min_match <= n) {
                const std::uint32_t hh = hash4(read32(src + pos));
                ++done.hashed;
                prev[pos] = head[hh];
                head[hh] = static_cast<std::int32_t>(pos);
                ++pos;
            }
            pos = end;
            anchor = end;
        } else {
            prev[pos] = head[h];
            head[h] = static_cast<std::int32_t>(pos);
            // Skip acceleration: on matchless stretches (float32 sensor
            // noise) the step widens every 64 misses, so incompressible
            // chunks are scanned, found hopeless, and stored raw at
            // hundreds of MB/s instead of crawling the hash chains.
            // Any match resets the streak, so redundant regions after a
            // noisy stretch still compress.
            ++miss_streak;
            pos += 1 + (miss_streak >> 6);
        }
    }
    emit_sequence(anchor, n - anchor, 0, 0);
    if (work != nullptr) *work = done;
    return out.size();
}

std::vector<char> lz_compress(const void* src, std::size_t n) {
    std::vector<char> out;
    lz_compress_into(src, n, out);
    return out;
}

void lz_decompress_into(const void* src_v, std::size_t n, void* dst_v, std::size_t dst_size) {
    HAWC_REQUIRE(dst_size <= lz_max_input_size, "lz_decompress output exceeds the 1 GiB cap");
    const auto* src = static_cast<const unsigned char*>(src_v);
    auto* dst = static_cast<char*>(dst_v);
    std::size_t ip = 0;
    std::size_t op = 0;

    const auto read_extension = [&](std::size_t base) {
        std::size_t length = base;
        while (true) {
            if (ip >= n) throw io_error{"lz stream: truncated length extension"};
            const unsigned char byte = src[ip++];
            length += byte;
            if (byte != 255) return length;
        }
    };

    while (ip < n) {
        const unsigned char token = src[ip++];
        std::size_t literal_len = token >> 4;
        if (literal_len == 15) literal_len = read_extension(literal_len);
        if (literal_len > n - ip) throw io_error{"lz stream: literal run past end of input"};
        if (literal_len > dst_size - op) {
            throw io_error{"lz stream: literal run past end of output"};
        }
        if (literal_len != 0) std::memcpy(dst + op, src + ip, literal_len);
        ip += literal_len;
        op += literal_len;
        if (ip == n) break;  // terminal sequence: literals only

        if (n - ip < 3) throw io_error{"lz stream: truncated match offset"};
        const std::size_t offset = static_cast<std::size_t>(src[ip]) |
                                   (static_cast<std::size_t>(src[ip + 1]) << 8) |
                                   (static_cast<std::size_t>(src[ip + 2]) << 16);
        ip += 3;
        if (offset == 0 || offset > op) {
            throw io_error{"lz stream: match offset outside the produced output"};
        }
        std::size_t match_len = (token & 0x0f) + min_match;
        if ((token & 0x0f) == 15) match_len = read_extension(match_len);
        if (match_len > dst_size - op) {
            throw io_error{"lz stream: match run past end of output"};
        }
        // Byte-wise so self-overlapping matches (offset < length, the RLE
        // case) replicate correctly.
        const char* match = dst + (op - offset);
        for (std::size_t i = 0; i < match_len; ++i) dst[op + i] = match[i];
        op += match_len;
    }
    if (op != dst_size) {
        throw io_error{"lz stream: decompressed size mismatch (got " + std::to_string(op) +
                       ", expected " + std::to_string(dst_size) + ")"};
    }
}

std::vector<char> lz_decompress(const void* src, std::size_t n, std::size_t dst_size) {
    HAWC_REQUIRE(dst_size <= lz_max_input_size, "lz_decompress output exceeds the 1 GiB cap");
    std::vector<char> out(dst_size);
    lz_decompress_into(src, n, out.data(), dst_size);
    return out;
}

}  // namespace hawc::replay
