/**
 * @file
 * StateIO: the byte-stream serializer visitor every stateful
 * component implements for checkpointing.
 *
 * A component's `saveState(StateWriter&)` appends its dynamic state
 * as fixed-width little-endian fields; `loadState(StateReader&)`
 * reads them back in the same order. Encoding rules:
 *
 * - integers are fixed-width little-endian (u8/u32/u64); signed
 *   values travel as their two's-complement bit pattern,
 * - doubles travel as their IEEE-754 bit pattern (bit-exact
 *   round-trip, the property the resume bit-identity tests rely
 *   on),
 * - bools are one byte (0/1),
 * - strings are a u32 length followed by raw bytes.
 *
 * The reader is bounds-checked: any read past the end of the
 * payload reports a clear fatal() instead of undefined behaviour,
 * which is what turns a truncated or corrupt checkpoint into a
 * diagnosable error.
 *
 * This header is intentionally dependency-free (common/log.hh
 * only) so every layer — uarch, workload, thermal, dtm — can
 * implement the visitor without linking against the sim library.
 */

#ifndef TEMPEST_SIM_CHECKPOINT_STATEIO_HH
#define TEMPEST_SIM_CHECKPOINT_STATEIO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/log.hh"

namespace tempest
{

// Fields are copied in host byte order; the format is little-endian.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint format assumes a little-endian host");

/**
 * FNV-1a 64-bit over a byte range. The result hashes
 * (hashSimResult, hashCmpResult, sweep_hash) and deriveRunSeed are
 * built on it, so its value must never change.
 */
inline std::uint64_t
fnv1a64(const void* data, std::size_t size,
        std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Word-parallel integrity checksum (checkpoint chunks, warm
 * snapshot fingerprints). Four interleaved FNV-1a-style lanes each
 * fold one 8-byte word per step, so the multiply chains overlap
 * instead of serializing on one per byte; the lanes are then
 * folded together, followed by the tail bytes and the length.
 * Every step is a bijection of the running state for fixed input,
 * and injective in its input for fixed state, so any single-bit
 * flip anywhere in the range changes the result with certainty.
 * It detects corruption; it is not a result hash (see fnv1a64).
 */
inline std::uint64_t
checksum64(const void* data, std::size_t size)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t lane[4] = {0xcbf29ce484222325ULL,
                             0x84222325cbf29ce4ULL,
                             0x9e3779b97f4a7c15ULL,
                             0xc2b2ae3d27d4eb4fULL};
    std::size_t i = 0;
    for (; i + 32 <= size; i += 32) {
        for (int k = 0; k < 4; ++k) {
            std::uint64_t w;
            std::memcpy(&w, p + i + 8 * k, sizeof(w));
            lane[k] = (lane[k] ^ w) * kPrime;
        }
    }
    std::uint64_t h = lane[0];
    for (int k = 1; k < 4; ++k)
        h = (h ^ lane[k]) * kPrime;
    for (; i < size; ++i)
        h = (h ^ p[i]) * kPrime;
    h = (h ^ static_cast<std::uint64_t>(size)) * kPrime;
    return h ^ (h >> 32);
}

/** Append-only little-endian field writer. */
class StateWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void u32(std::uint32_t v) { put(&v, sizeof(v)); }
    void u64(std::uint64_t v) { put(&v, sizeof(v)); }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        put(&v, sizeof(v));
    }

    void
    str(const std::string& s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }

    /**
     * Bulk write of one SoA array: a u64 byte count followed by the
     * raw bytes. Elements must be trivially copyable and
     * fixed-width; multi-byte elements travel in host byte order,
     * which is the format's little-endian order on the hosts
     * tempest supports (see the static_assert above).
     * Lint treats `blob` calls as the serializer for members
     * annotated `ckpt:bulk(<group>)`.
     */
    void
    blob(const void* data, std::size_t n_bytes)
    {
        u64(static_cast<std::uint64_t>(n_bytes));
        put(data, n_bytes);
    }

    const std::string& bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Pre-size the buffer for a known total, so appends never
     * reallocate. */
    void reserve(std::size_t n) { buf_.reserve(n); }

    /** Move the bytes out (no copy); the writer is spent. */
    std::string take() && { return std::move(buf_); }

  private:
    void
    put(const void* v, std::size_t n)
    {
        buf_.append(static_cast<const char*>(v), n);
    }

    std::string buf_;
};

/** Bounds-checked reader over one chunk payload (not owned). */
class StateReader
{
  public:
    explicit StateReader(std::string_view payload)
        : p_(reinterpret_cast<const unsigned char*>(payload.data())),
          end_(p_ + payload.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return *p_++;
    }

    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean() { return u8() != 0; }

    double f64() { return get<double>(); }

    std::string str() { return std::string(view(u32())); }

    /**
     * Bulk read of one SoA array written by StateWriter::blob. The
     * destination must hold exactly n_bytes; a length mismatch is a
     * geometry mismatch (different build or corrupt checkpoint) and
     * is fatal.
     */
    void
    blob(void* out, std::size_t n_bytes)
    {
        const std::uint64_t stored = u64();
        if (stored != n_bytes) {
            fatal("checkpoint bulk array is ", stored,
                  " bytes, expected ", n_bytes,
                  ": geometry mismatch or corrupt checkpoint");
        }
        std::memcpy(out, view(n_bytes).data(), n_bytes);
    }

    /** The next n bytes as a view into the payload (no copy);
     * the reader advances past them. */
    std::string_view
    view(std::size_t n)
    {
        need(n);
        const std::string_view v(reinterpret_cast<const char*>(p_), n);
        p_ += n;
        return v;
    }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    bool atEnd() const { return p_ == end_; }

  private:
    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
        return v;
    }

    void
    need(std::size_t n)
    {
        if (remaining() < n) {
            fatal("checkpoint chunk ends early (need ", n,
                  " more bytes, have ", remaining(),
                  "): truncated or corrupt checkpoint");
        }
    }

    const unsigned char* p_;
    const unsigned char* end_;
};

} // namespace tempest

#endif // TEMPEST_SIM_CHECKPOINT_STATEIO_HH
