/**
 * @file
 * Versioned binary checkpoint container.
 *
 * A checkpoint is a magic + version header followed by
 * per-component chunks:
 *
 *     offset 0   magic  "TMPSTCKP"                 (8 bytes)
 *     offset 8   u32    format version (currently 4)
 *     offset 12  u32    chunk count
 *     then, per chunk:
 *                u32    chunk id (FourCC, e.g. 'CMPM')
 *                u32    flags (reserved, 0)
 *                u64    payload length in bytes
 *                       payload
 *                u64    checksum64 of the payload
 *
 * All fields are little-endian. Version 3 changed only the chunk
 * checksum (byte-serial FNV-1a to the word-parallel checksum64).
 * Version 4 writes a single-core run in the multicore layout
 * (CMPM, JB00, CTHM, CSNS, CMPD) instead of one chunk per
 * component; each component's bytes are what version 3 wrote.
 *
 * Every chunk is independently checksummed, so corruption is
 * pinpointed to a component instead of surfacing as undefined
 * behaviour deep inside a load. Readers skip chunks whose id they
 * do not recognise (the length field makes that possible), which
 * is the forward-compatibility policy: new components add new
 * chunks; existing chunk layouts never change silently — a layout
 * change bumps the format version.
 *
 * File I/O is atomic: writeCheckpointFile() writes to a temporary
 * sibling unique to the writer (pid + counter suffix), fsyncs it,
 * and rename()s it into place, so a crash mid-write can never
 * leave a half-written checkpoint where a resumable sweep expects
 * a valid one, and concurrent writers targeting the same path
 * (the serve daemon's snapshot pool) never corrupt each other's
 * staging file — last rename wins with a complete file.
 */

#ifndef TEMPEST_SIM_CHECKPOINT_CHECKPOINT_HH
#define TEMPEST_SIM_CHECKPOINT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/checkpoint/stateio.hh"

namespace tempest
{

/** Current checkpoint format version. */
inline constexpr std::uint32_t kCheckpointVersion = 4;

/** FourCC chunk id from a 4-character tag. */
constexpr std::uint32_t
chunkId(const char (&tag)[5])
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(tag[0])) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(tag[1]))
            << 8) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(tag[2]))
            << 16) |
           (static_cast<std::uint32_t>(
                static_cast<unsigned char>(tag[3]))
            << 24);
}

/** Assembles chunks and serializes them with the format header. */
class CheckpointWriter
{
  public:
    /**
     * Begin a new chunk; returns the payload writer. The reference
     * stays valid until the next chunk() call or serialize().
     */
    StateWriter& chunk(std::uint32_t id);

    /** Serialize header + all chunks + checksums. */
    std::string serialize() const;

  private:
    struct Chunk
    {
        std::uint32_t id;
        StateWriter payload;
    };

    std::vector<Chunk> chunks_;
};

/**
 * Parses and validates a serialized checkpoint. The constructor
 * verifies the magic, version, and every chunk checksum up front;
 * any damage (truncation, flipped bytes, bad lengths) is a clear
 * fatal() at parse time. The reader keeps string_views into the
 * caller's buffer, which must outlive it.
 */
class CheckpointReader
{
  public:
    explicit CheckpointReader(std::string_view bytes);

    /** @return true if a chunk with this id is present. */
    bool has(std::uint32_t id) const;

    /** Payload reader for a chunk; fatal() if absent. */
    StateReader chunk(std::uint32_t id) const;

    std::size_t numChunks() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::uint32_t id;
        std::string_view payload;
    };

    const Chunk* find(std::uint32_t id) const;

    std::vector<Chunk> chunks_;
};

/**
 * Atomically write checkpoint bytes to `path`: write to a
 * per-writer temporary sibling, flush + fsync, then rename() over
 * the target. Safe against concurrent writers on the same path.
 */
void writeCheckpointFile(const std::string& path,
                         const std::string& bytes);

/** Read a whole checkpoint file; fatal() on I/O errors. */
std::string readCheckpointFile(const std::string& path);

} // namespace tempest

#endif // TEMPEST_SIM_CHECKPOINT_CHECKPOINT_HH
