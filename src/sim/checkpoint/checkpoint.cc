#include "sim/checkpoint/checkpoint.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"

namespace tempest
{

namespace
{

constexpr char kMagic[8] = {'T', 'M', 'P', 'S', 'T', 'C', 'K', 'P'};

std::string
tagName(std::uint32_t id)
{
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((id >> (8 * i)) & 0xff);
        s[static_cast<std::size_t>(i)] =
            (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return s;
}

} // namespace

StateWriter&
CheckpointWriter::chunk(std::uint32_t id)
{
    for (const Chunk& c : chunks_) {
        if (c.id == id)
            fatal("duplicate checkpoint chunk '", tagName(id), "'");
    }
    chunks_.push_back(Chunk{id, StateWriter{}});
    return chunks_.back().payload;
}

std::string
CheckpointWriter::serialize() const
{
    constexpr std::size_t kRecordBytes = 4 + 4 + 8 + 8;
    std::size_t total = sizeof(kMagic) + 4 + 4;
    for (const Chunk& c : chunks_)
        total += kRecordBytes + c.payload.size();

    StateWriter out;
    out.reserve(total);
    std::uint64_t magic; // the 8 magic bytes, in file order
    std::memcpy(&magic, kMagic, sizeof(magic));
    out.u64(magic);
    out.u32(kCheckpointVersion);
    out.u32(static_cast<std::uint32_t>(chunks_.size()));
    for (const Chunk& c : chunks_) {
        const std::string& payload = c.payload.bytes();
        out.u32(c.id);
        out.u32(0); // flags, reserved
        out.blob(payload.data(), payload.size()); // u64 length, payload
        out.u64(checksum64(payload.data(), payload.size()));
    }
    return std::move(out).take();
}

CheckpointReader::CheckpointReader(std::string_view bytes)
{
    if (bytes.size() < sizeof(kMagic) + 8) {
        fatal("checkpoint too small (", bytes.size(),
              " bytes): truncated or not a checkpoint");
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        fatal("bad checkpoint magic: not a Tempest checkpoint");

    StateReader r(bytes.substr(sizeof(kMagic)));
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion) {
        fatal("unsupported checkpoint version ", version,
              " (this build reads version ", kCheckpointVersion,
              ")");
    }
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        if (r.remaining() < 16) {
            fatal("checkpoint truncated in chunk header ", i + 1,
                  " of ", count);
        }
        const std::uint32_t id = r.u32();
        (void)r.u32(); // flags
        const std::uint64_t len = r.u64();
        // Written so that no huge `len` can wrap the comparison.
        if (r.remaining() < 8 || len > r.remaining() - 8) {
            fatal("checkpoint truncated inside chunk '",
                  tagName(id), "' (payload ", len, " bytes, ",
                  r.remaining(), " left)");
        }
        const std::string_view payload =
            r.view(static_cast<std::size_t>(len));
        const std::uint64_t stored = r.u64();
        const std::uint64_t computed =
            checksum64(payload.data(), payload.size());
        if (stored != computed) {
            fatal("checkpoint chunk '", tagName(id),
                  "' checksum mismatch (stored 0x", std::hex,
                  stored, ", computed 0x", computed, std::dec,
                  "): corrupt checkpoint");
        }
        for (const Chunk& c : chunks_) {
            if (c.id == id) {
                fatal("checkpoint has duplicate chunk '",
                      tagName(id), "'");
            }
        }
        chunks_.push_back(Chunk{id, payload});
    }
    if (!r.atEnd()) {
        fatal("checkpoint has ", r.remaining(),
              " trailing bytes after the last chunk");
    }
}

const CheckpointReader::Chunk*
CheckpointReader::find(std::uint32_t id) const
{
    for (const Chunk& c : chunks_) {
        if (c.id == id)
            return &c;
    }
    return nullptr;
}

bool
CheckpointReader::has(std::uint32_t id) const
{
    return find(id) != nullptr;
}

StateReader
CheckpointReader::chunk(std::uint32_t id) const
{
    const Chunk* c = find(id);
    if (!c) {
        fatal("checkpoint is missing required chunk '",
              tagName(id), "'");
    }
    return StateReader(c->payload);
}

void
writeCheckpointFile(const std::string& path,
                    const std::string& bytes)
{
    // The staging name must be unique per writer: a fixed
    // `path + ".tmp"` lets two concurrent writers targeting the
    // same path (the serve daemon's snapshot pool, parallel
    // warm-fork spills) interleave writes into one staging file
    // and publish a corrupt checkpoint. pid + a process-wide
    // counter disambiguates both across processes and across
    // threads within one process.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(
            counter.fetch_add(1, std::memory_order_relaxed));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("cannot open '", tmp, "' for checkpoint write");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    // fflush moves the bytes to the kernel; fsync makes them
    // durable before the rename publishes the file. Without the
    // fsync, a crash right after rename can leave a zero-length
    // "valid" checkpoint on journaled filesystems that commit the
    // rename before the data.
    const bool flushed = std::fflush(f) == 0;
    const bool synced = flushed && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed || !synced) {
        std::remove(tmp.c_str());
        fatal("short write to checkpoint '", tmp, "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename checkpoint '", tmp, "' to '", path,
              "'");
    }
    // Best-effort directory sync so the rename itself is durable.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
}

std::string
readCheckpointFile(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal("cannot open checkpoint '", path, "'");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fatal("cannot stat checkpoint '", path, "'");
    }
    // Checkpoints are published by rename(), so the size cannot
    // change under the reader: size the buffer once, read it full.
    std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (got != bytes.size()) {
        fatal("read error on checkpoint '", path, "' (", got,
              " of ", bytes.size(), " bytes)");
    }
    return bytes;
}

} // namespace tempest
