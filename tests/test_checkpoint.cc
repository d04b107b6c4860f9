/**
 * @file
 * Checkpoint/restore subsystem tests.
 *
 * The heart of the suite is bit-identity: saving at an interval
 * boundary, restoring into a *fresh* simulator, and running to the
 * end must produce exactly the same full-SimResult FNV-1a hash as
 * a straight-through run — per config, per benchmark, through the
 * in-memory fork path and through a disk round-trip. On top of
 * that: corruption (truncation, flipped payload bytes) must fail
 * with a clear FatalError — every single-bit flip in a chunk is
 * caught by the chunk checksum and named by chunk — while each
 * component's payload bytes stay what format v3 wrote; identity
 * mismatches must be rejected,
 * unknown chunks must be skipped (forward compatibility), and the
 * warm-fork sweep must be bit-identical at 1/2/8 threads and
 * between the in-memory and spill-to-disk snapshot paths.
 *
 * Coverage of the visitors themselves is enforced statically by
 * tools/lint/tempest_lint.py (ctest: lint_tree; DESIGN.md §12):
 * each class implementing saveState/loadState must reference every
 * non-static member in both bodies, in the same order, with a
 * mirrored serializer-call sequence — so deleting any single field
 * write fails the lint before it can fail (or worse, silently
 * pass) the round-trip tests here. Members that are intentionally
 * not serialized carry `// ckpt:skip(<reason>)` on their
 * declaration; the reason is mandatory and must be one of:
 * derived/rebuildable cache, config-owned reference, sub-component
 * serialized separately (CmpSimulator::saveCheckpoint), or
 * per-cycle scratch. When adding a member to a checkpointable
 * class, either wire it through both visitors (and extend the
 * round-trip coverage here) or annotate it — never leave it bare.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/cmp/cmp_simulator.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "uarch/bpred.hh"
#include "uarch/core.hh"
#include "workload/profile.hh"

namespace tempest
{
namespace
{

using experiments::hashSimResult;

/** 4 intervals at the experiment sampling interval; save at 2. */
constexpr std::uint64_t kRunCycles = 200'000;
constexpr std::uint64_t kSaveCycle = 100'000;

struct CaseId
{
    const char* config;
    const char* benchmark;
};

constexpr CaseId kCases[] = {
    {"iq_base", "art"},
    {"iq_base", "facerec"},
    {"iq_base", "mesa"},
    {"iq_toggling", "art"},
    {"iq_toggling", "facerec"},
    {"iq_toggling", "mesa"},
    {"alu_turnoff", "art"},
    {"alu_turnoff", "facerec"},
    {"alu_turnoff", "mesa"},
    {"regfile_balanced", "art"},
    {"regfile_balanced", "facerec"},
    {"regfile_balanced", "mesa"},
};

SimConfig
configFor(const std::string& name)
{
    if (name == "iq_base")
        return experiments::iqBase();
    if (name == "iq_toggling")
        return experiments::iqToggling();
    if (name == "alu_turnoff")
        return experiments::aluFineGrain();
    if (name == "regfile_balanced")
        return experiments::regfileConfig(PortMapping::Balanced,
                                          /*fine_grain=*/true);
    ADD_FAILURE() << "unknown config " << name;
    return experiments::iqBase();
}

SimConfig
seededConfig(const std::string& name, const std::string& benchmark)
{
    SimConfig config = configFor(name);
    config.runSeed = deriveRunSeed(1, benchmark, name);
    return config;
}

std::string
tempPath(const std::string& leaf)
{
    return (std::filesystem::temp_directory_path() / leaf).string();
}

TEST(Checkpoint, SaveRestoreBitIdentityAllConfigs)
{
    for (const CaseId& c : kCases) {
        const SimConfig config =
            seededConfig(c.config, c.benchmark);
        const BenchmarkProfile profile = spec2000(c.benchmark);

        Simulator straight(config, profile);
        const std::uint64_t golden =
            hashSimResult(straight.run(kRunCycles));

        // Save at interval k on a second simulator...
        Simulator saver(config, profile);
        saver.runTo(kSaveCycle);
        const std::string bytes = saver.saveCheckpoint();

        // ...restore into a *fresh* simulator (in-memory path).
        Simulator memResume(config, profile);
        memResume.restoreCheckpoint(bytes);
        memResume.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(memResume.result()), golden)
            << c.config << "/" << c.benchmark
            << ": in-memory restore diverged";

        // ...and through a disk round-trip.
        const std::string path = tempPath(
            std::string("tempest_ckpt_") + c.config + "_" +
            c.benchmark + ".ckpt");
        writeCheckpointFile(path, bytes);
        Simulator diskResume(config, profile);
        diskResume.restoreCheckpoint(readCheckpointFile(path));
        diskResume.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(diskResume.result()), golden)
            << c.config << "/" << c.benchmark
            << ": disk restore diverged";
        std::filesystem::remove(path);

        // The saver itself must also be unperturbed by the save.
        saver.runTo(kRunCycles);
        EXPECT_EQ(hashSimResult(saver.result()), golden)
            << c.config << "/" << c.benchmark
            << ": saveCheckpoint() perturbed the simulation";
    }
}

TEST(Checkpoint, ConcurrentWritersToOnePathNeverTearTheFile)
{
    // Regression: the staging file used to be the fixed
    // `path + ".tmp"`, so two concurrent writers (the serve
    // daemon's warm pool, parallel sweeps sharing a checkpoint
    // dir) interleaved writes into the same temporary and could
    // rename a torn file into place. With per-writer unique
    // staging, the final file must always parse and equal one
    // writer's payload exactly.
    const std::string path =
        tempPath("tempest_ckpt_concurrent.ckpt");
    std::filesystem::remove(path);

    constexpr int kWriters = 8;
    constexpr int kRounds = 25;
    std::vector<std::string> payloads;
    payloads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        CheckpointWriter writer;
        StateWriter& chunk = writer.chunk(chunkId("TEST"));
        // Distinct sizes so a torn mix of two payloads can't
        // accidentally reproduce a valid container.
        for (int i = 0; i <= w * 64; ++i)
            chunk.u64(static_cast<std::uint64_t>(w) * 1000 +
                      static_cast<std::uint64_t>(i));
        payloads.push_back(writer.serialize());
    }

    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int r = 0; r < kRounds; ++r)
                writeCheckpointFile(path, payloads[
                    static_cast<std::size_t>(w)]);
        });
    }
    for (std::thread& t : threads)
        t.join();

    const std::string final_bytes = readCheckpointFile(path);
    EXPECT_NE(std::find(payloads.begin(), payloads.end(),
                        final_bytes),
              payloads.end())
        << "surviving file matches no single writer's payload";
    // Every chunk checksum must validate (no torn container).
    EXPECT_NO_THROW(CheckpointReader reader(final_bytes));

    // No abandoned staging files: every writer renamed or
    // failed loudly, nothing leaked `<path>.tmp.*` siblings.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string stem =
        std::filesystem::path(path).filename().string() +
        ".tmp.";
    for (const auto& entry :
         std::filesystem::directory_iterator(parent)) {
        EXPECT_NE(
            entry.path().filename().string().find(stem), 0u)
            << "leaked staging file: " << entry.path();
    }
    std::filesystem::remove(path);
}

TEST(Checkpoint, MeasurementOriginRoundTrips)
{
    // A snapshot taken after resetMeasurement() carries the
    // measured-region origin: the restored run reports the same
    // post-reset cycles, instructions and statistics.
    const SimConfig config = seededConfig("iq_toggling", "art");
    Simulator straight(config, spec2000("art"));
    straight.runTo(kSaveCycle);
    straight.resetMeasurement();
    straight.runTo(kSaveCycle + kSaveCycle / 2);
    const std::string bytes = straight.saveCheckpoint();
    const SimResult expect = straight.run(kSaveCycle / 2);
    EXPECT_EQ(expect.cycles, kSaveCycle);

    Simulator resumed(config, spec2000("art"));
    resumed.restoreCheckpoint(bytes);
    EXPECT_EQ(hashSimResult(resumed.run(kSaveCycle / 2)),
              hashSimResult(expect));
}

TEST(Checkpoint, TruncatedFileIsAClearError)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    const std::string bytes = sim.saveCheckpoint();

    // Truncation at any depth must surface as FatalError, not UB:
    // inside the header, inside the chunk table, and mid-payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{15},
          std::size_t{40}, bytes.size() / 2, bytes.size() - 1}) {
        Simulator fresh(config, spec2000("art"));
        EXPECT_THROW(
            fresh.restoreCheckpoint(bytes.substr(0, keep)),
            FatalError)
            << "truncated to " << keep << " bytes";
    }
}

TEST(Checkpoint, FlippedByteFailsTheChecksum)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    std::string bytes = sim.saveCheckpoint();

    // Flip one byte deep inside a chunk payload.
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    Simulator fresh(config, spec2000("art"));
    EXPECT_THROW(fresh.restoreCheckpoint(bytes), FatalError);
}

TEST(Checkpoint, BadMagicIsRejected)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    EXPECT_THROW(
        sim.restoreCheckpoint("this is not a checkpoint at all"),
        FatalError);
}

TEST(Checkpoint, IdentityMismatchIsRejected)
{
    const SimConfig config = seededConfig("iq_base", "art");
    Simulator sim(config, spec2000("art"));
    sim.runTo(kSaveCycle);
    const std::string bytes = sim.saveCheckpoint();

    // Wrong benchmark.
    Simulator other(config, spec2000("mesa"));
    EXPECT_THROW(other.restoreCheckpoint(bytes), FatalError);

    // Wrong run seed.
    SimConfig reseeded = config;
    reseeded.runSeed ^= 1;
    Simulator wrongSeed(reseeded, spec2000("art"));
    EXPECT_THROW(wrongSeed.restoreCheckpoint(bytes), FatalError);
}

/** Append an unrecognised chunk to serialized checkpoint bytes
 * (simulating a newer writer): bump the chunk count in the header
 * and append an id/flags/len/payload/checksum record. */
std::string
withUnknownChunk(std::string bytes)
{
    const std::uint32_t count =
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(bytes[12])) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[13]))
         << 8) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[14]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[15]))
         << 24);
    const std::uint32_t bumped = count + 1;
    for (int i = 0; i < 4; ++i) {
        bytes[static_cast<std::size_t>(12 + i)] =
            static_cast<char>((bumped >> (8 * i)) & 0xff);
    }

    CheckpointWriter extra;
    StateWriter& payload = extra.chunk(chunkId("XTRA"));
    payload.str("state from a component this build predates");
    const std::string serialized = extra.serialize();
    // Skip the 16-byte header of the single-chunk container and
    // append just the chunk record.
    bytes.append(serialized.substr(16));
    return bytes;
}

TEST(Checkpoint, UnknownChunksAreSkippedForwardCompatibly)
{
    const SimConfig config = seededConfig("iq_base", "art");
    const BenchmarkProfile profile = spec2000("art");

    Simulator straight(config, profile);
    const std::uint64_t golden =
        hashSimResult(straight.run(kRunCycles));

    Simulator saver(config, profile);
    saver.runTo(kSaveCycle);
    const std::string bytes =
        withUnknownChunk(saver.saveCheckpoint());

    const CheckpointReader reader(bytes);
    EXPECT_TRUE(reader.has(chunkId("XTRA")));
    EXPECT_TRUE(reader.has(chunkId("JB00")));

    Simulator resume(config, profile);
    resume.restoreCheckpoint(bytes);
    resume.runTo(kRunCycles);
    EXPECT_EQ(hashSimResult(resume.result()), golden);
}

TEST(Checkpoint, MissingChunkIsAClearError)
{
    CheckpointWriter cp;
    cp.chunk(chunkId("AAAA")).u32(7);
    const std::string bytes = cp.serialize();
    const CheckpointReader reader(bytes);
    EXPECT_TRUE(reader.has(chunkId("AAAA")));
    EXPECT_FALSE(reader.has(chunkId("BBBB")));
    EXPECT_THROW(reader.chunk(chunkId("BBBB")), FatalError);
}

TEST(Checkpoint, ReaderBoundsChecksChunkPayloads)
{
    CheckpointWriter cp;
    cp.chunk(chunkId("AAAA")).u32(7);
    const std::string bytes = cp.serialize();
    const CheckpointReader reader(bytes);
    StateReader r = reader.chunk(chunkId("AAAA"));
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.atEnd());
    EXPECT_THROW(r.u32(), FatalError); // reads past the payload
}

// ---- container integrity (format v3 chunk checksum) ----

/** One chunk record of a serialized checkpoint. */
struct ChunkRecord
{
    std::string tag;
    std::size_t start;   // offset of the record's id field
    std::size_t payload; // offset of the payload
    std::size_t len;     // payload bytes
    std::size_t end;     // offset just past the record's checksum
};

std::uint64_t
loadU64(const std::string& bytes, std::size_t at)
{
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

/** Walk the chunk records of a well-formed checkpoint. */
std::vector<ChunkRecord>
chunkRecords(const std::string& bytes)
{
    std::uint32_t count;
    std::memcpy(&count, bytes.data() + 12, sizeof(count));
    std::vector<ChunkRecord> out;
    std::size_t at = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        ChunkRecord c;
        c.tag = bytes.substr(at, 4);
        c.start = at;
        c.payload = at + 16;
        c.len = static_cast<std::size_t>(loadU64(bytes, at + 8));
        c.end = c.payload + c.len + 8;
        out.push_back(c);
        at = c.end;
    }
    EXPECT_EQ(at, bytes.size());
    return out;
}

/** The FatalError message parsing `bytes` raises ("" if none). */
std::string
parseError(const std::string& bytes)
{
    try {
        const CheckpointReader reader(bytes);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

std::string
savedAt(const std::string& config, const std::string& benchmark,
        std::uint64_t cycle)
{
    Simulator sim(seededConfig(config, benchmark), spec2000(benchmark));
    sim.runTo(cycle);
    return sim.saveCheckpoint();
}

TEST(Checkpoint, HugeChunkLengthIsATruncationNotAnOverflow)
{
    // A length near 2^64 used to wrap `len + 8` in the bounds check.
    CheckpointWriter cp;
    cp.chunk(chunkId("AAAA")).u32(7);
    const std::string good = cp.serialize();
    for (const std::uint64_t len :
         {~std::uint64_t{0}, ~std::uint64_t{0} - 7}) {
        std::string bytes = good;
        std::memcpy(bytes.data() + 16 + 8, &len, sizeof(len));
        EXPECT_NE(parseError(bytes).find(
                      "truncated inside chunk 'AAAA'"),
                  std::string::npos)
            << "len " << len << ": " << parseError(bytes);
    }
}

TEST(Checkpoint, EverySingleBitFlipInAChunkIsNamed)
{
    // A one-chunk container holding the int queue's state (of a
    // core run for kSaveCycle cycles) keeps the exhaustive sweep
    // cheap: only that chunk is re-verified.
    const SimConfig config = seededConfig("iq_toggling", "art");
    OooCore core(config.pipeline, spec2000("art"), config.runSeed);
    ActivityRecord activity;
    core.run(kSaveCycle, activity);
    CheckpointWriter cp;
    core.intQueue().saveState(cp.chunk(chunkId("IQIN")));
    const std::string single = cp.serialize();
    ASSERT_EQ(parseError(single), "");
    const std::vector<ChunkRecord> chunks = chunkRecords(single);
    ASSERT_EQ(chunks.size(), 1u);
    const ChunkRecord* iq = &chunks.front();
    ASSERT_GE(8 * iq->len, 10'256u);
    const std::size_t payload = 16 + 16;
    std::size_t missed = 0;
    testing::internal::CaptureStderr(); // one fatal() line per flip
    for (std::size_t bit = 0; bit < 8 * iq->len; ++bit) {
        std::string flipped = single;
        flipped[payload + bit / 8] = static_cast<char>(
            flipped[payload + bit / 8] ^ (1 << (bit % 8)));
        if (parseError(flipped).find("chunk 'IQIN' checksum mismatch") ==
            std::string::npos) {
            ++missed;
        }
    }
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(missed, 0u) << "of " << 8 * iq->len << " bit flips";
}

TEST(Checkpoint, EdgeAndTailByteFlipsNameTheirChunk)
{
    const std::string bytes = savedAt("iq_toggling", "art", kSaveCycle);
    const std::vector<ChunkRecord> chunks = chunkRecords(bytes);
    bool sawTail = false;
    testing::internal::CaptureStderr(); // one fatal() line per flip
    for (const ChunkRecord& c : chunks) {
        ASSERT_GT(c.len, 0u) << c.tag;
        std::vector<std::size_t> sites = {c.payload,
                                          c.payload + c.len - 1};
        // The bytes after the last whole 32-byte block take the
        // checksum's byte-wise tail path.
        if (c.len % 32 != 0) {
            sawTail = true;
            for (std::size_t k = c.len - c.len % 32; k < c.len; ++k)
                sites.push_back(c.payload + k);
        }
        for (const std::size_t at : sites) {
            for (int b = 0; b < 8; ++b) {
                std::string flipped = bytes;
                flipped[at] =
                    static_cast<char>(flipped[at] ^ (1 << b));
                EXPECT_NE(parseError(flipped).find(
                              "chunk '" + c.tag + "' checksum"),
                          std::string::npos)
                    << c.tag << " byte " << at - c.payload
                    << " bit " << b;
            }
        }
    }
    testing::internal::GetCapturedStderr();
    EXPECT_TRUE(sawTail) << "no chunk exercises the tail bytes";
}

TEST(Checkpoint, VersionThreeFilesAreRejectedNamingBothVersions)
{
    std::string bytes = savedAt("iq_base", "art", kSaveCycle);
    const std::uint32_t v3 = 3;
    std::memcpy(bytes.data() + 8, &v3, sizeof(v3));
    const std::string err = parseError(bytes);
    EXPECT_NE(err.find("version 3 "), std::string::npos) << err;
    EXPECT_NE(err.find("reads version " +
                       std::to_string(kCheckpointVersion)),
              std::string::npos)
        << err;
}

TEST(Checkpoint, SwappedChunkRecordsRestoreBitIdentically)
{
    const SimConfig config = seededConfig("iq_toggling", "art");
    const BenchmarkProfile profile = spec2000("art");
    Simulator straight(config, profile);
    const std::uint64_t golden = hashSimResult(straight.run(kRunCycles));

    const std::string bytes = savedAt("iq_toggling", "art", kSaveCycle);
    const std::vector<ChunkRecord> chunks = chunkRecords(bytes);
    ASSERT_GE(chunks.size(), 3u);
    // Swap the first and last records; the middle stays in place.
    const ChunkRecord& a = chunks.front();
    const ChunkRecord& b = chunks.back();
    const std::string swapped =
        bytes.substr(0, a.start) + bytes.substr(b.start, b.end - b.start) +
        bytes.substr(a.end, b.start - a.end) +
        bytes.substr(a.start, a.end - a.start);
    ASSERT_EQ(swapped.size(), bytes.size());
    ASSERT_NE(swapped, bytes);

    Simulator resume(config, profile);
    resume.restoreCheckpoint(swapped);
    resume.runTo(kRunCycles);
    EXPECT_EQ(hashSimResult(resume.result()), golden);
}

/** FNV-1a over the concatenated payloads, checksums excluded. */
std::uint64_t
payloadDigest(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const ChunkRecord& c : chunkRecords(bytes))
        h = fnv1a64(bytes.data() + c.payload, c.len, h);
    return h;
}

/** FNV-1a over the first `len` payload bytes of chunk `tag`. */
std::uint64_t
chunkPrefixDigest(const std::string& bytes, const std::string& tag,
                  std::size_t len)
{
    for (const ChunkRecord& c : chunkRecords(bytes)) {
        if (c.tag == tag) {
            EXPECT_GE(c.len, len) << tag;
            return fnv1a64(bytes.data() + c.payload,
                           std::min(len, c.len));
        }
    }
    ADD_FAILURE() << "no chunk " << tag;
    return 0;
}

TEST(Checkpoint, PayloadsAreByteIdenticalToFormatVersionTwo)
{
    // Format v4 writes one core in the multicore layout. Each
    // component's bytes are still what v3 (and v2) wrote: the job
    // chunk opens with the core, workload, queue, ALU, regfile,
    // cache and DTM payloads of v3's CORE..CACH and DTMS chunks
    // (1,069,586 bytes), and CTHM/CSNS equal v3's THRM/SENS. The
    // component digests were measured with a program linked
    // against the last v3 build; the whole-snapshot pins were
    // re-derived with the v4 bump. Any component change would also
    // change the context size that prices CMP migrations.
    const std::string single = savedAt("iq_toggling", "art", 100'000);
    EXPECT_EQ(chunkPrefixDigest(single, "JB00", 1'069'586),
              0xba09ec7ef3a6e7c8ULL);
    EXPECT_EQ(chunkPrefixDigest(single, "CTHM", 440),
              0xf02789ba16bd583aULL);
    EXPECT_EQ(chunkPrefixDigest(single, "CSNS", 32),
              0x13f7df434c146971ULL);
    EXPECT_EQ(single.size(), 1'071'916u);
    EXPECT_EQ(payloadDigest(single), 0x793daf0c03c28174ULL);

    CmpSimConfig cmp;
    cmp.base = experiments::iqBase();
    cmp.cores = 2;
    cmp.benchmarks = {"art", "mesa"};
    cmp.migration.enabled = true;
    cmp.migration.marginK = 400.0;
    cmp.migration.minGapK = 0.0;
    cmp.migration.cooldownIntervals = 2;
    cmp.migration.baseStallCycles = 10'000;
    cmp.migration.busBytesPerCycle = 64;
    CmpSimulator sim(cmp);
    sim.runTo(100'000);
    const std::string multi = sim.saveCheckpoint();
    EXPECT_EQ(multi.size(), 2'143'643u);
    EXPECT_EQ(payloadDigest(multi), 0x145eb87b0a651490ULL);
}

TEST(Checkpoint, BranchPredictorRoundTrips)
{
    GsharePredictor a(/*table_bits=*/10);
    for (std::uint64_t pc = 0; pc < 4000; ++pc)
        a.update(pc * 37, (pc % 3) == 0);

    StateWriter w;
    a.saveState(w);

    GsharePredictor b(/*table_bits=*/10);
    StateReader r(w.bytes());
    b.loadState(r);
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(b.history(), a.history());
    EXPECT_EQ(b.lookups(), a.lookups());
    EXPECT_EQ(b.mispredicts(), a.mispredicts());
    for (std::uint64_t pc = 0; pc < 2000; ++pc)
        ASSERT_EQ(b.predict(pc * 13), a.predict(pc * 13));

    // Geometry mismatch is rejected.
    GsharePredictor wrong(/*table_bits=*/12);
    StateReader r2(w.bytes());
    EXPECT_THROW(wrong.loadState(r2), FatalError);
}

// ---- warm-state forking ----

std::vector<std::uint64_t>
warmForkHashes(int threads, const std::string& spill_dir)
{
    const std::vector<std::pair<std::string, SimConfig>> configs = {
        {"iq_base", configFor("iq_base")},
        {"iq_toggling", configFor("iq_toggling")},
    };
    const std::vector<std::string> benchmarks = {"art", "mesa"};

    experiments::WarmForkOptions warm;
    warm.warmConfig = configFor("iq_base");
    warm.warmupCycles = kSaveCycle;
    warm.spillDir = spill_dir;

    ExperimentRunner::Options options;
    options.threads = threads;
    options.baseSeed = 1;

    const std::vector<ExperimentOutcome> outcomes =
        experiments::runWarmForkSweep(configs, benchmarks,
                                      kRunCycles - kSaveCycle,
                                      warm, options);
    std::vector<std::uint64_t> hashes;
    for (const ExperimentOutcome& out : outcomes) {
        EXPECT_TRUE(out.ok) << out.tag << "/" << out.benchmark
                            << ": " << out.error;
        EXPECT_GE(out.wallSeconds, 0.0);
        hashes.push_back(hashSimResult(out.result));
    }
    return hashes;
}

TEST(WarmFork, BitIdenticalAcrossThreadCounts)
{
    const std::vector<std::uint64_t> serial =
        warmForkHashes(1, "");
    EXPECT_EQ(warmForkHashes(2, ""), serial);
    EXPECT_EQ(warmForkHashes(8, ""), serial);
}

TEST(WarmFork, SpillToDiskMatchesInMemory)
{
    const std::string dir = tempPath("tempest_warmfork_spill");
    std::filesystem::create_directories(dir);
    EXPECT_EQ(warmForkHashes(2, dir), warmForkHashes(1, ""));
    std::filesystem::remove_all(dir);
}

TEST(WarmFork, ForksShareTheWarmupSeedAndMeasureOnlyTheTail)
{
    const std::vector<std::pair<std::string, SimConfig>> configs = {
        {"iq_base", configFor("iq_base")},
        {"iq_toggling", configFor("iq_toggling")},
    };
    const std::vector<std::string> benchmarks = {"art"};

    experiments::WarmForkOptions warm;
    warm.warmConfig = configFor("iq_base");
    warm.warmupCycles = kSaveCycle;

    ExperimentRunner::Options options;
    options.threads = 1;
    options.baseSeed = 1;

    const auto outcomes = experiments::runWarmForkSweep(
        configs, benchmarks, kRunCycles - kSaveCycle, warm,
        options);
    ASSERT_EQ(outcomes.size(), 2u);
    const std::uint64_t warm_seed =
        deriveRunSeed(1, "art", "warmup");
    for (const ExperimentOutcome& out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_EQ(out.seed, warm_seed);
        // Measurement covers only the post-fork region: at least
        // the requested cycles, and strictly less than warm-up +
        // measure (cooling stalls can extend the last interval).
        EXPECT_GE(out.result.cycles, kRunCycles - kSaveCycle);
        EXPECT_LT(out.result.cycles, kRunCycles);
    }
}

} // namespace
} // namespace tempest
