#include "uarch/activity.hh"

#include <type_traits>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

void
PipelineConfig::validate() const
{
    if (fetchWidth < 1 || issueWidth < 1 || commitWidth < 1)
        fatal("pipeline widths must be >= 1");
    if (numIntAlus < 1 || numIntAlus > kMaxIntAlus)
        fatal("numIntAlus out of range [1, ", kMaxIntAlus, "]");
    if (numFpAdders < 1 || numFpAdders > kMaxFpAdders)
        fatal("numFpAdders out of range [1, ", kMaxFpAdders, "]");
    if (numIntRegfileCopies < 1 ||
        numIntRegfileCopies > kMaxRegfileCopies) {
        fatal("numIntRegfileCopies out of range");
    }
    if (numIntAlus % numIntRegfileCopies != 0)
        fatal("ALU count must divide evenly across regfile copies");
    if (intIqEntries < 2 || intIqEntries % 2 != 0)
        fatal("intIqEntries must be even and >= 2");
    if (fpIqEntries < 2 || fpIqEntries % 2 != 0)
        fatal("fpIqEntries must be even and >= 2");
    if (activeListEntries < issueWidth)
        fatal("active list smaller than issue width");
    if (lsqEntries < 1)
        fatal("lsqEntries must be >= 1");
    if (l1dPorts < 1)
        fatal("l1dPorts must be >= 1");
    if (frequencyHz <= 0.0)
        fatal("frequency must be positive");
}

void
ActivityRecord::add(const ActivityRecord& other)
{
    // Every member is a std::uint64_t (or an array of them; the
    // static_asserts below keep that honest), so the interval drain
    // is one flat word-wise pass over the object representation
    // instead of a field-by-field walk.
    static_assert(std::is_trivially_copyable_v<ActivityRecord>);
    static_assert(sizeof(ActivityRecord) % sizeof(std::uint64_t) ==
                  0);
    auto* dst = reinterpret_cast<std::uint64_t*>(this);
    const auto* src =
        reinterpret_cast<const std::uint64_t*>(&other);
    constexpr std::size_t words =
        sizeof(ActivityRecord) / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < words; ++i)
        dst[i] += src[i];
}

void
saveActivity(StateWriter& w, const ActivityRecord& a)
{
    for (int q = 0; q < kNumIssueQueues; ++q) {
        for (int h = 0; h < 2; ++h) {
            w.u64(a.iqEntryMoves[q][h]);
            w.u64(a.iqMuxSelects[q][h]);
            w.u64(a.iqLongCompactions[q][h]);
            w.u64(a.iqCounterOps[q][h]);
            w.u64(a.iqOccupiedCycles[q][h]);
            w.u64(a.iqDispatchWrites[q][h]);
        }
        w.u64(a.iqTagBroadcasts[q]);
        w.u64(a.iqPayloadAccesses[q]);
        w.u64(a.iqSelectAccesses[q]);
        w.u64(a.iqClockGateCycles[q]);
    }
    for (int i = 0; i < kMaxIntAlus; ++i)
        w.u64(a.intAluOps[i]);
    for (int i = 0; i < kMaxFpAdders; ++i)
        w.u64(a.fpAddOps[i]);
    w.u64(a.fpMulOps);
    for (int i = 0; i < kMaxRegfileCopies; ++i) {
        w.u64(a.intRegReads[i]);
        w.u64(a.intRegWrites[i]);
    }
    w.u64(a.fpRegReads);
    w.u64(a.fpRegWrites);
    w.u64(a.l1iAccesses);
    w.u64(a.l1dAccesses);
    w.u64(a.l2Accesses);
    w.u64(a.bpredAccesses);
    w.u64(a.renameOps);
    w.u64(a.lsqOps);
    w.u64(a.commits);
    w.u64(a.cycles);
    w.u64(a.stallCycles);
    w.u64(a.instructions);
    w.u64(a.skippedCycles);
}

void
loadActivity(StateReader& r, ActivityRecord& a)
{
    for (int q = 0; q < kNumIssueQueues; ++q) {
        for (int h = 0; h < 2; ++h) {
            a.iqEntryMoves[q][h] = r.u64();
            a.iqMuxSelects[q][h] = r.u64();
            a.iqLongCompactions[q][h] = r.u64();
            a.iqCounterOps[q][h] = r.u64();
            a.iqOccupiedCycles[q][h] = r.u64();
            a.iqDispatchWrites[q][h] = r.u64();
        }
        a.iqTagBroadcasts[q] = r.u64();
        a.iqPayloadAccesses[q] = r.u64();
        a.iqSelectAccesses[q] = r.u64();
        a.iqClockGateCycles[q] = r.u64();
    }
    for (int i = 0; i < kMaxIntAlus; ++i)
        a.intAluOps[i] = r.u64();
    for (int i = 0; i < kMaxFpAdders; ++i)
        a.fpAddOps[i] = r.u64();
    a.fpMulOps = r.u64();
    for (int i = 0; i < kMaxRegfileCopies; ++i) {
        a.intRegReads[i] = r.u64();
        a.intRegWrites[i] = r.u64();
    }
    a.fpRegReads = r.u64();
    a.fpRegWrites = r.u64();
    a.l1iAccesses = r.u64();
    a.l1dAccesses = r.u64();
    a.l2Accesses = r.u64();
    a.bpredAccesses = r.u64();
    a.renameOps = r.u64();
    a.lsqOps = r.u64();
    a.commits = r.u64();
    a.cycles = r.u64();
    a.stallCycles = r.u64();
    a.instructions = r.u64();
    a.skippedCycles = r.u64();
}

} // namespace tempest
