/**
 * @file
 * Per-interval microarchitectural activity record.
 *
 * The core increments these event counts as it simulates; the power
 * model converts them to per-block energy at each thermal sampling
 * interval. Events are deliberately fine-grained where the paper's
 * techniques need them to be: per issue-queue half, per ALU copy,
 * and per register-file copy.
 */

#ifndef TEMPEST_UARCH_ACTIVITY_HH
#define TEMPEST_UARCH_ACTIVITY_HH

#include <cstdint>

#include "uarch/pipeline_config.hh"

namespace tempest
{

class StateWriter;
class StateReader;

/**
 * Event counts accumulated over one sampling interval.
 *
 * Issue-queue counters are indexed [queue][physical half] where
 * queue 0 is integer and 1 is floating-point, and half 0 is the
 * physically lower half of the queue (entries 0..N/2-1).
 */
struct ActivityRecord
{
    // ---- issue queues, per physical half ----
    /** Entries that drove their entry-to-entry data wires. */
    std::uint64_t iqEntryMoves[kNumIssueQueues][2] = {};
    /** Entries that drove cross-queue mux selects. */
    std::uint64_t iqMuxSelects[kNumIssueQueues][2] = {};
    /** Entries whose compaction wrapped across the queue ends. */
    std::uint64_t iqLongCompactions[kNumIssueQueues][2] = {};
    /** Per-entry invalids-counter stage activations. */
    std::uint64_t iqCounterOps[kNumIssueQueues][2] = {};
    /** Entry-cycles occupied (valid), for idle power split. */
    std::uint64_t iqOccupiedCycles[kNumIssueQueues][2] = {};
    /** Entry writes at dispatch (tail-region activity). */
    std::uint64_t iqDispatchWrites[kNumIssueQueues][2] = {};

    // ---- issue queues, global (split evenly across halves) ----
    /** Destination-tag broadcasts (wakeup). */
    std::uint64_t iqTagBroadcasts[kNumIssueQueues] = {};
    /** Payload RAM accesses (write at dispatch, read at issue). */
    std::uint64_t iqPayloadAccesses[kNumIssueQueues] = {};
    /** Select-network accesses (one per issued instruction). */
    std::uint64_t iqSelectAccesses[kNumIssueQueues] = {};
    /** Cycles the clock-gating control logic was active (= cycles). */
    std::uint64_t iqClockGateCycles[kNumIssueQueues] = {};

    // ---- functional units ----
    /** Operations executed per integer ALU copy. */
    std::uint64_t intAluOps[kMaxIntAlus] = {};
    /** Operations executed per FP adder copy. */
    std::uint64_t fpAddOps[kMaxFpAdders] = {};
    /** Operations executed by the FP multiplier block. */
    std::uint64_t fpMulOps = 0;

    // ---- register files ----
    /** Read-port accesses per integer register-file copy. */
    std::uint64_t intRegReads[kMaxRegfileCopies] = {};
    /** Write accesses per integer register-file copy. */
    std::uint64_t intRegWrites[kMaxRegfileCopies] = {};
    std::uint64_t fpRegReads = 0;
    std::uint64_t fpRegWrites = 0;

    // ---- memory hierarchy and frontend (coarse blocks) ----
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t bpredAccesses = 0;
    std::uint64_t renameOps = 0;
    std::uint64_t lsqOps = 0;
    std::uint64_t commits = 0;

    /** Core cycles covered by this record (stall cycles included). */
    std::uint64_t cycles = 0;
    /** Cycles the core was thermally stalled. */
    std::uint64_t stallCycles = 0;
    /** Instructions committed in this interval. */
    std::uint64_t instructions = 0;
    /**
     * Cycles OooCore::run() skipped as provably idle (included in
     * `cycles`). Observation only: the skip is bit-identical to
     * ticking, so the result hashes leave this count out.
     */
    std::uint64_t skippedCycles = 0;

    /** Zero all counts. */
    void clear() { *this = ActivityRecord{}; }

    /** Accumulate another record into this one. */
    void add(const ActivityRecord& other);
};

/**
 * Serialize every ActivityRecord counter, field by field in
 * declaration order (the SIMR checkpoint chunk layout). Shared by
 * the single-core Simulator and the CMP layer.
 */
void saveActivity(StateWriter& w, const ActivityRecord& a);

/** Restore counters saved by saveActivity(). */
void loadActivity(StateReader& r, ActivityRecord& a);

} // namespace tempest

#endif // TEMPEST_UARCH_ACTIVITY_HH
