/**
 * @file
 * The out-of-order core: a 6-wide superscalar backend with the
 * paper's Table 2 parameters, driven by a synthetic instruction
 * stream.
 *
 * Pipeline per tick: writeback -> compaction -> commit -> issue
 * (select) -> dispatch/rename -> fetch. tick() is the single-cycle
 * step; run(n) is the only multi-cycle loop, and it jumps over
 * provably idle cycles (quiescence skipping, DESIGN.md §18) with
 * results bit-identical to n calls of tick(). The core knows
 * nothing about temperature; the DTM layer steers it through the
 * exposed control surface (issue-queue mode toggling, FU turnoff
 * masks, register-file mapping, round-robin select, fetch
 * throttling, stall cycles).
 */

#ifndef TEMPEST_UARCH_CORE_HH
#define TEMPEST_UARCH_CORE_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"
#include "uarch/activity.hh"
#include "uarch/alu.hh"
#include "uarch/cache.hh"
#include "uarch/issue_queue.hh"
#include "uarch/pipeline_config.hh"
#include "uarch/regfile.hh"
#include "uarch/select.hh"
#include "workload/generator.hh"

namespace tempest
{

/** Cycle-level out-of-order core. */
class OooCore
{
  public:
    /**
     * @param config pipeline parameters (validated)
     * @param profile workload the core executes
     * @param run_seed experiment seed for the instruction stream
     * @param arena backing store for the hot-state arrays (ROB,
     *        completion wheel, done ring, fetch ring, and both
     *        issue queues); nullptr uses a core-private arena.
     *        The arena must outlive the core.
     */
    OooCore(const PipelineConfig& config,
            const BenchmarkProfile& profile,
            std::uint64_t run_seed = 0, Arena* arena = nullptr);

    OooCore(const OooCore&) = delete;
    OooCore& operator=(const OooCore&) = delete;

    /** Simulate one cycle, accumulating activity. */
    void tick(ActivityRecord& activity);

    /**
     * Simulate n cycles, accumulating activity; bit-identical to
     * n calls of tick(). A cycle in which no stage can change
     * state is not ticked: the core jumps to the next cycle that
     * can (a completion, a fetch wake-up, or the end of the n),
     * charging the skipped cycles' clock-gate and occupancy
     * activity in bulk and counting them in
     * ActivityRecord::skippedCycles. The skip is recomputed from
     * state every cycle, so it adds no checkpointed state.
     */
    void run(std::uint64_t n, ActivityRecord& activity);

    /**
     * Advance one thermally-stalled cycle: no fetch, issue or
     * commit; only cycle/stall accounting (clocks gated).
     */
    void stallCycle(ActivityRecord& activity);

    /** Advance n stalled cycles at once (stop-go cooling). */
    void stallCycles(std::uint64_t n, ActivityRecord& activity);

    Cycle cycle() const { return cycle_; }
    std::uint64_t committed() const { return committed_; }

    /** Committed instructions per cycle, stall cycles included. */
    double
    ipc() const
    {
        return cycle_ ? static_cast<double>(committed_) /
                            static_cast<double>(cycle_)
                      : 0.0;
    }

    // ---- DTM control surface ----
    IssueQueue& intQueue() { return intIq_; }
    IssueQueue& fpQueue() { return fpIq_; }
    const IssueQueue& intQueue() const { return intIq_; }
    const IssueQueue& fpQueue() const { return fpIq_; }
    AluPool& alus() { return alus_; }
    const AluPool& alus() const { return alus_; }
    RegisterFile& intRegfile() { return intRegfile_; }
    const RegisterFile& intRegfile() const { return intRegfile_; }
    DataHierarchy& caches() { return caches_; }
    const DataHierarchy& caches() const { return caches_; }
    InstructionStream& stream() { return stream_; }
    const InstructionStream& stream() const { return stream_; }

    /** Ideal round-robin select on both FU classes (§4.2). */
    void setRoundRobin(bool enabled);
    bool roundRobin() const { return intSelect_.roundRobin(); }

    /**
     * Fetch throttling (a fine-grain temporal technique in the
     * spirit of Skadron et al. [15]): fetch only one cycle in
     * `interval`. 1 = full speed.
     */
    void setFetchInterval(int interval);
    int fetchInterval() const { return fetchInterval_; }

    const PipelineConfig& config() const { return config_; }
    const BenchmarkProfile& profile() const
    {
        return stream_.profile();
    }

    /** Occupancy of the active list (for tests). */
    int robCount() const { return robCount_; }
    int lsqCount() const { return lsqCount_; }

    /**
     * Serialize the core-owned state: cycle/commit counters,
     * active list, completion wheel, done-bit ring, fetch ring,
     * and fetch-throttle controls. Sub-components (issue queues,
     * ALU pool, register file, caches, instruction stream) have
     * their own saveState and are checkpointed as separate chunks
     * by the Simulator.
     */
    void saveState(StateWriter& w) const;

    /** Restore state saved by saveState(); the pipeline geometry
     * must match the saved one. */
    void loadState(StateReader& r);

  private:
    friend struct CoreTestPeer; ///< white-box writeback tests

    /** Scheduled writeback event. */
    struct Completion
    {
        std::uint64_t seq;
        int robIdx;
        bool hasDest;
        bool fpDest;
        bool mispredictedBranch;
    };

    void doWriteback(ActivityRecord& activity);
    void doCommit(ActivityRecord& activity);
    void doIssue(ActivityRecord& activity);
    void doDispatch(ActivityRecord& activity);
    void doFetch(ActivityRecord& activity);

    /** Never: a wake-up that only a pipeline event can bring. */
    static constexpr Cycle kNever = ~Cycle{0};

    /**
     * First cycle at or after cycle_ in which fetch runs, if
     * nothing else changes: cycle_ when it runs now, a later cycle
     * when it waits only on time (redirect penalty, throttle
     * phase), kNever when it waits on an event (unresolved
     * mispredicted branch, full fetch buffer).
     */
    Cycle fetchReadyCycle() const;

    /** @return true if dispatch moves the fetch-buffer head this
     * cycle: an op is waiting and the active list, LSQ (for a
     * memory op) and its issue queue all have room. */
    bool dispatchReady() const;

    /**
     * The quiescence test run() makes before every cycle. Returns
     * cycle_ if tick() could change state this cycle. Otherwise
     * every cycle up to the returned one is idle: the earliest of
     * `end`, the next non-empty completion-wheel slot (scanned at
     * most one revolution ahead) and the fetch wake-up.
     */
    Cycle quiescentUntil(Cycle end) const;

    /** @return true if a producer seq is already complete. */
    bool producerReady(std::uint64_t producer_seq) const;

    /** Schedule a completion `latency` cycles from now. */
    void schedule(const Completion& completion, int latency);

    /** Oldest in-flight sequence number (nextSeq if ROB empty). */
    std::uint64_t robHeadSeq() const;

    // The core's saveState covers only the state it owns directly
    // (ROB, completion wheel, done-bit ring, fetch ring); the
    // components below are serialized after it, each by its own
    // saveState, by CmpSimulator::saveEngineContext.
    PipelineConfig config_;    // ckpt:skip(config, supplied by the restoring run)
    InstructionStream stream_; // ckpt:skip(saved by saveEngineContext)

    // ckpt:skip(allocator backing store, rebuilt by the constructor)
    Arena ownArena_; ///< used only when no external arena is given

    IssueQueue intIq_;         // ckpt:skip(saved by saveEngineContext)
    IssueQueue fpIq_;          // ckpt:skip(saved by saveEngineContext)
    SelectNetwork intSelect_;  // ckpt:skip(stateless select trees)
    // ckpt:skip(stateless select trees)
    SelectNetwork fpSelect_; ///< trees for FP adders + multiplier
    AluPool alus_;             // ckpt:skip(saved by saveEngineContext)
    RegisterFile intRegfile_;  // ckpt:skip(saved by saveEngineContext)
    DataHierarchy caches_;     // ckpt:skip(saved by saveEngineContext)

    // Reorder buffer (active list) as a ring, structure-of-arrays:
    // sequence numbers in one array, the per-entry booleans as
    // bitmaps (bit i = ring slot i). Commit tests one completed
    // bit; writeback sets one.
    std::uint64_t* robSeq_ = nullptr;       // ckpt:bulk(core-soa)
    std::uint64_t* robCompleted_ = nullptr; // ckpt:bulk(core-soa)
    std::uint64_t* robIsMem_ = nullptr;     // ckpt:bulk(core-soa)
    int robWords_ = 0; // ckpt:skip(geometry, derived from config)
    int robHead_ = 0;
    int robCount_ = 0;
    int lsqCount_ = 0;

    // Completion wheel, flattened SoA: a power-of-two number of
    // slots (indexed by cycle & wheelMask_) times a fixed per-slot
    // capacity, with a count per slot. The capacity is the static
    // bound on same-cycle completions: at most issueWidth ops issue
    // per cycle, and a slot only collects from one issue cycle per
    // distinct operation latency (see the constructor). Event
    // fields live in parallel arrays (slot * cap + i); the three
    // booleans pack into one flags byte.
    std::uint64_t* wheelSeq_ = nullptr;    // ckpt:bulk(core-soa)
    std::int32_t* wheelRobIdx_ = nullptr;  // ckpt:bulk(core-soa)
    std::uint8_t* wheelFlags_ = nullptr;   // ckpt:bulk(core-soa)
    std::int32_t* wheelCount_ = nullptr;   // ckpt:bulk(core-soa)
    std::uint64_t wheelMask_ = 0;
    int wheelSlotCap_ = 0;

    static constexpr std::uint8_t kWheelHasDest = 1;
    static constexpr std::uint8_t kWheelFpDest = 2;
    static constexpr std::uint8_t kWheelMispredict = 4;

    // Completed-producer ring (sized beyond any in-flight window),
    // one bit per sequence number: word (seq & mask) / 64, bit
    // (seq & mask) % 64. The wakeup scoreboard tests these bits
    // directly.
    std::uint64_t* done_ = nullptr; // ckpt:bulk(core-soa)
    static constexpr std::uint64_t doneMask_ = 4095;

    /** Set the completed bit for a sequence number. */
    void
    markDone(std::uint64_t seq)
    {
        const std::uint64_t idx = seq & doneMask_;
        done_[idx >> 6] |= 1ULL << (idx & 63);
    }

    /** Clear the completed bit (op is dispatched, in flight). */
    void
    markInFlight(std::uint64_t seq)
    {
        const std::uint64_t idx = seq & doneMask_;
        done_[idx >> 6] &= ~(1ULL << (idx & 63));
    }

    // Fetch buffer as a fixed ring (capacity 4 * fetchWidth covers
    // the high-water mark: the 3 * fetchWidth full check plus one
    // more fetch group), structure-of-arrays: one array per MicroOp
    // field, the two booleans packed into a flags byte. Fetch
    // scatters the generated op; dispatch gathers only the fields
    // it needs.
    std::uint64_t* fetchSeq_ = nullptr;     // ckpt:bulk(core-soa)
    std::uint64_t* fetchSrc0_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint64_t* fetchSrc1_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint64_t* fetchLine_ = nullptr;    // ckpt:bulk(core-soa)
    std::uint8_t* fetchCls_ = nullptr;      // ckpt:bulk(core-soa)
    std::uint8_t* fetchNumSrcs_ = nullptr;  // ckpt:bulk(core-soa)
    std::uint8_t* fetchFlags_ = nullptr;    // ckpt:bulk(core-soa)

    static constexpr std::uint8_t kFetchHasDest = 1;
    static constexpr std::uint8_t kFetchMispredict = 2;

    int fetchHead_ = 0;
    int fetchCount_ = 0;
    int fetchCap_ = 0;
    int fetchInterval_ = 1;
    bool fetchBlocked_ = false;
    std::uint64_t blockingBranchSeq_ = 0;
    Cycle fetchResumeCycle_ = 0;

    Cycle cycle_ = 0;
    std::uint64_t committed_ = 0;

    // ckpt:skip(per-cycle scratch, fully overwritten before use)
    std::vector<Grant> grantScratch_;
};

} // namespace tempest

#endif // TEMPEST_UARCH_CORE_HH
