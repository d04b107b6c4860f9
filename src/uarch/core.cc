#include "uarch/core.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "common/profiler.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

OooCore::OooCore(const PipelineConfig& config,
                 const BenchmarkProfile& profile,
                 std::uint64_t run_seed, Arena* arena)
    : config_(config),
      stream_(profile, run_seed),
      intIq_(config.intIqEntries, config.issueWidth, QueueKind::Int,
             arena != nullptr ? arena : &ownArena_),
      fpIq_(config.fpIqEntries, config.issueWidth, QueueKind::Fp,
            arena != nullptr ? arena : &ownArena_),
      intSelect_(config.numIntAlus),
      fpSelect_(config.numFpAdders + 1), // last tree = FP multiplier
      alus_(config),
      intRegfile_(config.numIntRegfileCopies, config.numIntAlus,
                  PortMapping::Priority),
      caches_(config)
{
    config_.validate();
    if (config.activeListEntries >
        static_cast<int>(doneMask_ + 1)) {
        fatal("active list (", config.activeListEntries,
              ") exceeds the completed-producer ring (",
              doneMask_ + 1,
              "); in-flight sequence numbers would alias");
    }
    Arena& a = arena != nullptr ? *arena : ownArena_;
    const auto rob_n =
        static_cast<std::size_t>(config.activeListEntries);
    robWords_ = (config.activeListEntries + 63) / 64;
    robSeq_ = a.alloc<std::uint64_t>(rob_n);
    robCompleted_ =
        a.alloc<std::uint64_t>(static_cast<std::size_t>(robWords_));
    robIsMem_ =
        a.alloc<std::uint64_t>(static_cast<std::size_t>(robWords_));

    // Completion wheel: power-of-two slot count so the cycle index
    // reduces with a mask, deep enough for the longest latency.
    const int min_slots =
        std::max(512, 2 * (config.memCycles + config.l2HitCycles));
    std::size_t slots = 1;
    while (slots < static_cast<std::size_t>(min_slots))
        slots <<= 1;
    wheelMask_ = slots - 1;

    // Per-slot capacity: each distinct operation latency maps a
    // slot back to one issue cycle, and an issue cycle contributes
    // at most issueWidth completions. The active list bounds total
    // in-flight ops regardless.
    const int latencies[] = {
        std::max(1, config.intAluLatency),
        std::max(1, config.intMulLatency),
        std::max(1, config.fpAddLatency),
        std::max(1, config.fpMulLatency),
        std::max(1, config.l1HitCycles),
        std::max(1, config.l2HitCycles),
        std::max(1, config.memCycles),
    };
    constexpr int num_latencies =
        static_cast<int>(sizeof(latencies) / sizeof(latencies[0]));
    int distinct = 0;
    for (int i = 0; i < num_latencies; ++i) {
        bool seen = false;
        for (int j = 0; j < i; ++j)
            seen = seen || latencies[j] == latencies[i];
        if (!seen)
            ++distinct;
    }
    wheelSlotCap_ = std::min(config.activeListEntries,
                             config.issueWidth * distinct);
    const std::size_t wheel_n =
        slots * static_cast<std::size_t>(wheelSlotCap_);
    wheelSeq_ = a.alloc<std::uint64_t>(wheel_n);
    wheelRobIdx_ = a.alloc<std::int32_t>(wheel_n);
    wheelFlags_ = a.alloc<std::uint8_t>(wheel_n);
    wheelCount_ = a.alloc<std::int32_t>(slots);

    // All-ones: every not-yet-dispatched sequence number reads as
    // complete until dispatch clears its bit.
    done_ = a.alloc<std::uint64_t>((doneMask_ + 1) / 64);
    std::memset(done_, 0xff, (doneMask_ + 1) / 8);

    fetchCap_ = 4 * config.fetchWidth;
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);
    fetchSeq_ = a.alloc<std::uint64_t>(fetch_n);
    fetchSrc0_ = a.alloc<std::uint64_t>(fetch_n);
    fetchSrc1_ = a.alloc<std::uint64_t>(fetch_n);
    fetchLine_ = a.alloc<std::uint64_t>(fetch_n);
    fetchCls_ = a.alloc<std::uint8_t>(fetch_n);
    fetchNumSrcs_ = a.alloc<std::uint8_t>(fetch_n);
    fetchFlags_ = a.alloc<std::uint8_t>(fetch_n);
}

void
OooCore::setRoundRobin(bool enabled)
{
    intSelect_.setRoundRobin(enabled);
    fpSelect_.setRoundRobin(enabled);
}

std::uint64_t
OooCore::robHeadSeq() const
{
    if (robCount_ == 0)
        return stream_.generated() + 1;
    return robSeq_[static_cast<std::size_t>(robHead_)];
}

bool
OooCore::producerReady(std::uint64_t producer_seq) const
{
    if (producer_seq == 0 || producer_seq < robHeadSeq())
        return true; // committed (or no producer)
    const std::uint64_t idx = producer_seq & doneMask_;
    return ((done_[idx >> 6] >> (idx & 63)) & 1) != 0;
}

void
OooCore::schedule(const Completion& completion, int latency)
{
    if (latency < 1)
        latency = 1;
    const std::size_t slot = static_cast<std::size_t>(
        (cycle_ + static_cast<Cycle>(latency)) & wheelMask_);
    std::int32_t& n = wheelCount_[slot];
    if (n >= wheelSlotCap_)
        panic("completion wheel slot overflow (cap ",
              wheelSlotCap_, "); per-cycle completion bound broken");
    const std::size_t at =
        slot * static_cast<std::size_t>(wheelSlotCap_) +
        static_cast<std::size_t>(n);
    wheelSeq_[at] = completion.seq;
    wheelRobIdx_[at] = completion.robIdx;
    wheelFlags_[at] = static_cast<std::uint8_t>(
        (completion.hasDest ? kWheelHasDest : 0) |
        (completion.fpDest ? kWheelFpDest : 0) |
        (completion.mispredictedBranch ? kWheelMispredict : 0));
    ++n;
}

void
OooCore::doWriteback(ActivityRecord& activity)
{
    const std::size_t slot =
        static_cast<std::size_t>(cycle_ & wheelMask_);
    const int num_events = wheelCount_[slot];
    if (num_events == 0)
        return;
    const std::size_t base =
        slot * static_cast<std::size_t>(wheelSlotCap_);
    // Count the result tags completing this cycle; dependents wake
    // through the per-producer watch index as each completion
    // drains, so the same-cycle completion count is unbounded (the
    // old fixed tag list silently dropped wakeups past its cap,
    // deadlocking the queues).
    int num_tags = 0;
    for (int i = 0; i < num_events; ++i) {
        const std::size_t at = base + static_cast<std::size_t>(i);
        const int rob_idx = wheelRobIdx_[at];
        robCompleted_[rob_idx >> 6] |=
            1ULL << (rob_idx & 63);
        markDone(wheelSeq_[at]);
        intIq_.wakeMatching(wheelSeq_[at]);
        fpIq_.wakeMatching(wheelSeq_[at]);
        const std::uint8_t flags = wheelFlags_[at];
        if (flags & kWheelHasDest) {
            ++num_tags;
            // Result write: all integer copies, or the FP file.
            if (flags & kWheelFpDest)
                ++activity.fpRegWrites;
            else
                intRegfile_.chargeWrite(activity);
        }
        if (flags & kWheelMispredict) {
            // Redirect: frontend refills after the penalty.
            fetchBlocked_ = false;
            blockingBranchSeq_ = 0;
            fetchResumeCycle_ =
                cycle_ +
                static_cast<Cycle>(config_.branchRedirectPenalty);
        }
    }
    wheelCount_[slot] = 0;
    // Clock-gated empty queues skip the broadcast charge entirely.
    intIq_.chargeWakeup(num_tags, activity);
    fpIq_.chargeWakeup(num_tags, activity);
}

void
OooCore::doCommit(ActivityRecord& activity)
{
    // Retire the contiguous completed run at the head a word at a
    // time: countr_one on the shifted completed word gives the run
    // length, a popcount over the matching robIsMem_ bits releases
    // the LSQ slots. The loop re-enters only at word or active-list
    // wrap boundaries.
    int n = 0;
    while (n < config_.commitWidth && robCount_ > 0) {
        const int head = robHead_;
        const int word = head >> 6;
        const int bit = head & 63;
        int run = std::countr_one(robCompleted_[word] >> bit);
        run = std::min({run, config_.commitWidth - n, robCount_,
                        config_.activeListEntries - head, 64 - bit});
        if (run == 0)
            break;
        const std::uint64_t mem_bits =
            (robIsMem_[word] >> bit) &
            (run >= 64 ? ~0ULL : (1ULL << run) - 1);
        lsqCount_ -= std::popcount(mem_bits);
        robHead_ = head + run;
        if (robHead_ == config_.activeListEntries)
            robHead_ = 0;
        robCount_ -= run;
        committed_ += static_cast<std::uint64_t>(run);
        activity.commits += static_cast<std::uint64_t>(run);
        activity.instructions += static_cast<std::uint64_t>(run);
        n += run;
    }
}

void
OooCore::doIssue(ActivityRecord& activity)
{
    int budget = config_.issueWidth;
    int mem_ports_left = config_.l1dPorts;

    // The active list does not move during select, so the head
    // position/sequence used for ROB indexing can be read once.
    const std::uint64_t head_seq = robHeadSeq();
    const int head_idx = robHead_;
    const int rob_entries = config_.activeListEntries;
    auto rob_index_of = [head_seq, head_idx,
                         rob_entries](std::uint64_t seq) {
        int idx = head_idx + static_cast<int>(seq - head_seq);
        if (idx >= rob_entries)
            idx -= rob_entries;
        return idx;
    };

    // Alternate which queue selects first so FP workloads are not
    // starved by the integer queue's address traffic.
    const bool int_first = (cycle_ % 2) == 0;

    auto select_int = [&]() {
        if (budget <= 0 || intIq_.count() == 0)
            return;
        grantScratch_.clear();
        intSelect_.select(
            intIq_, cycle_, budget,
            [this](int fu) { return alus_.intAluAvailable(fu); },
            [&mem_ports_left](int, OpClass cls) {
                if (!AluPool::intAluExecutes(cls))
                    return false;
                if (isMemClass(cls)) {
                    if (mem_ports_left <= 0)
                        return false;
                    // A true return is always granted, so the
                    // port is consumed here.
                    --mem_ports_left;
                }
                return true;
            },
            grantScratch_);
        for (const Grant& g : grantScratch_) {
            // Field reads straight out of the queue's SoA arrays;
            // markIssued only flips a pending bit, so the reads
            // can follow it.
            const int p = g.physIdx;
            const OpClass cls = intIq_.opClassAt(p);
            const std::uint64_t seq = intIq_.seqAt(p);
            intIq_.markIssued(p, activity);
            --budget;
            ++activity.intAluOps[g.fu];
            intRegfile_.chargeReads(g.fu, intIq_.numSrcsAt(p),
                                    activity);

            int latency = 0;
            if (cls == OpClass::Load) {
                const MemLevel level =
                    caches_.access(intIq_.lineAddrAt(p), activity);
                latency = caches_.latency(level);
                ++activity.lsqOps;
            } else if (cls == OpClass::Store) {
                caches_.access(intIq_.lineAddrAt(p), activity);
                latency = config_.intAluLatency;
                ++activity.lsqOps;
            } else {
                latency = alus_.latencyOf(cls);
            }

            schedule({seq, rob_index_of(seq),
                      intIq_.hasDestAt(p),
                      /*fpDest=*/false,
                      cls == OpClass::Branch &&
                          intIq_.mispredictedAt(p)},
                     latency);
        }
    };

    auto select_fp = [&]() {
        if (budget <= 0 || fpIq_.count() == 0)
            return;
        const int mul_fu = config_.numFpAdders;
        grantScratch_.clear();
        fpSelect_.select(
            fpIq_, cycle_, budget,
            [this, mul_fu](int fu) {
                if (fu == mul_fu)
                    return true; // multiplier is never turned off
                return alus_.fpAdderAvailable(fu);
            },
            [mul_fu](int fu, OpClass cls) {
                return fu == mul_fu ? cls == OpClass::FpMul
                                    : cls == OpClass::FpAdd;
            },
            grantScratch_);
        for (const Grant& g : grantScratch_) {
            const int p = g.physIdx;
            const OpClass cls = fpIq_.opClassAt(p);
            const std::uint64_t seq = fpIq_.seqAt(p);
            fpIq_.markIssued(p, activity);
            --budget;
            if (g.fu == mul_fu)
                ++activity.fpMulOps;
            else
                ++activity.fpAddOps[g.fu];
            activity.fpRegReads +=
                static_cast<std::uint64_t>(fpIq_.numSrcsAt(p));

            const int latency = alus_.latencyOf(cls);
            schedule({seq, rob_index_of(seq),
                      fpIq_.hasDestAt(p),
                      /*fpDest=*/true, false},
                     latency);
        }
    };

    if (int_first) {
        select_int();
        select_fp();
    } else {
        select_fp();
        select_int();
    }
}

bool
OooCore::dispatchReady() const
{
    if (fetchCount_ == 0 || robCount_ >= config_.activeListEntries)
        return false;
    const auto cls = static_cast<OpClass>(
        fetchCls_[static_cast<std::size_t>(fetchHead_)]);
    if (isMemClass(cls) && lsqCount_ >= config_.lsqEntries)
        return false;
    return (isFpClass(cls) ? fpIq_ : intIq_).canDispatch();
}

void
OooCore::doDispatch(ActivityRecord& activity)
{
    for (int n = 0; n < config_.issueWidth; ++n) {
        if (!dispatchReady())
            return;
        const auto at = static_cast<std::size_t>(fetchHead_);
        const auto cls = static_cast<OpClass>(fetchCls_[at]);
        const bool is_mem = isMemClass(cls);
        IssueQueue& iq = isFpClass(cls) ? fpIq_ : intIq_;

        const std::uint64_t seq = fetchSeq_[at];
        const std::uint8_t flags = fetchFlags_[at];
        IqEntry entry;
        entry.seq = seq;
        entry.cls = cls;
        entry.numSrcs = fetchNumSrcs_[at];
        entry.hasDest = (flags & kFetchHasDest) != 0;
        entry.lineAddr = fetchLine_[at];
        entry.mispredicted = (flags & kFetchMispredict) != 0;
        if (entry.numSrcs > 0) {
            entry.src[0] = fetchSrc0_[at];
            entry.srcReady[0] = producerReady(entry.src[0]);
        }
        if (entry.numSrcs > 1) {
            entry.src[1] = fetchSrc1_[at];
            entry.srcReady[1] = producerReady(entry.src[1]);
        }

        // Allocate the active-list slot before inserting so the
        // in-flight window check in producerReady stays correct.
        int rob_idx = robHead_ + robCount_;
        if (rob_idx >= config_.activeListEntries)
            rob_idx -= config_.activeListEntries;
        robSeq_[static_cast<std::size_t>(rob_idx)] = seq;
        const std::uint64_t rob_bit = 1ULL << (rob_idx & 63);
        robCompleted_[rob_idx >> 6] &= ~rob_bit;
        if (is_mem)
            robIsMem_[rob_idx >> 6] |= rob_bit;
        else
            robIsMem_[rob_idx >> 6] &= ~rob_bit;
        ++robCount_;
        markInFlight(seq);
        if (is_mem) {
            ++lsqCount_;
            ++activity.lsqOps;
        }
        if (cls == OpClass::Branch)
            ++activity.bpredAccesses;
        ++activity.renameOps;

        iq.dispatch(entry, activity);
        if (++fetchHead_ == fetchCap_)
            fetchHead_ = 0;
        --fetchCount_;
    }
}

void
OooCore::setFetchInterval(int interval)
{
    if (interval < 1)
        fatal("fetch interval must be >= 1");
    fetchInterval_ = interval;
}

Cycle
OooCore::fetchReadyCycle() const
{
    // Waiting on an event: the mispredicted branch resolving, or
    // dispatch draining the buffer below 3 groups.
    if (fetchBlocked_ || fetchCount_ >= 3 * config_.fetchWidth)
        return kNever;
    // Waiting on time: the redirect penalty, then the throttle
    // phase (fetch only on multiples of the interval).
    Cycle c = std::max(cycle_, fetchResumeCycle_);
    if (fetchInterval_ > 1) {
        const auto interval = static_cast<Cycle>(fetchInterval_);
        const Cycle phase = c % interval;
        if (phase != 0)
            c += interval - phase;
    }
    return c;
}

void
OooCore::doFetch(ActivityRecord& activity)
{
    if (fetchReadyCycle() != cycle_)
        return; // blocked, redirecting, throttled, or buffer full
    ++activity.l1iAccesses;
    // Bulk-copy the fetch group straight from the generator's batch
    // ring (span memcpy per field array) instead of gathering and
    // re-scattering one MicroOp at a time. A group stops early at a
    // mispredicted branch (always a Branch-class slot: the generator
    // sets the mispred bit only for branches) or at a batch-ring
    // refill boundary; the loop re-enters after either.
    int want = config_.fetchWidth;
    while (want > 0) {
        const InstructionStream::BatchView v = stream_.view();
        int k = std::min(want, v.count - v.next);
        const std::uint64_t span_mask =
            k >= 64 ? ~0ULL : (1ULL << k) - 1;
        const std::uint64_t blockers =
            (v.mispred >> v.next) & span_mask;
        const bool blocks = blockers != 0;
        if (blocks)
            k = std::countr_zero(blockers) + 1;
        int copied = 0;
        while (copied < k) {
            int tail = fetchHead_ + fetchCount_;
            if (tail >= fetchCap_)
                tail -= fetchCap_;
            // Contiguous in both rings: stop at either wrap.
            const int seg = std::min(k - copied, fetchCap_ - tail);
            const int src = v.next + copied;
            const auto at = static_cast<std::size_t>(tail);
            const auto cnt = static_cast<std::size_t>(seg);
            std::memcpy(fetchSeq_ + at, v.seq + src, cnt * 8);
            std::memcpy(fetchSrc0_ + at, v.src0 + src, cnt * 8);
            std::memcpy(fetchSrc1_ + at, v.src1 + src, cnt * 8);
            std::memcpy(fetchLine_ + at, v.line + src, cnt * 8);
            std::memcpy(fetchCls_ + at, v.cls + src, cnt);
            std::memcpy(fetchNumSrcs_ + at, v.numSrcs + src, cnt);
            for (int i = 0; i < seg; ++i) {
                const int slot = src + i;
                fetchFlags_[at + static_cast<std::size_t>(i)] =
                    static_cast<std::uint8_t>(
                        (((v.hasDest >> slot) & 1) != 0
                             ? kFetchHasDest
                             : 0) |
                        (((v.mispred >> slot) & 1) != 0
                             ? kFetchMispredict
                             : 0));
            }
            fetchCount_ += seg;
            copied += seg;
        }
        stream_.advance(k);
        want -= k;
        if (blocks) {
            // Fetch goes down the wrong path; stop supplying
            // correct-path work until the branch resolves.
            fetchBlocked_ = true;
            blockingBranchSeq_ = v.seq[v.next + k - 1];
            return;
        }
    }
}

void
OooCore::tick(ActivityRecord& activity)
{
    {
        TEMPEST_PROF_SCOPE(ProfStage::Writeback);
        doWriteback(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Compact);
        intIq_.compactStep(activity);
        fpIq_.compactStep(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Commit);
        doCommit(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Issue);
        doIssue(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Dispatch);
        doDispatch(activity);
    }
    {
        TEMPEST_PROF_SCOPE(ProfStage::Fetch);
        doFetch(activity);
    }
    ++cycle_;
    ++activity.cycles;
}

Cycle
OooCore::quiescentUntil(Cycle end) const
{
    // Cheapest, most often failing tests first: a completion this
    // cycle (writeback), compaction or select work, a completed
    // active-list head (commit), then dispatch and fetch.
    if (wheelCount_[cycle_ & wheelMask_] != 0)
        return cycle_;
    if (!intIq_.quiescent() || !fpIq_.quiescent())
        return cycle_;
    if (robCount_ > 0 &&
        ((robCompleted_[robHead_ >> 6] >> (robHead_ & 63)) & 1) != 0)
        return cycle_;
    if (dispatchReady())
        return cycle_;
    const Cycle fetch_at = fetchReadyCycle();
    if (fetch_at == cycle_)
        return cycle_;

    // Idle. Nothing but the clock moves until a completion lands
    // or fetch wakes on time, so the next state change is the
    // first of those (or the end of the run). Every scheduled
    // completion is less than one wheel revolution away, so the
    // scan stops there.
    const Cycle horizon =
        std::min({end, fetch_at, cycle_ + wheelMask_ + 1});
    for (Cycle c = cycle_ + 1; c < horizon; ++c) {
        if (wheelCount_[c & wheelMask_] != 0)
            return c;
    }
    return horizon;
}

void
OooCore::run(std::uint64_t n, ActivityRecord& activity)
{
    const Cycle end = cycle_ + n;
    while (cycle_ < end) {
        const Cycle wake = quiescentUntil(end);
        if (wake == cycle_) {
            tick(activity);
            continue;
        }
        // k idle cycles: each would only have run both queues'
        // compactStep early-out (clock gate + occupancy charge)
        // and advanced the clock.
        const std::uint64_t k = wake - cycle_;
        intIq_.chargeCycles(k, activity);
        fpIq_.chargeCycles(k, activity);
        cycle_ = wake;
        activity.cycles += k;
        activity.skippedCycles += k;
    }
}

void
OooCore::stallCycle(ActivityRecord& activity)
{
    stallCycles(1, activity);
}

void
OooCore::stallCycles(std::uint64_t n, ActivityRecord& activity)
{
    cycle_ += n;
    activity.cycles += n;
    activity.stallCycles += n;
}

void
OooCore::saveState(StateWriter& w) const
{
    const auto rob_n =
        static_cast<std::size_t>(config_.activeListEntries);
    const auto rob_wb = static_cast<std::size_t>(robWords_) * 8;
    const std::size_t num_slots =
        static_cast<std::size_t>(wheelMask_) + 1;
    const std::size_t wheel_n =
        num_slots * static_cast<std::size_t>(wheelSlotCap_);
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);

    w.u64(cycle_);
    w.u64(committed_);

    w.u32(static_cast<std::uint32_t>(rob_n));
    w.i32(robHead_);
    w.i32(robCount_);
    w.i32(lsqCount_);
    w.blob(robSeq_, rob_n * 8);
    w.blob(robCompleted_, rob_wb);
    w.blob(robIsMem_, rob_wb);

    w.u64(wheelMask_);
    w.i32(wheelSlotCap_);
    w.blob(wheelCount_, num_slots * 4);
    w.blob(wheelSeq_, wheel_n * 8);
    w.blob(wheelRobIdx_, wheel_n * 4);
    w.blob(wheelFlags_, wheel_n);

    w.blob(done_, (doneMask_ + 1) / 8);

    w.i32(fetchCap_);
    w.i32(fetchHead_);
    w.i32(fetchCount_);
    w.blob(fetchSeq_, fetch_n * 8);
    w.blob(fetchSrc0_, fetch_n * 8);
    w.blob(fetchSrc1_, fetch_n * 8);
    w.blob(fetchLine_, fetch_n * 8);
    w.blob(fetchCls_, fetch_n);
    w.blob(fetchNumSrcs_, fetch_n);
    w.blob(fetchFlags_, fetch_n);
    w.i32(fetchInterval_);
    w.boolean(fetchBlocked_);
    w.u64(blockingBranchSeq_);
    w.u64(fetchResumeCycle_);
}

void
OooCore::loadState(StateReader& r)
{
    const auto rob_n =
        static_cast<std::size_t>(config_.activeListEntries);
    const auto rob_wb = static_cast<std::size_t>(robWords_) * 8;
    const std::size_t num_slots =
        static_cast<std::size_t>(wheelMask_) + 1;
    const std::size_t wheel_n =
        num_slots * static_cast<std::size_t>(wheelSlotCap_);
    const auto fetch_n = static_cast<std::size_t>(fetchCap_);

    cycle_ = r.u64();
    committed_ = r.u64();

    const auto rob_size = r.u32();
    if (rob_size != rob_n) {
        fatal("checkpoint core mismatch: saved active list has ",
              rob_size, " entries, this core has ", rob_n);
    }
    robHead_ = r.i32();
    robCount_ = r.i32();
    lsqCount_ = r.i32();
    r.blob(robSeq_, rob_n * 8);
    r.blob(robCompleted_, rob_wb);
    r.blob(robIsMem_, rob_wb);

    const auto wheel_mask = r.u64();
    const int slot_cap = r.i32();
    if (wheel_mask != wheelMask_ || slot_cap != wheelSlotCap_) {
        fatal("checkpoint core mismatch: completion wheel "
              "geometry differs (saved mask ", wheel_mask,
              " cap ", slot_cap, ", this core mask ", wheelMask_,
              " cap ", wheelSlotCap_, ")");
    }
    r.blob(wheelCount_, num_slots * 4);
    r.blob(wheelSeq_, wheel_n * 8);
    r.blob(wheelRobIdx_, wheel_n * 4);
    r.blob(wheelFlags_, wheel_n);
    for (std::size_t s = 0; s < num_slots; ++s) {
        if (wheelCount_[s] < 0 || wheelCount_[s] > wheelSlotCap_)
            fatal("checkpoint core: wheel slot count ",
                  wheelCount_[s], " out of range");
    }

    r.blob(done_, (doneMask_ + 1) / 8);

    const int fetch_cap = r.i32();
    if (fetch_cap != fetchCap_) {
        fatal("checkpoint core mismatch: fetch ring capacity ",
              fetch_cap, " differs from ", fetchCap_);
    }
    fetchHead_ = r.i32();
    fetchCount_ = r.i32();
    r.blob(fetchSeq_, fetch_n * 8);
    r.blob(fetchSrc0_, fetch_n * 8);
    r.blob(fetchSrc1_, fetch_n * 8);
    r.blob(fetchLine_, fetch_n * 8);
    r.blob(fetchCls_, fetch_n);
    r.blob(fetchNumSrcs_, fetch_n);
    r.blob(fetchFlags_, fetch_n);
    fetchInterval_ = r.i32();
    fetchBlocked_ = r.boolean();
    blockingBranchSeq_ = r.u64();
    fetchResumeCycle_ = r.u64();
}

} // namespace tempest
