#include "uarch/issue_queue.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"
#include "sim/checkpoint/stateio.hh"

namespace tempest
{

IssueQueue::IssueQueue(int num_entries, int issue_width,
                       QueueKind kind, Arena* arena)
    : size_(num_entries), half_(num_entries / 2),
      words_((num_entries + 63) / 64), issueWidth_(issue_width),
      kind_(kind), ownArena_(4096)
{
    if (num_entries < 2 || num_entries % 2 != 0)
        fatal("issue queue size must be even and >= 2");
    if (num_entries > kWatchSlots)
        fatal("issue queue size exceeds the watch-index capacity");
    if (issue_width < 1)
        fatal("issue width must be >= 1");
    Arena& a = arena != nullptr ? *arena : ownArena_;
    const auto n = static_cast<std::size_t>(size_);
    const auto w = static_cast<std::size_t>(words_);
    seq_ = a.alloc<std::uint64_t>(n);
    src0_ = a.alloc<std::uint64_t>(n);
    src1_ = a.alloc<std::uint64_t>(n);
    lineAddr_ = a.alloc<std::uint64_t>(n);
    cls_ = a.alloc<std::uint8_t>(n);
    numSrcs_ = a.alloc<std::uint8_t>(n);
    validBits_ = a.alloc<std::uint64_t>(w);
    pendingBits_ = a.alloc<std::uint64_t>(w);
    hasDestBits_ = a.alloc<std::uint64_t>(w);
    mispredBits_ = a.alloc<std::uint64_t>(w);
    needsBits_[0] = a.alloc<std::uint64_t>(w);
    needsBits_[1] = a.alloc<std::uint64_t>(w);
    ready_ = a.alloc<std::uint64_t>(w);
    watchHead_ = a.alloc<std::int16_t>(
        static_cast<std::size_t>(kWatchSlots));
    nodeNext_ = a.alloc<std::int16_t>(2 * n);
    watchSeq_ = a.alloc<std::uint64_t>(2 * n);
    watchK_ = a.alloc<std::uint8_t>(2 * n);
    rebuildWatch();
}

IqEntry
IssueQueue::materialize(int phys) const
{
    IqEntry e;
    e.valid = testBit(validBits_, phys);
    e.pendingInvalid = testBit(pendingBits_, phys);
    e.seq = seq_[phys];
    e.cls = static_cast<OpClass>(cls_[phys]);
    e.numSrcs = numSrcs_[phys];
    e.src[0] = src0_[phys];
    e.src[1] = src1_[phys];
    e.srcReady[0] = !testBit(needsBits_[0], phys);
    e.srcReady[1] = !testBit(needsBits_[1], phys);
    e.hasDest = testBit(hasDestBits_, phys);
    e.lineAddr = lineAddr_[phys];
    e.mispredicted = testBit(mispredBits_, phys);
    return e;
}

IqEntry
IssueQueue::entryAtPhys(int phys) const
{
    if (phys < 0 || phys >= size_)
        panic("issue-queue physical index out of range");
    return materialize(phys);
}

int
IssueQueue::occupancyOfHalf(int half) const
{
    if (half != 0 && half != 1)
        panic("issue-queue half must be 0 or 1");
    return halfCount_[half];
}

void
IssueQueue::recomputeTail()
{
    tailLogical_ = 0;
    for (int l = size_ - 1; l >= 0; --l) {
        if (testBit(validBits_, physOfLogical(l))) {
            tailLogical_ = l + 1;
            break;
        }
    }
}

void
IssueQueue::rebuildReadyBits()
{
    std::memset(ready_, 0,
                static_cast<std::size_t>(words_) * 8);
    for (int p = 0; p < size_; ++p) {
        if (slotReady(p))
            setReadyBit(logicalOfPhys(p));
    }
}

bool
IssueQueue::canDispatch() const
{
    // The tail is one past the highest occupied logical slot;
    // dispatch drives instructions only to the tail end, so holes
    // awaiting compaction can block dispatch even when count() is
    // below capacity.
    return tailLogical_ < size_;
}

void
IssueQueue::dispatch(const IqEntry& entry, ActivityRecord& activity)
{
    if (tailLogical_ >= size_)
        fatal("dispatch into a queue with no tail slot; check "
              "canDispatch() first");
    const int phys = physOfLogical(tailLogical_);
    seq_[phys] = entry.seq;
    cls_[phys] = static_cast<std::uint8_t>(entry.cls);
    numSrcs_[phys] = static_cast<std::uint8_t>(entry.numSrcs);
    src0_[phys] = entry.src[0];
    src1_[phys] = entry.src[1];
    lineAddr_[phys] = entry.lineAddr;
    setBit(validBits_, phys);
    clearBit(pendingBits_, phys);
    if (entry.hasDest)
        setBit(hasDestBits_, phys);
    else
        clearBit(hasDestBits_, phys);
    if (entry.mispredicted)
        setBit(mispredBits_, phys);
    else
        clearBit(mispredBits_, phys);
    const bool waits0 = entry.numSrcs > 0 && !entry.srcReady[0];
    const bool waits1 = entry.numSrcs > 1 && !entry.srcReady[1];
    if (waits0) {
        setBit(needsBits_[0], phys);
        watchAdd(entry.seq, 0, entry.src[0]);
    } else {
        clearBit(needsBits_[0], phys);
    }
    if (waits1) {
        setBit(needsBits_[1], phys);
        watchAdd(entry.seq, 1, entry.src[1]);
    } else {
        clearBit(needsBits_[1], phys);
    }
    if (!waits0 && !waits1)
        setReadyBit(tailLogical_);
    ++tailLogical_;
    ++count_;
    ++halfCount_[halfOfPhys(phys)];
    // Payload RAM write plus the entry write itself, charged to
    // the physical half that receives the dispatch.
    ++activity.iqPayloadAccesses[queueIndex()];
    ++activity.iqDispatchWrites[queueIndex()][halfOfPhys(phys)];
}

void
IssueQueue::broadcast(std::uint64_t producer_seq,
                      ActivityRecord& activity)
{
    broadcastMany(&producer_seq, 1, activity);
}

void
IssueQueue::broadcastMany(const std::uint64_t* producer_seqs, int n,
                          ActivityRecord& activity)
{
    if (n <= 0)
        return;
    activity.iqTagBroadcasts[queueIndex()] +=
        static_cast<std::uint64_t>(n);
    for (int t = 0; t < n; ++t)
        wakeMatching(producer_seqs[t]);
}

int
IssueQueue::physBySeq(std::uint64_t seq, int k) const
{
    // A waiting entry is a set bit in needsBits_[k]; match on seq.
    // No position-derived shortcut is safe here: a mode toggle
    // rotates logical order without moving entries, so seq_ is not
    // sorted along logical positions after one.
    for (int w = 0; w < words_; ++w) {
        std::uint64_t bits = needsBits_[k][w];
        while (bits != 0) {
            const int phys =
                w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            if (seq_[phys] == seq)
                return phys;
        }
    }
    return -1;
}

void
IssueQueue::wakeMatching(std::uint64_t producer_seq)
{
    const auto pslot =
        static_cast<std::size_t>(producer_seq) & (kWatchSlots - 1);
    std::int16_t node = watchHead_[pslot];
    if (node < 0)
        return;
    // Pop every node on this producer slot's chain; nodes whose
    // full tag does not match (slot collision between distinct
    // seqs) are re-linked onto the rebuilt chain. Chain order is
    // irrelevant — the ready/waiting maps are sets.
    std::int16_t keep = -1;
    while (node >= 0) {
        const std::int16_t nxt = nodeNext_[node];
        const int k = watchK_[node];
        const int phys = physBySeq(watchSeq_[node], k);
        const bool waiting = phys >= 0;
        if (waiting &&
            (k ? src1_[phys] : src0_[phys]) == producer_seq) {
            clearBit(needsBits_[k], phys);
            nodeNext_[node] = nodeFreeHead_;
            nodeFreeHead_ = node;
            if (!testBit(needsBits_[k ^ 1], phys))
                setReadyBit(logicalOfPhys(phys));
        } else if (!waiting) {
            // Stale node (the entry left the queue, or its needs
            // bit was cleared by a path that bypassed the index):
            // reclaim it.
            nodeNext_[node] = nodeFreeHead_;
            nodeFreeHead_ = node;
        } else {
            nodeNext_[node] = keep;
            keep = node;
        }
        node = nxt;
    }
    watchHead_[pslot] = keep;
}

void
IssueQueue::chargeWakeup(int n_tags, ActivityRecord& activity)
{
    // Clock-gated when nothing is in the queue: an empty queue's
    // broadcast drivers never fire.
    if (n_tags <= 0 || count_ == 0)
        return;
    activity.iqTagBroadcasts[queueIndex()] +=
        static_cast<std::uint64_t>(n_tags);
}

void
IssueQueue::watchAdd(std::uint64_t consumer_seq, int k,
                     std::uint64_t producer_seq)
{
    const std::int16_t node = nodeFreeHead_;
    if (node < 0)
        panic("issue-queue watch node pool exhausted");
    nodeFreeHead_ = nodeNext_[node];
    watchSeq_[node] = consumer_seq;
    watchK_[node] = static_cast<std::uint8_t>(k);
    const auto pslot =
        static_cast<std::size_t>(producer_seq) & (kWatchSlots - 1);
    nodeNext_[node] = watchHead_[pslot];
    watchHead_[pslot] = node;
}

void
IssueQueue::rebuildWatch()
{
    std::memset(watchHead_, 0xff,
                static_cast<std::size_t>(kWatchSlots) *
                    sizeof(std::int16_t));
    const int num_nodes = 2 * size_;
    for (int j = 0; j < num_nodes; ++j) {
        nodeNext_[j] = static_cast<std::int16_t>(
            j + 1 < num_nodes ? j + 1 : -1);
    }
    nodeFreeHead_ = 0;
    for (int w = 0; w < words_; ++w) {
        std::uint64_t m = needsBits_[0][w] | needsBits_[1][w];
        while (m != 0) {
            const int phys = w * 64 + std::countr_zero(m);
            m &= m - 1;
            if (testBit(needsBits_[0], phys))
                watchAdd(seq_[phys], 0, src0_[phys]);
            if (testBit(needsBits_[1], phys))
                watchAdd(seq_[phys], 1, src1_[phys]);
        }
    }
}

void
IssueQueue::markIssued(int phys_idx, ActivityRecord& activity)
{
    if (phys_idx < 0 || phys_idx >= size_)
        panic("issue-queue physical index out of range");
    if (!testBit(validBits_, phys_idx) ||
        testBit(pendingBits_, phys_idx))
        panic("markIssued on an empty or already-issued entry");
    setBit(pendingBits_, phys_idx);
    ++pendingInvalidCount_;
    clearReadyBit(logicalOfPhys(phys_idx));
    const int q = queueIndex();
    // Payload RAM read + select-network access per issue.
    ++activity.iqPayloadAccesses[q];
    ++activity.iqSelectAccesses[q];
}

void
IssueQueue::compactStep(ActivityRecord& activity)
{
    compactStepImpl(activity, false);
}

void
IssueQueue::compactStepImpl(ActivityRecord& activity,
                            bool force_generic)
{
    // Early out when there is nothing to compact: no entries were
    // issued last cycle and the occupied region is hole-free
    // (tail == valid count). The full pass below would then only
    // rebuild the ready/waiting bitmaps with identical contents —
    // they are kept consistent incrementally by dispatch(),
    // markIssued() and wakeMatching() instead.
    if (!compactionIdle()) {
        if (words_ == 1 && !force_generic)
            compactWordPass(activity);
        else
            compactGenericPass(activity);
    }

    // Clock-gating control logic runs every cycle, and the valid
    // entries burn leakage whether or not anything moves
    // (occupancy is taken after the pass).
    chargeCycles(1, activity);
}

void
IssueQueue::compactWordPass(ActivityRecord& activity)
{
    const int q = queueIndex();
    std::uint64_t valid = validBits_[0];
    std::uint64_t ready = ready_[0];
    std::uint64_t has_dest = hasDestBits_[0];
    std::uint64_t mispred = mispredBits_[0];
    std::uint64_t needs0 = needsBits_[0][0];
    std::uint64_t needs1 = needsBits_[1][0];

    // The paper's one-cycle replay window: last cycle's issues
    // become holes, dropped from the valid map in bulk.
    // markIssued() already removed their ready bits, and issued
    // entries hold no needs bits; their stale hasDest/mispred
    // bits are dead until the slot is rewritten.
    const std::uint64_t pend = pendingBits_[0];
    if (pend != 0) {
        valid &= ~pend;
        const int n0 = std::popcount(pend & mask64(half_));
        const int n1 = std::popcount(pend) - n0;
        count_ -= n0 + n1;
        halfCount_[0] -= n0;
        halfCount_[1] -= n1;
        pendingBits_[0] = 0;
    }
    pendingInvalidCount_ = 0;

    // Valid map in logical (priority) order; in toggled mode the
    // physical slots are the logical positions rotated by half_.
    std::uint64_t log_valid = valid;
    if (mode_ == CompactionMode::Toggled)
        log_valid = ((valid >> half_) |
                     (valid << (size_ - half_))) &
                    mask64(size_);
    const std::uint64_t holes = ~log_valid & mask64(tailLogical_);
    if (holes == 0) {
        validBits_[0] = valid;
        return;
    }

    // The prefix below the first hole stays put; every maximal run
    // of valid entries above it shifts down by one constant amount
    // (min(gaps below, issueWidth)), so each run moves with one
    // memmove per field array and one mask shift per bitmap.
    // Gaps-below is nondecreasing in logical order, so destination
    // ranges never collide with unprocessed sources (the same
    // argument that makes the per-entry reference pass in-place
    // safe).
    int last_valid = -1;
    const int first_hole = std::countr_zero(holes);
    if (first_hole > 0)
        last_valid = first_hole - 1;
    std::uint64_t runs = log_valid & mask64(tailLogical_) &
                         ~mask64(first_hole);
    while (runs != 0) {
        const int a = std::countr_zero(runs);
        const int len = std::countr_zero(~(runs >> a));
        runs &= ~(mask64(len) << a);

        const int gaps = std::popcount(holes & mask64(a));
        const int shift = std::min(gaps, issueWidth_);
        const int dst_a = a - shift;

        // Ready bits ride in logical order: slide the run's slice
        // down in one move (clear both ranges, then deposit —
        // holes hold no ready bits, so nothing real is lost).
        const std::uint64_t lm = mask64(len);
        const std::uint64_t rbits = (ready >> a) & lm;
        ready &= ~((lm << a) | (lm << dst_a));
        ready |= rbits << dst_a;

        // Physically the run is contiguous except where the source
        // or destination mapping crosses the rotation seam
        // (toggled mode): split there, then move each contiguous
        // segment. A segment whose destination wraps around the
        // queue ends travels the long wires.
        int x = a;
        const int b = a + len;
        while (x < b) {
            int y = b;
            if (mode_ == CompactionMode::Toggled) {
                if (x < half_)
                    y = std::min(y, half_);
                else if (x < half_ + shift)
                    y = std::min(y, half_ + shift);
            }
            const int seg = y - x;
            const int pa = physOfLogical(x);
            const int qa = physOfLogical(x - shift);
            const bool wrapped = qa > pa;

            const auto src = static_cast<std::size_t>(pa);
            const auto dst = static_cast<std::size_t>(qa);
            const auto cnt = static_cast<std::size_t>(seg);
            std::memmove(seq_ + dst, seq_ + src, cnt * 8);
            std::memmove(src0_ + dst, src0_ + src, cnt * 8);
            std::memmove(src1_ + dst, src1_ + src, cnt * 8);
            std::memmove(lineAddr_ + dst, lineAddr_ + src,
                         cnt * 8);
            std::memmove(cls_ + dst, cls_ + src, cnt);
            std::memmove(numSrcs_ + dst, numSrcs_ + src, cnt);

            const std::uint64_t sm = mask64(seg);
            valid = (valid & ~(sm << pa)) | (sm << qa);
            const auto move_range = [&](std::uint64_t& map) {
                const std::uint64_t bits = (map >> pa) & sm;
                map &= ~((sm << pa) | (sm << qa));
                map |= bits << qa;
            };
            move_range(has_dest);
            move_range(mispred);
            move_range(needs0);
            move_range(needs1);

            // Per-entry charges, aggregated per physical half by
            // splitting the contiguous src/dst ranges at half_.
            const int src_h0 =
                std::max(0, std::min(pa + seg, half_) - pa);
            const int src_h1 = seg - src_h0;
            const int dst_h0 =
                std::max(0, std::min(qa + seg, half_) - qa);
            const int dst_h1 = seg - dst_h0;
            if (wrapped) {
                activity.iqLongCompactions[q][0] +=
                    static_cast<std::uint64_t>(src_h0);
                activity.iqLongCompactions[q][1] +=
                    static_cast<std::uint64_t>(src_h1);
            } else {
                activity.iqEntryMoves[q][0] +=
                    static_cast<std::uint64_t>(src_h0);
                activity.iqEntryMoves[q][1] +=
                    static_cast<std::uint64_t>(src_h1);
            }
            activity.iqMuxSelects[q][0] +=
                static_cast<std::uint64_t>(dst_h0);
            activity.iqMuxSelects[q][1] +=
                static_cast<std::uint64_t>(dst_h1);
            activity.iqCounterOps[q][0] +=
                static_cast<std::uint64_t>(src_h0);
            activity.iqCounterOps[q][1] +=
                static_cast<std::uint64_t>(src_h1);
            halfCount_[0] += dst_h0 - src_h0;
            halfCount_[1] += dst_h1 - src_h1;
            x = y;
        }
        last_valid = dst_a + len - 1;
    }
    tailLogical_ = last_valid + 1;
    validBits_[0] = valid;
    ready_[0] = ready;
    hasDestBits_[0] = has_dest;
    mispredBits_[0] = mispred;
    needsBits_[0][0] = needs0;
    needsBits_[1][0] = needs1;
}

void
IssueQueue::compactGenericPass(ActivityRecord& activity)
{
    const int q = queueIndex();

    // One pass in logical (priority) order: convert last cycle's
    // issues into holes, then shift valid entries toward the head
    // by the number of holes below them, at most issueWidth per
    // cycle. Gaps-below is nondecreasing in logical order, so the
    // in-place ascending application is collision-free and
    // order-preserving. The ready/waiting bitmaps move
    // incrementally with the entries: each valid entry holds
    // exactly one bit (ready at its logical position, or needs
    // bits at its physical slot), maintained by dispatch/wakeup/
    // issue, so a move relocates that entry's bits and unmoved
    // entries touch no map.
    int gaps = 0;
    int last_valid = -1;
    for (int l = 0; l < tailLogical_; ++l) {
        const int p = physOfLogical(l);
        if (!testBit(validBits_, p)) {
            ++gaps;
            continue;
        }
        if (testBit(pendingBits_, p)) {
            // The paper's one-cycle replay window: issued last
            // cycle, becomes a hole now. markIssued() already
            // cleared the ready bit (issued entries were ready,
            // so no needs bits exist either).
            clearBit(validBits_, p);
            clearBit(pendingBits_, p);
            --count_;
            --halfCount_[halfOfPhys(p)];
            ++gaps;
            continue;
        }
        if (gaps == 0) {
            last_valid = l;
            continue;
        }
        const int shift = std::min(gaps, issueWidth_);
        const int dst_l = l - shift;
        const int dst_p = physOfLogical(dst_l);
        const int src_half = halfOfPhys(p);
        const int dst_half = halfOfPhys(dst_p);

        // Compaction moves down in physical space; a physical
        // *increase* means the move wrapped around the queue
        // ends (possible only in toggled mode) over the long
        // wires.
        const bool wrapped = dst_p > p;
        if (wrapped)
            ++activity.iqLongCompactions[q][src_half];
        else
            ++activity.iqEntryMoves[q][src_half];
        // The receiving entry drives its cross-queue mux
        // selects; the invalids-counter stages activate for
        // participating entries (clock-gated otherwise).
        ++activity.iqMuxSelects[q][dst_half];
        ++activity.iqCounterOps[q][src_half];

        seq_[dst_p] = seq_[p];
        cls_[dst_p] = cls_[p];
        numSrcs_[dst_p] = numSrcs_[p];
        src0_[dst_p] = src0_[p];
        src1_[dst_p] = src1_[p];
        lineAddr_[dst_p] = lineAddr_[p];
        setBit(validBits_, dst_p);
        clearBit(validBits_, p);
        clearBit(pendingBits_, dst_p);
        moveBit(hasDestBits_, p, dst_p);
        moveBit(mispredBits_, p, dst_p);
        --halfCount_[src_half];
        ++halfCount_[dst_half];
        if (testReadyBit(l)) {
            clearReadyBit(l);
            setReadyBit(dst_l);
            clearBit(needsBits_[0], dst_p);
            clearBit(needsBits_[1], dst_p);
        } else {
            moveBit(needsBits_[0], p, dst_p);
            moveBit(needsBits_[1], p, dst_p);
        }
        last_valid = dst_l;
    }
    tailLogical_ = last_valid + 1;
    // Every pending invalid sat below the old tail, so the pass
    // converted all of them.
    pendingInvalidCount_ = 0;
}

void
IssueQueue::toggleMode()
{
    mode_ = mode_ == CompactionMode::Conventional
                ? CompactionMode::Toggled
                : CompactionMode::Conventional;
    ++toggleCount_;
    // Entries stay in their physical slots; logical positions (and
    // hence the tail and the logical-order ready bitmap) are
    // re-derived under the new mapping. The waiting bitmaps are
    // physically indexed and unaffected.
    recomputeTail();
    rebuildReadyBits();
}

void
IssueQueue::clear()
{
    const auto n = static_cast<std::size_t>(size_);
    const auto wb = static_cast<std::size_t>(words_) * 8;
    std::memset(seq_, 0, n * 8);
    std::memset(src0_, 0, n * 8);
    std::memset(src1_, 0, n * 8);
    std::memset(lineAddr_, 0, n * 8);
    std::memset(cls_, 0, n);
    std::memset(numSrcs_, 0, n);
    std::memset(validBits_, 0, wb);
    std::memset(pendingBits_, 0, wb);
    std::memset(hasDestBits_, 0, wb);
    std::memset(mispredBits_, 0, wb);
    std::memset(needsBits_[0], 0, wb);
    std::memset(needsBits_[1], 0, wb);
    std::memset(ready_, 0, wb);
    count_ = 0;
    halfCount_[0] = halfCount_[1] = 0;
    tailLogical_ = 0;
    pendingInvalidCount_ = 0;
    rebuildWatch();
}

void
IssueQueue::saveState(StateWriter& w) const
{
    w.u32(static_cast<std::uint32_t>(size_));
    w.u8(static_cast<std::uint8_t>(kind_));
    w.u8(mode_ == CompactionMode::Toggled ? 1 : 0);
    w.i32(count_);
    w.u64(toggleCount_);
    w.i32(tailLogical_);
    w.i32(halfCount_[0]);
    w.i32(halfCount_[1]);
    w.i32(pendingInvalidCount_);
    const auto n = static_cast<std::size_t>(size_);
    const auto wb = static_cast<std::size_t>(words_) * 8;
    w.blob(seq_, n * 8);
    w.blob(src0_, n * 8);
    w.blob(src1_, n * 8);
    w.blob(lineAddr_, n * 8);
    w.blob(cls_, n);
    w.blob(numSrcs_, n);
    w.blob(validBits_, wb);
    w.blob(pendingBits_, wb);
    w.blob(hasDestBits_, wb);
    w.blob(mispredBits_, wb);
    w.blob(needsBits_[0], wb);
    w.blob(needsBits_[1], wb);
    w.blob(ready_, wb);
}

void
IssueQueue::loadState(StateReader& r)
{
    const auto size = r.u32();
    const auto kind = r.u8();
    if (static_cast<int>(size) != size_ ||
        kind != static_cast<std::uint8_t>(kind_)) {
        fatal("checkpoint issue queue mismatch: saved size ", size,
              " kind ", static_cast<int>(kind), ", this queue size ",
              size_, " kind ", queueIndex());
    }
    mode_ = r.u8() ? CompactionMode::Toggled
                   : CompactionMode::Conventional;
    count_ = r.i32();
    toggleCount_ = r.u64();
    tailLogical_ = r.i32();
    halfCount_[0] = r.i32();
    halfCount_[1] = r.i32();
    pendingInvalidCount_ = r.i32();
    const auto n = static_cast<std::size_t>(size_);
    const auto wb = static_cast<std::size_t>(words_) * 8;
    r.blob(seq_, n * 8);
    r.blob(src0_, n * 8);
    r.blob(src1_, n * 8);
    r.blob(lineAddr_, n * 8);
    r.blob(cls_, n);
    r.blob(numSrcs_, n);
    r.blob(validBits_, wb);
    r.blob(pendingBits_, wb);
    r.blob(hasDestBits_, wb);
    r.blob(mispredBits_, wb);
    r.blob(needsBits_[0], wb);
    r.blob(needsBits_[1], wb);
    r.blob(ready_, wb);
    rebuildWatch();
}

} // namespace tempest
