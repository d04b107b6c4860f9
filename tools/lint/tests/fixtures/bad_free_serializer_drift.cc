// Fixture: free serializers — a helper taking a StateWriter& and
// the inline chunk writes of a saveCheckpoint-style method — that
// changed while the checkpoint version stayed at this fixture's
// own version 7. The paired registry JSON records the old
// sequences: saveTally wrote one u64, and saveCheckpoint wrote its
// u32 after handing the chunk to saveTally. Both must be flagged.
#include "stubs.hh"

namespace tempest
{

inline constexpr std::uint32_t kCheckpointVersion = 7;

std::uint32_t chunkId(const char* tag);
const std::uint32_t kChunkTally = chunkId("TALY");

struct Tally
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

void
saveTally(StateWriter& w, const Tally& t)
{
    w.u64(t.hits);
    w.u64(t.misses); // grew a field; version not bumped
}

struct Writer
{
    StateWriter& chunk(std::uint32_t id);
};

class Owner
{
  public:
    void
    saveCheckpoint(Writer& cp) const
    {
        StateWriter& w = cp.chunk(kChunkTally);
        w.u32(count_); // moved ahead of the tally
        saveTally(w, tally_);
    }

  private:
    std::uint32_t count_ = 0;
    Tally tally_;
};

} // namespace tempest
