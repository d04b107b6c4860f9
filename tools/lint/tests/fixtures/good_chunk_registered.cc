// Fixture: a checkpoint class and a free serializer whose FourCC
// and serializer sequences match the committed registry baseline
// exactly, at this fixture's own version 7. Must lint clean
// against chunk_registry_good.json.
#include "stubs.hh"

namespace tempest
{

inline constexpr std::uint32_t kCheckpointVersion = 7;

std::uint32_t chunkId(const char* tag);

struct Tally
{
    std::uint64_t hits = 0;
};

void
saveTally(StateWriter& w, const Tally& t)
{
    w.u64(t.hits);
}

class SteadyClass
{
  public:
    void
    saveState(StateWriter& w) const
    {
        w.u32(chunkId("STDY"));
        w.u32(count_);
        w.f64(value_);
    }

    void
    loadState(StateReader& r)
    {
        (void)r.u32(); // chunk tag, validated by the caller
        count_ = r.u32();
        value_ = r.f64();
    }

  private:
    std::uint32_t count_ = 0;
    double value_ = 0.0;
};

} // namespace tempest
