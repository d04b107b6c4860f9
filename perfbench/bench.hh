/**
 * @file
 * Shared pieces of the repository benchmark: host clocks, the
 * in-memory span tracer, per-round results, and the workload
 * table. See perfbench/README.md for what each workload measures.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tempest
{
struct SimResult;
}

namespace perfbench
{

using Nanos = std::int64_t;

/** Monotonic host time in nanoseconds. */
Nanos nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(Nanos a, Nanos b)
{
    return static_cast<double>(b - a) * 1e-9;
}

/** User + system CPU seconds of this process and its reaped
 * children (getrusage). */
double cpuSeconds();

/** Peak resident set of this process or any reaped child, MiB. */
double peakRssMb();

/**
 * Seconds for a fixed random pointer chase over 512 KiB: benchmark
 * code, never the simulator's, that probes how fast the host's
 * shared core and caches run right now (README: "Host noise").
 */
double chaseSeconds();

/** chaseSeconds() on a quiet reference host. End-to-end times are
 * reported in seconds of a host running the chase this fast. */
inline constexpr double kChaseReferenceS = 0.0065;

/** How strongly simulation time follows the chase: a round's times
 * are divided by slowdown^kHostExponent. The slope of log round wall
 * time on log slowdown over core-ilp rounds on the reference host
 * (README: "Host noise"). */
inline constexpr double kHostExponent = 1.5;

/** Linear-interpolated quantile (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> values, double q);

/** FNV-1a 64 folding of one 64-bit value into a running digest. */
std::uint64_t foldDigest(std::uint64_t digest, std::uint64_t value);
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

/** splitmix64 finalizer: decorrelated per-round seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** One recorded span. Times are nowNs() readings. */
struct Span
{
    std::string name;
    Nanos start = 0;
    Nanos end = 0;
    int parent = -1;       ///< index of the enclosing span, -1 at top
    std::uint64_t job = 0; ///< id shared by all spans of one job
};

/**
 * Span recorder plus counters taken at the same boundaries.
 * Disabled tracers record nothing (the end-to-end passes run with
 * one). Single-threaded by design: every workload records from the
 * thread that drives it.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open one; -1 if disabled. */
    int begin(const std::string& name, std::uint64_t job);
    void end(int id);
    /** Record a closed span with explicit times (events observed
     * after the fact, e.g. serve replies). */
    void record(const std::string& name, Nanos start, Nanos end,
                std::uint64_t job);

    /** Accumulate a counter / append a sample (no-ops if off). */
    void add(const std::string& key, double value);
    void sample(const std::string& key, double value);

    double sum(const std::string& key) const;
    bool has(const std::string& key) const;
    const std::vector<double>& samples(const std::string& key) const;

    const std::vector<Span>& spans() const { return spans_; }

    /** Per span name: count, total ms, self ms (duration minus the
     * time covered by the union of its child spans). */
    struct SelfTime
    {
        std::size_t count = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    std::map<std::string, SelfTime> selfTimes() const;

    /** Write spans as JSON lines; false on I/O error. */
    bool writeJsonl(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> sums_;
    std::map<std::string, std::vector<double>> samples_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t job)
        : tracer_(tracer), id_(tracer.begin(name, job))
    {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

/** Everything one round of a workload measured. */
struct Round
{
    double setupS = 0;        ///< round start -> first timed op
    double wallS = 0;         ///< the fixed job list / script
    double cpuS = 0;          ///< CPU seconds over the timed part
    double instructions = 0;  ///< committed simulated instructions
    std::vector<double> opMs; ///< per-operation latencies
    /** Latencies by operation class (serve-mix: "hit", "miss"). */
    std::map<std::string, std::vector<double>> classMs;
    std::uint64_t digest = kDigestSeed; ///< over every result hash
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes; ///< round 0's are all printed
    /** chaseSeconds() before and after the round (mean) divided by
     * kChaseReferenceS: > 1 when the host ran slow. */
    double hostSlowdown = 1.0;
};

/** Per-round inputs. */
struct RoundCtx
{
    std::uint64_t seed = 0; ///< round seed (from --seed and index)
    int index = 0;          ///< round number within the run
    double scale = 1.0;     ///< < 1: reduced fill-in pass
};

/** A workload: a fixed job list per round, run from one process. */
struct Workload
{
    const char* name;
    const char* why;
    /** Expected seconds per round on the reference host; only used
     * to turn --seconds into a fixed round count. */
    double nominalRoundS;
    /** What one operation is (for the latency metrics). */
    const char* opName;
    /** Operation class (a Round::classMs key) that op_p50_ms and
     * op_p90_ms are taken over; nullptr for all operations. */
    const char* p50Class;
    const char* p90Class;
    Round (*round)(const RoundCtx& ctx, Tracer& tracer);
    /** Optional once-per-run check against an independent
     * in-process reference; returns failures (0 or 1). */
    std::size_t (*referenceCheck)(std::uint64_t seed);
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

Round coreIlpRound(const RoundCtx& ctx, Tracer& tracer);
Round coreMemRound(const RoundCtx& ctx, Tracer& tracer);
Round sweepForkRound(const RoundCtx& ctx, Tracer& tracer);
std::size_t sweepForkReferenceCheck(std::uint64_t seed);
Round serveMixRound(const RoundCtx& ctx, Tracer& tracer);

/** Add a result's exact uarch activity and DTM counts to the
 * tracer's counters. */
void countSimResult(Tracer& tracer, const tempest::SimResult& result);

/**
 * Standalone layer probes for a traced run: instruction generation,
 * thermal steps, checkpoint save/restore/file I/O, warm-snapshot
 * builds and the serve codec, each timed on the named workload's
 * profiles. Results land in the tracer's counters.
 */
void runLayerProbes(const std::string& workload, std::uint64_t seed,
                    Tracer& tracer);

/** The SPEC2000 profiles a workload simulates (its job lists and
 * the probes both read them here). */
std::vector<std::string> workloadProfiles(const std::string& workload);

/** Per-layer metrics computable from a traced pass's counters
 * (only the ones the pass produced). `rounds` normalizes counts to
 * per-round values. */
std::map<std::string, double> layerMetrics(const Tracer& tracer,
                                           int rounds);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
