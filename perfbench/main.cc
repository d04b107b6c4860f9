/**
 * @file
 * tempest_perfbench: the repository benchmark's runner.
 *
 *   tempest_perfbench --workload NAME --seed N --seconds S \
 *       --trace 0|1 --tmp DIR [--spans-out FILE]
 *
 * A run is a fixed number of rounds (derived from --seconds and the
 * workload's nominal round time, never from measured speed); round
 * r's inputs come from (--seed, r). End-to-end metrics are
 * interquartile means over all rounds, or percentiles over all
 * operations, measured with tracing off. --trace 1 instead runs an
 * untraced and a traced pass over the same rounds, checks that their
 * digests agree, runs the standalone layer probes, and prints
 * per-layer metrics. The last stdout line is the JSON result;
 * everything else is for people.
 * All files go to --tmp, which the caller creates and removes.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{
namespace
{

struct Metric
{
    const char* name;
    const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},       {"wall_s", "s"},
    {"sim_mips", "Minstr/s"}, {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},    {"op_p90_ms", "ms"},
};

const std::vector<Metric> kPerLayer = {
    {"sim.ticked_ns_per_cycle", "ns"},
    {"sim.stall_ns_per_cycle", "ns"},
    {"sim.eon.ns_per_cycle", "ns"},
    {"sim.facerec.ns_per_cycle", "ns"},
    {"sim.gcc.ns_per_cycle", "ns"},
    {"sim.art.ns_per_cycle", "ns"},
    {"sim.mcf.ns_per_cycle", "ns"},
    {"sim.construct_ms", "ms"},
    {"sim.stall_share", "ratio"},
    {"sim.overshoot_cycles", "cycles"},
    {"cmp.ns_per_core_cycle", "ns"},
    {"cmp.stall_share", "ratio"},
    {"cmp.migrations", "count"},
    {"cmp.migrated_bytes", "bytes"},
    {"uarch.ipc", "instr/cycle"},
    {"uarch.iq_moves_pki", "1/kinstr"},
    {"uarch.wakeups_pki", "1/kinstr"},
    {"uarch.selects_pki", "1/kinstr"},
    {"uarch.regfile_reads_pki", "1/kinstr"},
    {"workload.gen_ns_per_op", "ns"},
    {"thermal.step_us", "us"},
    {"thermal.cmp_step_us", "us"},
    {"thermal.steady_ms", "ms"},
    {"dtm.toggles", "count"},
    {"dtm.turnoffs", "count"},
    {"dtm.global_stalls", "count"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.save_mbps", "MB/s"},
    {"checkpoint.restore_mbps", "MB/s"},
    {"checkpoint.file_write_ms", "ms"},
    {"checkpoint.file_read_ms", "ms"},
    {"runner.warm_snapshot_ms", "ms"},
    {"fabric.busy_share", "ratio"},
    {"fabric.overhead_s", "s"},
    {"fabric.job_p50_ms", "ms"},
    {"fabric.spawns", "count"},
    {"fabric.requeues", "count"},
    {"serve.codec_us", "us"},
    {"serve.compute_p50_ms", "ms"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.queue_p90_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.warm_builds", "count"},
    {"serve.shed", "count"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p90_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.miss_p90_ms", "ms"},
    {"trace.overhead_s", "s"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string tmp;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "tempest_perfbench: %s\nusage: tempest_perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "--tmp DIR [--spans-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::atof(value.c_str());
        else if (key == "--trace")
            a.trace = std::atoi(value.c_str());
        else if (key == "--tmp")
            a.tmp = value;
        else if (key == "--spans-out")
            a.spansOut = std::filesystem::absolute(value).string();
        else
            usage("unknown argument " + key);
    }
    if (!findWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (a.tmp.empty() || !std::filesystem::is_directory(a.tmp))
        usage("--tmp must name an existing directory");
    return a;
}

/** A round's operation latencies of class `cls`, or all of them. */
const std::vector<double>&
opsOf(const Round& r, const char* cls)
{
    static const std::vector<double> none;
    if (!cls)
        return r.opMs;
    const auto it = r.classMs.find(cls);
    return it == r.classMs.end() ? none : it->second;
}

/** A pass: `rounds` rounds of one workload. */
struct Pass
{
    std::vector<Round> rounds;
    std::uint64_t digest = kDigestSeed;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    std::vector<double>
    field(double Round::*f) const
    {
        std::vector<double> v;
        for (const Round& r : rounds)
            v.push_back(r.*f);
        return v;
    }
    std::size_t
    ops(const char* cls) const
    {
        std::size_t n = 0;
        for (const Round& r : rounds)
            n += opsOf(r, cls).size();
        return n;
    }
};

Pass
runPass(const Workload& w, std::uint64_t seed, int rounds, double scale,
        Tracer& tracer)
{
    Pass pass;
    for (int i = 0; i < rounds; ++i) {
        RoundCtx ctx;
        ctx.seed = mixSeed(seed, static_cast<std::uint64_t>(i));
        ctx.index = i;
        ctx.scale = scale;
        const double before = chaseSeconds();
        pass.rounds.push_back(w.round(ctx, tracer));
        Round& r = pass.rounds.back();
        r.hostSlowdown =
            0.5 * (before + chaseSeconds()) / kChaseReferenceS;
        pass.digest = foldDigest(pass.digest, r.digest);
        pass.attempted += r.attempted;
        pass.failed += r.failed;
    }
    return pass;
}

double
medianOf(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Mean of the middle half: the lowest and highest quarter of the
 * values are dropped, the rest averaged. Steadier than the median
 * when rounds fall into two modes (fast and slow host phases, or
 * serve-mix's daemon start), and still blind to a few outliers. */
double
interquartileMean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

void
printNotes(const Pass& pass)
{
    if (pass.rounds.empty())
        return;
    for (const std::string& n : pass.rounds.front().notes)
        std::printf("  %s\n", n.c_str());
    for (std::size_t i = 1; i < pass.rounds.size(); ++i) {
        for (const std::string& n : pass.rounds[i].notes) {
            if (n.rfind("FAILED", 0) == 0)
                std::printf("  round %zu: %s\n", i, n.c_str());
        }
    }
}

/**
 * End-to-end metrics over every round of the pass: a per-round value
 * (setup_s, wall_s, sim_mips) is the interquartile mean over rounds;
 * a latency percentile is taken over the pooled operations of all
 * rounds, of the class the workload names for it (all operations
 * when none). With `scaled`, each round's times are divided by its
 * host slowdown to the power kHostExponent (rates multiplied):
 * seconds of the reference host.
 */
std::map<std::string, double>
endToEnd(const Workload& w, const Pass& pass, bool scaled)
{
    auto factor = [&](const Round& r) {
        return scaled ? std::pow(r.hostSlowdown, kHostExponent) : 1.0;
    };
    auto overRounds = [&](auto value) {
        std::vector<double> v;
        for (const Round& r : pass.rounds)
            v.push_back(value(r));
        return interquartileMean(v);
    };
    auto latency = [&](const char* cls, double q) {
        std::vector<double> ops;
        for (const Round& r : pass.rounds) {
            for (double ms : opsOf(r, cls))
                ops.push_back(ms / factor(r));
        }
        return quantile(ops, q);
    };
    return {
        {"setup_s", overRounds([&](const Round& r) {
             return r.setupS / factor(r);
         })},
        {"wall_s", overRounds([&](const Round& r) {
             return r.wallS / factor(r);
         })},
        {"sim_mips", overRounds([&](const Round& r) {
             return r.instructions * 1e-6 * factor(r) / r.cpuS;
         })},
        {"peak_rss_mb", peakRssMb()},
        {"op_p50_ms", latency(w.p50Class, 0.5)},
        {"op_p90_ms", latency(w.p90Class, 0.9)},
    };
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric>& names,
          const std::map<std::string, double>& values)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const Metric& m : names) {
        const auto it = values.find(m.name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name, v, m.unit);
        first = false;
    }
    std::printf("}}\n");
}

int
runUntraced(const Workload& w, const Args& a, int rounds)
{
    Tracer off(false);
    Pass pass = runPass(w, a.seed, rounds, 1.0, off);
    if (w.referenceCheck) {
        ++pass.attempted;
        pass.failed += w.referenceCheck(a.seed);
    }
    const std::map<std::string, double> m = endToEnd(w, pass, true);
    const std::map<std::string, double> raw = endToEnd(w, pass, false);

    std::printf("workload %s: %s\n", w.name, w.why);
    printNotes(pass);
    std::printf("rounds %zu, operations %zu (%s)\n", pass.rounds.size(),
                pass.ops(nullptr), w.opName);
    for (const Round& r : pass.rounds) {
        std::printf("  round setup %.6f wall %.6f mips %.6f p50 %.6f "
                    "p90 %.6f slowdown %.4f\n",
                    r.setupS, r.wallS, r.instructions / r.cpuS * 1e-6,
                    quantile(opsOf(r, w.p50Class), 0.5),
                    quantile(opsOf(r, w.p90Class), 0.9), r.hostSlowdown);
    }
    std::printf("host slowdown (512 KiB chase / reference): median "
                "%.3f; over all %zu rounds, at reference speed (raw "
                "host values):\n",
                medianOf(pass.field(&Round::hostSlowdown)),
                pass.rounds.size());
    for (const Metric& e : kEndToEnd) {
        std::printf("  %-12s %14.6f (%14.6f) %-9s", e.name, m.at(e.name),
                    raw.at(e.name), e.unit);
        const std::string n = e.name;
        const bool p50 = n == "op_p50_ms";
        if (p50 || n == "op_p90_ms") {
            const char* cls = p50 ? w.p50Class : w.p90Class;
            const std::size_t k = pass.ops(cls);
            std::printf(" (%s, n=%zu, %zu beyond)", cls ? cls : "all", k,
                        static_cast<std::size_t>(static_cast<double>(k) *
                                                 (p50 ? 0.5 : 0.1)));
        } else if (n != "peak_rss_mb") {
            std::printf(" (interquartile mean of %zu rounds)",
                        pass.rounds.size());
        }
        std::printf("\n");
    }
    // Per-class latencies (serve-mix hits and misses), all rounds, raw.
    std::map<std::string, std::vector<double>> classes;
    for (const Round& r : pass.rounds) {
        for (const auto& [cls, v] : r.classMs)
            classes[cls].insert(classes[cls].end(), v.begin(), v.end());
    }
    for (const auto& [cls, v] : classes) {
        for (double q : {0.5, 0.9}) {
            std::printf("  %-12s %14.6f %-9s (n=%zu, %zu beyond)\n",
                        (cls + (q < 0.6 ? "_p50_ms" : "_p90_ms")).c_str(),
                        quantile(v, q), "ms", v.size(),
                        static_cast<std::size_t>(
                            static_cast<double>(v.size()) *
                            (q < 0.6 ? 0.5 : 0.1)));
        }
    }
    const double errorRate =
        pass.attempted ? static_cast<double>(pass.failed) /
                             static_cast<double>(pass.attempted)
                       : 1.0;
    std::printf("  %-12s %14.6f %-9s (%zu of %zu operations)\n",
                "error_rate", errorRate, "ratio", pass.failed,
                pass.attempted);
    std::printf("digest %s %016llx\n", w.name,
                static_cast<unsigned long long>(pass.digest));
    printJson(pass.failed == 0, pass.attempted, pass.failed, kEndToEnd,
              m);
    return 0;
}

int
runTraced(const Workload& w, const Args& a, int rounds)
{
    const int traced = std::max(2, rounds / 3);
    Tracer off(false);
    Tracer on(true);
    Pass plain = runPass(w, a.seed, traced, 1.0, off);
    Pass pass = runPass(w, a.seed, traced, 1.0, on);
    std::size_t attempted = plain.attempted + pass.attempted + 1;
    std::size_t failed = plain.failed + pass.failed +
                         (plain.digest == pass.digest ? 0 : 1);
    if (w.referenceCheck) {
        ++attempted;
        failed += w.referenceCheck(a.seed);
    }
    runLayerProbes(w.name, a.seed, on);
    std::map<std::string, double> m = layerMetrics(on, traced);
    const double tracedWall = endToEnd(w, pass, true).at("wall_s");
    const double plainWall = endToEnd(w, plain, true).at("wall_s");
    m["trace.overhead_s"] = tracedWall - plainWall;

    std::printf("workload %s (traced): %s\n", w.name, w.why);
    printNotes(pass);
    std::printf("digest %s untraced %016llx traced %016llx %s\n", w.name,
                static_cast<unsigned long long>(plain.digest),
                static_cast<unsigned long long>(pass.digest),
                plain.digest == pass.digest ? "(equal)" : "(MISMATCH)");
    std::printf("tracing overhead: traced wall_s %.6f - untraced wall_s "
                "%.6f = %.6f s (%zu spans)\n",
                tracedWall, plainWall, m["trace.overhead_s"],
                on.spans().size());

    // Layers this workload does not exercise are read from a
    // reduced traced pass of the workload that does.
    std::map<std::string, std::string> source;
    for (const Workload& other : workloads()) {
        if (&other == &w)
            continue;
        Tracer fill(true);
        runPass(other, mixSeed(a.seed, 1000), 1, 0.25, fill);
        for (const auto& [k, v] : layerMetrics(fill, 1)) {
            if (m.emplace(k, v).second)
                source[k] = other.name;
        }
    }

    std::printf("per-layer metrics:\n");
    std::set<std::string> missing;
    for (const Metric& e : kPerLayer) {
        const auto it = m.find(e.name);
        if (it == m.end()) {
            missing.insert(e.name);
            std::printf("  %-28s %14s %-12s MISSING\n", e.name, "-",
                        e.unit);
            continue;
        }
        std::printf("  %-28s %14.6f %-12s", e.name, it->second, e.unit);
        if (source.count(e.name))
            std::printf(" (from a reduced %s pass)",
                        source[e.name].c_str());
        std::printf("\n");
    }
    std::printf("span self time (ms):\n");
    for (const auto& [name, t] : on.selfTimes()) {
        std::printf("  %-28s n=%-6zu total %10.3f self %10.3f\n",
                    name.c_str(), t.count, t.totalMs, t.selfMs);
    }
    if (!a.spansOut.empty() && !on.writeJsonl(a.spansOut)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     a.spansOut.c_str());
        return 1;
    }
    failed += missing.size();
    attempted += missing.size();
    printJson(failed == 0, attempted, failed, kPerLayer, m);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
    const Workload& w = *findWorkload(a.workload);
    if (::chdir(a.tmp.c_str()) != 0)
        usage("cannot enter " + a.tmp);
    const int rounds = std::max(
        3, static_cast<int>(std::lround(a.seconds / w.nominalRoundS)));
    try {
        return a.trace ? runTraced(w, a, rounds)
                       : runUntraced(w, a, rounds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tempest_perfbench: %s\n", e.what());
        return 1;
    }
}
