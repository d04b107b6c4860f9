/**
 * @file
 * serve-mix: an in-process ServeDaemon (2 workers, warm pool on, no
 * rate limit) on a socket in the run's temporary directory, driven
 * closed-loop by one client thread over 2 connections: each
 * connection sends its next request only after the previous reply.
 *
 * The seeded script follows the daemon's documented use (EXPERIMENTS.md,
 * "Re-running experiments through tempest_serve"; the cold and mixed
 * phases of tools/serve_hammer.py): every run identity is computed
 * once and then re-requested kRepeats times, serve_hammer's default.
 * That makes 3 hits per miss; it is not measured from real users'
 * traffic. The first phase is first-time benchmarks (warm-pool builds)
 * and a second config of each (warm misses); three more phases each
 * bring new DTM configs of the warmed benchmarks (warm misses). Every
 * miss phase is followed by a phase of its repeats (hits), sent one
 * at a time. A barrier between phases keeps the class of every
 * request fixed, so no request is coalesced by chance, and no hit
 * runs while a worker computes, so a hit's latency is the serve
 * path's alone.
 */

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench
{

using namespace tempest;
using serve::Json;

namespace
{

constexpr std::uint64_t kWarmupCycles = 200'000;
constexpr std::uint64_t kRequestCycles = 200'000;
constexpr int kRepeats = 3;
/** The new-config misses come in this many phases, each followed by
 * a phase of its hits, so hits are sampled at several points of a
 * round. */
constexpr std::size_t kTweakGroups = 3;

/** Keeps the codec probe's results observable. */
volatile std::size_t g_codecSink = 0;

struct Entry
{
    serve::Request req;
    std::string line;
    int ref = -1;   ///< hit: index of the request it repeats
    bool build = false; ///< first request of its benchmark
    int phase = 0;
};

Config
rfConfig(int variant)
{
    Config c;
    c.set("floorplan.variant", "regfile");
    c.set("sim.sample_interval", "100000");
    switch (variant) {
      case 0:
        c.set("dtm.mapping", "priority");
        break;
      case 1:
        c.set("dtm.mapping", "priority");
        c.set("dtm.regfile_turnoff", "true");
        break;
      case 2:
        c.set("dtm.mapping", "balanced");
        break;
      case 3:
        c.set("dtm.mapping", "balanced");
        c.set("dtm.regfile_turnoff", "true");
        break;
      default:
        c.set("dtm.mapping", "priority");
        c.set("dtm.fetch_throttling", "true");
        break;
    }
    return c;
}

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** The round's request script, in phase order. */
std::vector<Entry>
makeScript(std::uint64_t seed, double scale)
{
    const std::vector<std::string> benchmarks =
        workloadProfiles("serve-mix");
    const auto cycles = std::max<std::uint64_t>(
        100'000, static_cast<std::uint64_t>(
                     static_cast<double>(kRequestCycles) * scale));
    const int repeats =
        std::max(1, static_cast<int>(kRepeats * scale + 0.5));
    Rng rng(seed);
    auto miss = [&](std::size_t b, int variant) {
        Entry e;
        e.req.op = serve::RequestOp::Run;
        e.req.benchmark = benchmarks[b];
        e.req.cycles = cycles;
        // 31-bit seeds travel as exact JSON integers.
        e.req.seed = mixSeed(seed, b) & 0x7fffffffU;
        e.req.warm = true;
        e.req.config = rfConfig(variant);
        return e;
    };

    std::vector<Entry> script;
    int phase = 0;
    // Appends a phase of `misses`, then a phase of `repeats` hits of
    // each of them in shuffled order.
    auto appendPhases = [&](std::vector<Entry> misses) {
        ++phase;
        std::vector<Entry> hits;
        for (Entry& e : misses) {
            e.phase = phase;
            for (int h = 0; h < repeats; ++h) {
                Entry hit = e;
                hit.ref = static_cast<int>(script.size());
                hit.build = false;
                hit.phase = phase + 1;
                hits.push_back(hit);
            }
            script.push_back(std::move(e));
        }
        ++phase;
        shuffle(hits, rng);
        for (Entry& e : hits)
            script.push_back(std::move(e));
    };

    std::vector<Entry> first, tweaks;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        for (int v = 0; v < 2; ++v)
            first.push_back(miss(b, v));
        for (int v = 2; v < 5; ++v)
            tweaks.push_back(miss(b, v));
    }
    shuffle(first, rng);
    std::vector<bool> seen(benchmarks.size(), false);
    for (Entry& e : first) {
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            if (e.req.benchmark == benchmarks[b] && !seen[b]) {
                seen[b] = true;
                e.build = true;
            }
        }
    }
    appendPhases(std::move(first));
    shuffle(tweaks, rng);
    const std::size_t group = tweaks.size() / kTweakGroups;
    for (std::size_t g = 0; g < kTweakGroups; ++g) {
        const auto from = tweaks.begin() +
                          static_cast<std::ptrdiff_t>(g * group);
        const auto to = g + 1 == kTweakGroups
                            ? tweaks.end()
                            : from + static_cast<std::ptrdiff_t>(group);
        appendPhases(std::vector<Entry>(from, to));
    }
    for (Entry& e : script)
        e.line = serve::encodeRequest(e.req);
    return script;
}

struct Conn
{
    int fd = -1;
    std::string rx;
    int inflight = -1;
    Nanos sentAt = 0;
};

int
connectTo(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendLine(int fd, const std::string& line)
{
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Read what is available; false on EOF or error. */
bool
readSome(Conn& c)
{
    char buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR)
        return true;
    if (n <= 0)
        return false;
    c.rx.append(buf, static_cast<std::size_t>(n));
    return true;
}

bool
popLine(Conn& c, std::string& line)
{
    const std::size_t nl = c.rx.find('\n');
    if (nl == std::string::npos)
        return false;
    line = c.rx.substr(0, nl);
    c.rx.erase(0, nl + 1);
    return true;
}

/** Blocking request/reply on one idle connection. */
bool
roundTrip(Conn& c, const std::string& request, std::string& reply)
{
    if (!sendLine(c.fd, request))
        return false;
    while (!popLine(c, reply)) {
        pollfd p{c.fd, POLLIN, 0};
        if (::poll(&p, 1, 30'000) <= 0 || !readSome(c))
            return false;
    }
    return true;
}

/** Thread ids of this process. */
std::set<pid_t>
threadIds()
{
    std::set<pid_t> ids;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        ids.insert(static_cast<pid_t>(
            std::stol(entry.path().filename().string())));
    }
    return ids;
}

/**
 * CPU placement of one round (README: "serve-mix placement"): the
 * daemon's poll thread gets the highest CPU the process may use and
 * the client (this thread) the next. The workers keep every CPU, so
 * the host's contention on any one CPU does not pin them down.
 * Restores this thread's affinity when destroyed; does nothing on
 * fewer than 3 CPUs.
 */
class Placement
{
  public:
    /** `before`: threadIds() before daemon.start(). The daemon
     * starts its poll thread first, so it has the lowest new id. */
    explicit Placement(const std::set<pid_t>& before)
    {
        CPU_ZERO(&allowed_);
        if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0 ||
            CPU_COUNT(&allowed_) < 3)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_))
                cpus.push_back(c);
        }
        pollCpu_ = cpus.back();
        cpu_set_t pollSet, clientSet;
        CPU_ZERO(&pollSet);
        CPU_SET(pollCpu_, &pollSet);
        CPU_ZERO(&clientSet);
        CPU_SET(cpus[cpus.size() - 2], &clientSet);
        pid_t poll = 0;
        for (pid_t id : threadIds()) {
            if (!before.count(id) && (poll == 0 || id < poll))
                poll = id;
        }
        pinned_ = true;
        ok_ = poll != 0 &&
              ::sched_setaffinity(0, sizeof clientSet, &clientSet) == 0 &&
              ::sched_setaffinity(poll, sizeof pollSet, &pollSet) == 0;
    }
    ~Placement()
    {
        if (pinned_)
            ::sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    Placement(const Placement&) = delete;
    Placement& operator=(const Placement&) = delete;

    /** False if a thread could not be placed (the round still runs,
     * unplaced; the run prints a note). */
    bool ok() const { return ok_ || !pinned_; }
    /** The poll thread's CPU, or -1 when unplaced. */
    int pollCpu() const { return pinned_ && ok_ ? pollCpu_ : -1; }

  private:
    cpu_set_t allowed_;
    int pollCpu_ = -1;
    bool pinned_ = false;
    bool ok_ = false;
};

/**
 * Keeps one CPU from going idle while it lives: a SCHED_IDLE thread
 * spinning there, which any ordinary thread preempts at once. A
 * wake-up of the daemon's poll thread then reaches a running CPU
 * instead of a halted one. No-op for cpu < 0.
 */
class Spinner
{
  public:
    explicit Spinner(int cpu)
    {
        if (cpu < 0)
            return;
        thread_ = std::thread([this, cpu] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            ::sched_setaffinity(0, sizeof one, &one);
            sched_param param{};
            ::sched_setscheduler(0, SCHED_IDLE, &param);
            while (!stop_.load(std::memory_order_relaxed)) {
            }
        });
    }
    ~Spinner()
    {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable())
            thread_.join();
    }
    Spinner(const Spinner&) = delete;
    Spinner& operator=(const Spinner&) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

double
number(const Json& doc, const char* key)
{
    const Json* v = doc.find(key);
    return v ? v->asDouble() : 0.0;
}

} // namespace

Round
serveMixRound(const RoundCtx& ctx, Tracer& tr)
{
    Round round;
    const Nanos t0 = nowNs();
    const int roundSpan = tr.begin("round", 0);

    // ---- set-up: script, daemon bind + threads, connections ----
    const std::vector<Entry> script = makeScript(ctx.seed, ctx.scale);

    serve::ServeOptions opts;
    opts.socketPath = "serve-" + std::to_string(ctx.index) +
                      (ctx.scale < 1 ? "-fill" : "") + ".sock";
    opts.threads = 2;
    opts.queueDepth = 64;
    opts.ratePerSecond = 0;
    opts.warmupCycles = kWarmupCycles;
    serve::ServeDaemon daemon(opts);
    const std::set<pid_t> before = threadIds();
    {
        Scope s(tr, "serve.start", 0);
        daemon.start();
    }
    const Placement placement(before);
    if (!placement.ok())
        round.notes.push_back("could not pin the daemon's threads");
    std::vector<Conn> conns(2);
    for (Conn& c : conns)
        c.fd = connectTo(opts.socketPath);

    // ---- timed: the script, closed loop ----
    const Nanos t1 = nowNs();
    const double cpu0 = cpuSeconds();
    round.setupS = secondsBetween(t0, t1);

    std::vector<std::uint64_t> hashes(script.size(), 0);
    std::vector<bool> answered(script.size(), false);
    std::size_t next = 0, done = 0, lastReply = 1;
    bool broken = false;
    for (const Conn& c : conns)
        broken = broken || c.fd < 0;

    std::unique_ptr<Spinner> spinner;
    auto sendNext = [&](Conn& c) {
        if (next >= script.size() || c.inflight >= 0)
            return;
        if (next > 0 && script[next].phase != script[next - 1].phase &&
            done < next)
            return; // phase barrier
        const bool hit = script[next].ref >= 0;
        if (hit && done < next)
            return; // hits one at a time
        if (hit && !spinner && placement.pollCpu() >= 0)
            spinner = std::make_unique<Spinner>(placement.pollCpu());
        if (!hit)
            spinner.reset();
        c.inflight = static_cast<int>(next);
        c.sentAt = nowNs();
        if (!sendLine(c.fd, script[next].line))
            broken = true;
        ++next;
    };
    auto onReply = [&](Conn& c, const std::string& line) {
        const Nanos at = nowNs();
        const std::size_t k = static_cast<std::size_t>(c.inflight);
        c.inflight = -1;
        const Entry& e = script[k];
        const double ms = secondsBetween(c.sentAt, at) * 1e3;
        ++round.attempted;
        ++done;
        answered[k] = true;
        bool ok = false, cached = false;
        std::uint64_t hash = 0;
        double computeS = 0, instructions = 0;
        try {
            const Json doc = Json::parse(line);
            const Json* okField = doc.find("ok");
            ok = okField && okField->asBool();
            if (ok) {
                cached = doc.find("cached")->asBool();
                hash = std::stoull(doc.find("result_hash")->asString(),
                                   nullptr, 16);
                computeS = number(doc, "wall_seconds");
                instructions = number(doc, "instructions");
            }
        } catch (const std::exception&) {
            ok = false;
        }
        const bool wantHit = e.ref >= 0;
        if (!ok || cached != wantHit ||
            (wantHit && hash != hashes[static_cast<std::size_t>(e.ref)])) {
            ++round.failed;
            round.notes.push_back("FAILED request " + std::to_string(k) +
                                  ": " + line.substr(0, 160));
        }
        hashes[k] = hash;
        round.opMs.push_back(ms);
        round.classMs[cached ? "hit" : "miss"].push_back(ms);
        if (cached) {
            tr.sample("serve.hit_ms", ms);
            tr.record("serve.hit", c.sentAt, at, k + 1);
        } else {
            round.instructions += instructions;
            tr.sample("serve.miss_ms", ms);
            tr.sample("serve.compute_ms", computeS * 1e3);
            tr.sample("serve.queue_ms", ms - computeS * 1e3);
            tr.record(e.build ? "serve.miss.build" : "serve.miss",
                      c.sentAt, at, k + 1);
        }
    };

    for (Conn& c : conns) {
        if (!broken)
            sendNext(c);
    }
    Nanos lastProgress = nowNs();
    while (!broken && done < script.size()) {
        // Hit phases (the spinner exists only then): the client
        // busy-polls and the poll thread's CPU is kept running, so
        // no hit waits for a CPU to wake.
        const bool spin = spinner != nullptr;
        pollfd fds[2];
        for (int i = 0; i < 2; ++i)
            fds[i] = {conns[static_cast<std::size_t>(i)].fd, POLLIN, 0};
        const int ready = ::poll(fds, 2, spin ? 0 : 60'000);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0 && spin &&
            secondsBetween(lastProgress, nowNs()) < 60)
            continue;
        if (ready <= 0) {
            broken = true;
            break;
        }
        lastProgress = nowNs();
        for (int i = 0; i < 2; ++i) {
            Conn& c = conns[static_cast<std::size_t>(i)];
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!readSome(c)) {
                broken = true;
                break;
            }
            std::string line;
            while (c.inflight >= 0 && popLine(c, line)) {
                onReply(c, line);
                lastReply = static_cast<std::size_t>(i);
            }
        }
        // The connection that did not just reply goes first, so
        // one-at-a-time hits alternate between the two.
        sendNext(conns[1 - lastReply]);
        sendNext(conns[lastReply]);
    }
    spinner.reset();
    round.cpuS = cpuSeconds() - cpu0;
    round.wallS = secondsBetween(t1, nowNs());

    // ---- after the clock: daemon counters, shutdown ----
    if (!broken) {
        std::string reply;
        serve::Request stats;
        stats.op = serve::RequestOp::Stats;
        Scope s(tr, "serve.stats", 0);
        if (roundTrip(conns[0], serve::encodeRequest(stats), reply)) {
            const Json doc = Json::parse(reply);
            const Json* cache = doc.find("cache");
            tr.sample("serve.hit_ratio",
                      cache ? number(*cache, "hit_rate") : 0.0);
            tr.add("serve.warm_builds", number(doc, "warm_builds"));
            tr.add("serve.shed", number(doc, "shed_queue_full"));
        }
    }
    for (Conn& c : conns) {
        if (c.fd >= 0)
            ::close(c.fd);
    }
    daemon.stop();
    std::error_code ec;
    std::filesystem::remove(opts.socketPath, ec);

    for (std::size_t k = 0; k < script.size(); ++k) {
        if (!answered[k]) {
            ++round.attempted;
            ++round.failed;
        }
        round.digest = foldDigest(round.digest, hashes[k]);
    }
    if (broken)
        round.notes.push_back("FAILED: connection to the daemon broke");
    std::size_t hitCount = 0;
    for (const Entry& e : script)
        hitCount += e.ref >= 0 ? 1 : 0;
    round.notes.push_back(
        "script " + std::to_string(script.size()) + " requests: " +
        std::to_string(hitCount) + " hits, " +
        std::to_string(script.size() - hitCount) +
        " misses (6 warm-pool builds) in " +
        std::to_string(script.back().phase) + " phases, 2 connections, "
        "closed loop");
    tr.end(roundSpan);
    return round;
}

/** serve.codec_us: encodeRequest + parseRequest + reply JSON parse
 * per script line, on the serve-mix script of `seed`. */
void
serveCodecProbe(std::uint64_t seed, Tracer& tr)
{
    const std::vector<Entry> script = makeScript(seed, 1.0);
    const std::string reply =
        "{\"benchmark\":\"eon\",\"cached\":true,\"cycles\":200000,"
        "\"instructions\":331234,\"ipc\":1.65617,\"ok\":true,"
        "\"op\":\"run\",\"result_hash\":\"0x1234567890abcdef\","
        "\"seed\":\"0x1f2e3d4c\",\"stall_cycles\":0,\"wall_seconds\":0,"
        "\"warm\":true}";
    Scope s(tr, "probe.serve_codec", 0);
    for (int rep = 0; rep < 5; ++rep) {
        std::size_t sink = 0;
        const Nanos a = nowNs();
        for (int iter = 0; iter < 20; ++iter) {
            for (const Entry& e : script) {
                const std::string line = serve::encodeRequest(e.req);
                const serve::Request back = serve::parseRequest(line);
                const Json doc = Json::parse(reply);
                sink += line.size() + back.benchmark.size() +
                        (doc.find("ok") ? 1 : 0);
            }
        }
        const Nanos b = nowNs();
        g_codecSink = g_codecSink + sink;
        tr.sample("serve.codec_us",
                  static_cast<double>(b - a) * 1e-3 /
                      (20.0 * static_cast<double>(script.size())));
    }
}

} // namespace perfbench
