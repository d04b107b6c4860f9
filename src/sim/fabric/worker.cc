#include "sim/fabric/worker.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "sim/checkpoint/checkpoint.hh"
#include "sim/checkpoint/stateio.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/sim_config_io.hh"

namespace tempest
{
namespace fabric
{

namespace
{

/** Write the whole buffer, retrying on EINTR/short writes.
 * MSG_NOSIGNAL: a vanished coordinator is an orderly exit(1),
 * not SIGPIPE. */
bool
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeLine(int fd, const std::string& line)
{
    return writeAll(fd, line + "\n");
}

} // namespace

FabricResult
executeJob(const FabricJob& job)
{
    FabricResult res;
    res.index = job.index;
    // det:allow(wallSeconds metric only; never feeds simulation state)
    const auto start = std::chrono::steady_clock::now();
    try {
        SimConfig config = simConfigFromConfig(job.config);
        config.runSeed = job.seed;
        if (job.kind == FabricJob::Kind::Warm) {
            // Build the benchmark's warm snapshot and publish it
            // atomically; the checksum of the snapshot bytes lets
            // the coordinator (and tests) fingerprint warm state.
            const std::string bytes =
                experiments::warmSnapshot(config, job.benchmark,
                                          job.seed, job.cycles);
            writeCheckpointFile(job.snapshotPath, bytes);
            res.resultHash =
                checksum64(bytes.data(), bytes.size());
        } else {
            // An empty snapshot path is a cold run.
            const std::string snapshot =
                job.snapshotPath.empty()
                    ? std::string()
                    : readCheckpointFile(job.snapshotPath);
            res.result = experiments::runFromSnapshot(
                config, job.benchmark, job.seed, snapshot,
                job.cycles, job.resetMeasurement);
            res.resultHash =
                experiments::hashSimResult(res.result);
            res.hasResult = true;
        }
        res.ok = true;
    } catch (const std::exception& e) {
        res.error = e.what();
    } catch (...) {
        res.error = "unknown exception";
    }
    res.wallSeconds =
        std::chrono::duration<double>(
            // det:allow(wallSeconds metric only; never feeds simulation state)
            std::chrono::steady_clock::now() - start)
            .count();
    return res;
}

int
workerMain(int fd)
{
    if (!writeLine(fd, encodeHello(static_cast<long>(::getpid()))))
        return 1;

    std::string buffer;
    char chunk[4096];
    for (;;) {
        // Drain complete lines before reading more: a single
        // read() can deliver several queued messages.
        const std::size_t nl = buffer.find('\n');
        if (nl == std::string::npos) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return 1;
            }
            if (n == 0)
                return 0; // coordinator went away
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (line.empty())
            continue;

        FabricResult res;
        try {
            const serve::Json doc = serve::Json::parse(line);
            const std::string op =
                doc.find("op") ? doc.find("op")->asString()
                               : std::string();
            if (op == "shutdown")
                return 0;
            if (op != "job") {
                warn("fabric worker: ignoring op '", op, "'");
                continue;
            }
            res = executeJob(parseJob(doc));
        } catch (const std::exception& e) {
            // Malformed message: report and keep serving. The
            // index may be unknown; 0 with ok=false is still a
            // visible failure on the coordinator side.
            res.ok = false;
            res.error = e.what();
        }
        if (!writeLine(fd, encodeResult(res)))
            return 1;
    }
}

} // namespace fabric
} // namespace tempest
