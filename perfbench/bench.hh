/**
 * @file
 * Shared declarations of the simulator benchmark (perfbench/README.md):
 * host-time helpers, the output checks and the per-layer replays.
 */

#ifndef CCSIM_PERFBENCH_BENCH_HH
#define CCSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "cpu/trace.hh"
#include "dram/command.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "trace/sampling.hh"

namespace perfbench {

using namespace ccsim;

inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Whether `scheme` runs an HCRAC (ChargeCache, alone or with NUAT). */
inline bool
hasHcrac(sim::Scheme scheme)
{
    return scheme == sim::Scheme::ChargeCache ||
           scheme == sim::Scheme::ChargeCacheNuat;
}

/** Median and quartiles as Python's statistics.quantiles(n=4) gives
    them (exclusive method); a single value is its own quartiles. */
struct Quartiles {
    double p25 = 0, p50 = 0, p75 = 0;
    std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> values);

// ------------------------------------------------------------ checks

/** Collects failed output checks; a run is correct when none failed. */
class Checker
{
  public:
    /** Record `failure` (a description) unless it is empty. */
    void expect(const std::string &failure, const std::string &where);
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }
    std::size_t count() const { return checks_; }

  private:
    std::vector<std::string> failures_;
    std::size_t checks_ = 0;
};

/** One detailed simulation as the checks see it. */
struct DetailedRun {
    sim::Scheme scheme = sim::Scheme::Baseline;
    sim::SystemResult result;
    std::vector<std::uint64_t> retired; ///< Core::stats().retired.
    std::uint64_t target = 0;           ///< Per-core retire target.
    int issueWidth = 0;
};

/** Capture what the checks need from a finished System. */
DetailedRun makeDetailedRun(sim::System &system,
                            const sim::SystemResult &result);

// Each check returns "" on success, else what is wrong.
std::string checkCoreTargets(const DetailedRun &run);
std::string checkSchemeReduction(const DetailedRun &run);
std::string checkHitRateRange(const sim::SystemResult &r);
std::string checkLlcIdentity(const sim::SystemResult &r);
std::string checkWritesEqualWritebacks(const sim::SystemResult &r);
/** The benchmark's own sum of shared/alone IPC against `claimed`. */
std::string checkWeightedSpeedup(const std::vector<double> &shared_ipc,
                                 const std::vector<double> &alone_ipc,
                                 double claimed);
/** Every SystemResult field bit-identical (first mismatch named). */
std::string checkIdentical(const sim::SystemResult &a,
                           const sim::SystemResult &b);
/** Sampled estimate within `tol` (relative) of the full detailed run. */
std::string checkSampledIpc(const trace::SampledResult &s,
                            const sim::SystemResult &full, double tol);
std::string checkSampledHcrac(const trace::SampledResult &s,
                              const sim::SystemResult &full, double tol);

/** All per-run detailed checks at once. */
void checkDetailed(Checker &c, const DetailedRun &run,
                   const std::string &where);

/**
 * Feed each check a deliberately corrupted copy of a valid result and
 * confirm it fails (and that the uncorrupted input passes). `single`
 * and `eight` are real runs of this process; `sampled`/`full` a real
 * sampled/full pair (may be null when the workload has none).
 */
void selfTest(Checker &c, const DetailedRun &single,
              const DetailedRun &eight,
              const trace::SampledResult *sampled,
              const sim::SystemResult *full);

// ------------------------------------------------------- layer replays

/** A trace source that counts (and optionally records) what it hands
    to the core; the inner source stays owned by the caller. */
class CountingSource : public cpu::TraceSource
{
  public:
    CountingSource(cpu::TraceSource &inner,
                   std::vector<cpu::TraceRecord> *capture = nullptr,
                   std::size_t capture_limit = 0)
        : inner_(inner), capture_(capture), limit_(capture_limit)
    {
    }

    bool
    next(cpu::TraceRecord &record) override
    {
        if (!inner_.next(record))
            return false;
        ++records_;
        if (capture_ && capture_->size() < limit_)
            capture_->push_back(record);
        return true;
    }

    void reset() override { inner_.reset(); }

    std::uint64_t records() const { return records_; }

  private:
    cpu::TraceSource &inner_;
    std::vector<cpu::TraceRecord> *capture_;
    std::size_t limit_;
    std::uint64_t records_ = 0;
};

/** One DRAM command as a CommandListener saw it. */
struct CapturedCommand {
    dram::Command cmd;
    Cycle cycle = 0;
    dram::EffActTiming eff;
};

/** Streams captured from one detailed simulation. */
struct Capture {
    sim::SimConfig config;
    std::vector<std::vector<cpu::TraceRecord>> records; ///< Per core.
    std::vector<std::vector<CapturedCommand>> commands; ///< Per channel.
    std::vector<cpu::CoreStats> coreStats; ///< After the run.
};

/**
 * Run `config` over `sources` (one per core, not owned) with a
 * recording TraceSource wrapper and a CommandListener on every
 * channel, keeping at most `record_limit` records per core.
 */
Capture captureStreams(const sim::SimConfig &config,
                       const std::vector<cpu::TraceSource *> &sources,
                       std::size_t record_limit);

/** Host cost per event of each layer, replayed in isolation. */
struct LayerCosts {
    double cpuTickNs = 0;
    double memAccessNs = 0;
    double ctrlTickNs = 0, ctrlRequestNs = 0;
    double probeNs = 0;
    double energyCommandNs = 0;
    std::uint64_t energyCommands = 0;
};

LayerCosts replayLayers(const Capture &capture);

/** ns per record of pulling `records` records from each source. */
double timeSourceNext(const std::vector<cpu::TraceSource *> &sources,
                      std::uint64_t records);

/** Write each core's captured records to `dir`/<stem><core>.cctr;
    returns the paths. */
std::vector<std::string>
writeTraces(const std::vector<std::vector<cpu::TraceRecord>> &records,
            const std::string &dir, const std::string &stem);

/** ns per record of streaming every file with a TraceReader. */
double timeTraceRead(const std::vector<std::string> &paths);

} // namespace perfbench

#endif // CCSIM_PERFBENCH_BENCH_HH
