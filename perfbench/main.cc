/**
 * @file
 * The simulator benchmark: one process runs one workload as a closed
 * loop of whole rounds for a fixed wall time and prints host-side
 * metrics as one JSON line (perfbench/README.md).
 *
 *   perfbench --workload <fig7-sweep|long-8core|sampled-trace>
 *             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 reports the
 * per-layer metrics from spans around the benchmark's own calls into
 * each layer, counters read from the results, and standalone replays.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "dram/addr.hh"
#include "sim/experiment.hh"
#include "trace/datacenter.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"

extern char **environ;

namespace perfbench {
namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have[5] = {};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") {
            o.workload = val;
            have[0] = true;
        } else if (key == "--seed") {
            o.seed = std::stoull(val);
            have[1] = true;
        } else if (key == "--seconds") {
            o.seconds = std::stod(val);
            have[2] = true;
        } else if (key == "--trace") {
            o.trace = val == "1";
            have[3] = true;
        } else if (key == "--workdir") {
            o.workdir = val;
            have[4] = true;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (argc % 2 == 0 || !have[0] || !have[1] || !have[2] || !have[3] ||
        !have[4])
        throw std::invalid_argument(
            "usage: perfbench --workload W --seed N --seconds S "
            "--trace 0|1 --workdir DIR");
    return o;
}

/**
 * The benchmark pins its own scale: drop every CCSIM_* knob the caller
 * may have set, then set the two that sim::aloneIpc / runSingle read so
 * the library's weighted-speedup path runs at the benchmark's scale.
 */
void
pinEnvironment(const sim::ExpScale &scale)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "CCSIM_", 6) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("CCSIM_INSTS", std::to_string(scale.insts).c_str(), 1);
    setenv("CCSIM_WARMUP", std::to_string(scale.warmup).c_str(), 1);
}

int
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/**
 * The process's own RSS high-water mark (VmHWM). getrusage's ru_maxrss
 * is not used: Linux carries it across execve, so it would read the
 * launching Python process's RSS whenever the benchmark's is lower.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    double kb = -1;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return kb / 1024.0;
}

const sim::Scheme kSchemes[] = {
    sim::Scheme::Baseline, sim::Scheme::Nuat, sim::Scheme::ChargeCache,
    sim::Scheme::ChargeCacheNuat, sim::Scheme::LlDram};

/** The synthetic sources System(config, names) builds for itself, made
    here so a wrapper can sit between them and the cores. */
std::vector<std::unique_ptr<workloads::SyntheticTrace>>
makeSyntheticSources(const sim::SimConfig &cfg,
                     const std::vector<std::string> &names)
{
    const dram::DramSpec spec = cfg.buildSpec();
    const Addr capacity =
        dram::AddressMapper(spec.org, cfg.mapping).numLines();
    const Addr region = capacity / static_cast<Addr>(cfg.nCores);
    std::vector<std::unique_ptr<workloads::SyntheticTrace>> out;
    for (int i = 0; i < cfg.nCores; ++i)
        out.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::profileByName(names[i]),
            cfg.seed + 0x9E37 * (i + 1), region * i, capacity));
    return out;
}

// ------------------------------------------------------------ results

/** What one operation reports back to the round loop. */
struct OpOutcome {
    double insts = 0;  ///< Simulated instructions the result covers.
    double cycles = 0; ///< Simulated CPU cycles the result covers.
    double buildS = 0, runS = 0; ///< Traced mode only.
};

/** Per-layer counters summed over one round (traced mode). */
struct Counters {
    double records = 0;
    double retired = 0, windowFull = 0, blocked = 0;
    mem::LlcStats llc;
    ctrl::CtrlStats ctrl;
    double acts = 0, reducedActs = 0;
    double hcracActs = 0, hcracHits = 0;
    double detailedInsts = 0, functionalInsts = 0, clusters = 0;

    void
    addSystem(const sim::SystemResult &r)
    {
        const mem::LlcStats &l = r.llc;
        llc.accesses += l.accesses;
        llc.hits += l.hits;
        llc.misses += l.misses;
        llc.mshrMerges += l.mshrMerges;
        llc.writebacks += l.writebacks;
        llc.blockedMshr += l.blockedMshr;
        llc.blockedMemQueue += l.blockedMemQueue;
        ctrl.reads += r.ctrl.reads;
        ctrl.writes += r.ctrl.writes;
        ctrl.rowHits += r.ctrl.rowHits;
        ctrl.rowConflicts += r.ctrl.rowConflicts;
        ctrl.refs += r.ctrl.refs;
        ctrl.readLatencySum += r.ctrl.readLatencySum;
        const double a = static_cast<double>(r.activations);
        acts += a;
        reducedActs += a * r.providerHitRate;
    }

    void
    addCore(const cpu::CoreStats &s)
    {
        retired += s.retired;
        windowFull += s.stallCyclesFull;
        blocked += s.blockedAccesses;
    }

    void
    addCores(sim::System &sys)
    {
        for (int i = 0; i < sys.config().nCores; ++i)
            addCore(sys.core(i).stats());
    }

    void
    addHcrac(sim::Scheme scheme, const sim::SystemResult &r)
    {
        if (!hasHcrac(scheme))
            return;
        hcracActs += r.activations;
        hcracHits += r.activations * r.hcracHitRate;
    }
};

/** Counters of the first traced round; ops may add from any thread. */
class FirstRoundCounters
{
  public:
    /** Call `fill(counters)` if `round` is the first traced round. */
    template <class Fill>
    void
    add(std::size_t round, Fill &&fill)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!round_)
            round_ = round;
        if (*round_ == round)
            fill(counters_);
    }

    const Counters &get() const { return counters_; }

  private:
    std::mutex mutex_;
    std::optional<std::size_t> round_;
    Counters counters_;
};

inline const sim::SystemResult &
resultOf(const DetailedRun &r)
{
    return r.result;
}

inline const sim::SystemResult &
resultOf(const trace::SampledResult &r)
{
    return r.aggregate;
}

/**
 * Round 0's result of every op. A later round's result is compared
 * with it as it arrives and then dropped, so memory does not grow with
 * the number of rounds a run completes. Rounds never overlap (the round
 * loop waits for each), so round 0 is complete before any comparison.
 */
template <class Result>
class Repeats
{
  public:
    void resize(std::size_t ops) { first_.resize(ops); }

    void
    add(std::size_t round, std::size_t i, Result r,
        const std::string &label)
    {
        if (round == 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            first_[i] = std::move(r);
            return;
        }
        const std::string diff =
            checkIdentical(resultOf(first_[i]), resultOf(r));
        std::lock_guard<std::mutex> lock(mutex_);
        ++compared_;
        if (!diff.empty())
            mismatches_.push_back(label + " round " +
                                  std::to_string(round) +
                                  " vs round 0: " + diff);
    }

    const std::vector<Result> &first() const { return first_; }

    /** One check per comparison made; each mismatch is a failure. */
    void
    report(Checker &c, const std::string &where) const
    {
        for (std::size_t i = mismatches_.size(); i < compared_; ++i)
            c.expect("", where);
        for (const std::string &m : mismatches_)
            c.expect(m, where);
    }

  private:
    std::mutex mutex_;
    std::vector<Result> first_;
    std::size_t compared_ = 0;
    std::vector<std::string> mismatches_;
};

/**
 * One System over counted synthetic sources (the ones System(config,
 * names) would build), with its build and run timed into `out` and its
 * counters added to `counters` if `round` is the first traced round.
 */
DetailedRun
runTracedSystem(const sim::SimConfig &cfg,
                const std::vector<std::string> &names, std::size_t round,
                OpOutcome &out, FirstRoundCounters &counters)
{
    const double t0 = nowS();
    auto sources = makeSyntheticSources(cfg, names);
    std::vector<std::unique_ptr<CountingSource>> counted;
    std::vector<cpu::TraceSource *> raw;
    for (auto &s : sources) {
        counted.push_back(std::make_unique<CountingSource>(*s));
        raw.push_back(counted.back().get());
    }
    sim::System sys(cfg, raw);
    const double t1 = nowS();
    const sim::SystemResult r = sys.run();
    out.runS = nowS() - t1;
    out.buildS = t1 - t0;
    counters.add(round, [&](Counters &c) {
        for (auto &s : counted)
            c.records += s->records();
        c.addSystem(r);
        c.addCores(sys);
        c.addHcrac(cfg.scheme, r);
        c.detailedInsts += cfg.nCores * (cfg.warmupInsts + cfg.targetInsts);
    });
    return makeDetailedRun(sys, r);
}

/** Everything a workload reports in traced mode besides the spans. */
struct LayerReport {
    Counters counters;
    LayerCosts costs;
    double nextNs = 0;
    double traceWriteS = 0, traceReadNs = 0;
};

/**
 * Replays of the streams of one synthetic System (`cfg` over `names`),
 * source next() timed on fresh generators, and the captured records
 * written to CCTR files in `workdir` (removed again) and read back.
 */
LayerReport
syntheticLayers(const sim::SimConfig &cfg,
                const std::vector<std::string> &names,
                const std::string &workdir, const std::string &stem)
{
    LayerReport rep;
    auto sources = makeSyntheticSources(cfg, names);
    std::vector<cpu::TraceSource *> raw;
    for (auto &s : sources)
        raw.push_back(s.get());
    const Capture cap = captureStreams(cfg, raw, 1u << 22);
    rep.costs = replayLayers(cap);
    auto fresh = makeSyntheticSources(cfg, names);
    raw.clear();
    for (auto &s : fresh)
        raw.push_back(s.get());
    rep.nextNs = timeSourceNext(raw, 200000);
    const double t0 = nowS();
    const auto paths = writeTraces(cap.records, workdir, stem);
    rep.traceWriteS = nowS() - t0;
    rep.traceReadNs = timeTraceRead(paths);
    for (const auto &path : paths)
        std::remove(path.c_str());
    return rep;
}

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual int threads() const = 0;
    /** One set-up sample; the round loop takes one before every round
        and setup_s is their median. */
    virtual void setup() = 0;
    virtual std::size_t opsPerRound() const = 0;
    /** Run op `i` of round `round`; must be thread-safe across ops. */
    virtual OpOutcome runOp(std::size_t round, std::size_t i,
                            bool traced) = 0;
    /**
     * The output checks. Returns how many ops of every round failed:
     * their outputs miss an accuracy check that the program is known
     * to fail. Every round repeats round 0 bit for bit (checked), so
     * the same ops fail in every round.
     */
    virtual std::size_t check(Checker &c) = 0;
    /** Counters of one traced round plus the replays. */
    virtual LayerReport layers(const std::string &workdir) = 0;
    /** Free-form simulated figures for the stats line. */
    virtual std::string simulatedSummary() const { return "{}"; }
};

// --------------------------------------------------------- fig7-sweep

/** Fig. 7 sweep at the benchmark's scale (pinned, see README). */
class Fig7Sweep : public Workload
{
  public:
    static sim::ExpScale
    scale()
    {
        sim::ExpScale s;
        s.insts = 20000;
        s.warmup = 2000;
        return s;
    }

    explicit Fig7Sweep(std::uint64_t seed) : seed_(seed)
    {
        for (int mix = 1; mix <= 20; ++mix)
            for (sim::Scheme s : kSchemes)
                points_.push_back({Kind::Eight, mix, "", s});
        for (const std::string &w : workloads::allProfileNames())
            for (sim::Scheme s : kSchemes)
                points_.push_back({Kind::Single, 0, w, s});
        std::vector<std::string> alone;
        for (int mix = 1; mix <= 20; ++mix)
            for (const std::string &w : workloads::mixWorkloads(mix))
                alone.push_back(w);
        std::sort(alone.begin(), alone.end());
        alone.erase(std::unique(alone.begin(), alone.end()), alone.end());
        for (const std::string &w : alone)
            points_.push_back({Kind::Alone, 0, w, sim::Scheme::Baseline});
        repeats_.resize(points_.size());
    }

    int threads() const override { return benchThreads(); }

    void
    setup() override
    {
        // Set-up = building every System of one sweep (configs,
        // synthetic sources, LLC/DRAM/HCRAC state) without running it.
        for (const Point &p : points_) {
            sim::SimConfig cfg = config(p);
            sim::System sys(cfg, names(p));
        }
    }

    std::size_t opsPerRound() const override { return points_.size(); }

    OpOutcome
    runOp(std::size_t round, std::size_t i, bool traced) override
    {
        const Point &p = points_[i];
        const sim::SimConfig cfg = config(p);
        OpOutcome out;
        DetailedRun run;
        if (!traced) {
            sim::System sys(cfg, names(p));
            run = makeDetailedRun(sys, sys.run());
        } else {
            run = runTracedSystem(cfg, names(p), round, out, counters_);
        }
        out.insts = static_cast<double>(cfg.nCores) * cfg.targetInsts;
        out.cycles = static_cast<double>(run.result.cpuCycles);
        repeats_.add(round, i, std::move(run), label(p));
        return out;
    }

    std::size_t
    check(Checker &c) override
    {
        const std::vector<DetailedRun> &first = repeats_.first();
        std::map<std::string, const DetailedRun *> base, alone;
        for (std::size_t i = 0; i < points_.size(); ++i) {
            checkDetailed(c, first[i], label(points_[i]));
            if (points_[i].kind == Kind::Single &&
                points_[i].scheme == sim::Scheme::Baseline)
                base[points_[i].workload] = &first[i];
            if (points_[i].kind == Kind::Alone)
                alone[points_[i].workload] = &first[i];
        }
        // Every later round repeats the first bit for bit.
        repeats_.report(c, "fig7-sweep repeats");
        // The alone-IPC runs are the single-core Baseline points.
        for (const auto &[w, run] : alone)
            c.expect(checkIdentical(run->result, base.at(w)->result),
                     "alone " + w + " vs single-core Baseline");

        // Weighted speedup: the library's sim::weightedSpeedup (memoised
        // alone IPCs at the default seed and the pinned scale) against
        // the benchmark's own sum over alone runs it makes itself.
        const sim::ExpScale sc = scale();
        for (int mix = 1; mix <= 20; ++mix) {
            const auto mixNames = workloads::mixWorkloads(mix);
            sim::SimConfig cfg =
                sim::makeEightConfig(sim::Scheme::Baseline, sc);
            sim::System sys(cfg, mixNames);
            const sim::SystemResult r = sys.run();
            std::vector<double> aloneIpc;
            for (const std::string &w : mixNames) {
                sim::System single(
                    sim::makeSingleConfig(sim::Scheme::Baseline, sc),
                    std::vector<std::string>{w});
                aloneIpc.push_back(single.run().ipc.at(0));
            }
            c.expect(checkWeightedSpeedup(
                         r.ipc, aloneIpc,
                         sim::weightedSpeedup(mixNames, r.ipc)),
                     "weighted speedup w" + std::to_string(mix));
        }

        // A short run of one single-core and one 8-core point of every
        // scheme on the PerCycle reference kernel matches Calendar.
        sim::ExpScale shortScale;
        shortScale.insts = 4000;
        shortScale.warmup = 400;
        for (sim::Scheme s : kSchemes)
            for (bool eight : {false, true}) {
                sim::SimConfig cfg =
                    eight ? sim::makeEightConfig(s, shortScale)
                          : sim::makeSingleConfig(s, shortScale);
                cfg.seed = seed_;
                const std::vector<std::string> n =
                    eight ? workloads::mixWorkloads(1)
                          : std::vector<std::string>{"mcf"};
                sim::System cal(cfg, n);
                const sim::SystemResult a = cal.run();
                cfg.kernel = sim::KernelMode::PerCycle;
                sim::System ref(cfg, n);
                c.expect(checkIdentical(a, ref.run()),
                         std::string("PerCycle vs Calendar ") +
                             sim::schemeName(s) +
                             (eight ? " 8-core" : " 1-core"));
            }

        selfTest(c, first[points_.size() - 1], first[0], nullptr,
                 nullptr);
        return 0;
    }

    LayerReport
    layers(const std::string &workdir) override
    {
        // Replays from mix w1 under ChargeCache.
        const Point p{Kind::Eight, 1, "", sim::Scheme::ChargeCache};
        LayerReport rep =
            syntheticLayers(config(p), names(p), workdir, "fig7_c");
        rep.counters = counters_.get();
        return rep;
    }

    std::string
    simulatedSummary() const override
    {
        // Fig. 7 averages (geometric mean of per-point speedups) of the
        // first round, for the README's comparison with the paper.
        const std::vector<DetailedRun> &first = repeats_.first();
        std::map<std::string, double> aloneIpc;
        for (std::size_t i = 0; i < points_.size(); ++i)
            if (points_[i].kind == Kind::Alone)
                aloneIpc[points_[i].workload] = first[i].result.ipc.at(0);
        std::map<std::pair<int, std::string>, double> value; // base
        double logSum[2][5] = {};
        int count[2][5] = {};
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t i = 0; i < points_.size(); ++i) {
                const Point &p = points_[i];
                if (p.kind == Kind::Alone)
                    continue;
                double v = 0;
                if (p.kind == Kind::Single) {
                    v = first[i].result.ipc.at(0);
                } else {
                    const auto n = workloads::mixWorkloads(p.mix);
                    for (std::size_t c = 0; c < n.size(); ++c)
                        v += first[i].result.ipc[c] / aloneIpc.at(n[c]);
                }
                const int k = p.kind == Kind::Eight;
                const auto key = std::make_pair(p.mix, p.workload);
                if (pass == 0 && p.scheme == sim::Scheme::Baseline)
                    value[key] = v;
                if (pass == 1) {
                    const int s = static_cast<int>(
                        std::find(std::begin(kSchemes),
                                  std::end(kSchemes), p.scheme) -
                        std::begin(kSchemes));
                    logSum[k][s] += std::log(v / value.at(key));
                    ++count[k][s];
                }
            }
        std::string out = "{";
        for (int k = 0; k < 2; ++k)
            for (int s = 1; s < 5; ++s) {
                char buf[128];
                std::snprintf(buf, sizeof buf, "%s\"%s %s\": %.4f",
                              out.size() > 1 ? ", " : "",
                              k ? "8-core" : "1-core",
                              sim::schemeName(kSchemes[s]),
                              100 * (std::exp(logSum[k][s] / count[k][s]) -
                                     1));
                out += buf;
            }
        return out + "}";
    }

  private:
    enum class Kind { Eight, Single, Alone };
    struct Point {
        Kind kind;
        int mix;
        std::string workload;
        sim::Scheme scheme;
    };

    sim::SimConfig
    config(const Point &p) const
    {
        sim::SimConfig cfg = p.kind == Kind::Eight
                                 ? sim::makeEightConfig(p.scheme, scale())
                                 : sim::makeSingleConfig(p.scheme, scale());
        cfg.seed = seed_;
        return cfg;
    }

    static std::vector<std::string>
    names(const Point &p)
    {
        return p.kind == Kind::Eight ? workloads::mixWorkloads(p.mix)
                                     : std::vector<std::string>{p.workload};
    }

    static std::string
    label(const Point &p)
    {
        const char *k = p.kind == Kind::Eight    ? "8-core w"
                        : p.kind == Kind::Single ? "1-core "
                                                 : "alone ";
        return std::string(k) +
               (p.kind == Kind::Eight ? std::to_string(p.mix)
                                      : p.workload) +
               " " + sim::schemeName(p.scheme);
    }

    std::uint64_t seed_;
    std::vector<Point> points_;
    Repeats<DetailedRun> repeats_;
    FirstRoundCounters counters_;
};

// --------------------------------------------------------- long-8core

/** One memory-intensive 8-core mix under ChargeCache, run serially. */
class Long8Core : public Workload
{
  public:
    static constexpr int kMix = 18; ///< Highest RMPKC of w1..w20.

    explicit Long8Core(std::uint64_t seed)
    {
        sim::ExpScale s;
        s.insts = 200000;
        s.warmup = 20000;
        cfg_ = sim::makeEightConfig(sim::Scheme::ChargeCache, s);
        cfg_.seed = seed;
        names_ = workloads::mixWorkloads(kMix);
        repeats_.resize(1);
    }

    int threads() const override { return 1; }

    /** One build takes about 0.2 ms, too short to time steadily alone;
        a set-up sample is this many builds. */
    static constexpr int kBuildsPerSetup = 20;

    void
    setup() override
    {
        for (int i = 0; i < kBuildsPerSetup; ++i)
            sim::System sys(cfg_, names_);
    }

    std::size_t opsPerRound() const override { return 1; }

    OpOutcome
    runOp(std::size_t round, std::size_t, bool traced) override
    {
        OpOutcome out;
        DetailedRun run;
        if (!traced) {
            sim::System sys(cfg_, names_);
            run = makeDetailedRun(sys, sys.run());
        } else {
            run = runTracedSystem(cfg_, names_, round, out, counters_);
        }
        out.insts = static_cast<double>(cfg_.nCores) * cfg_.targetInsts;
        out.cycles = static_cast<double>(run.result.cpuCycles);
        repeats_.add(round, 0, std::move(run), "long-8core op");
        return out;
    }

    std::size_t
    check(Checker &c) override
    {
        const DetailedRun &first = repeats_.first().front();
        checkDetailed(c, first, "long-8core op 0");
        repeats_.report(c, "long-8core repeats");
        // The self-test also needs a single-core run.
        sim::ExpScale s;
        s.insts = 20000;
        s.warmup = 2000;
        sim::SimConfig one = sim::makeSingleConfig(sim::Scheme::Baseline, s);
        one.seed = cfg_.seed;
        sim::System sys(one, std::vector<std::string>{names_.front()});
        const DetailedRun single = makeDetailedRun(sys, sys.run());
        checkDetailed(c, single, "long-8core self-test input");
        selfTest(c, single, first, nullptr, nullptr);
        return 0;
    }

    LayerReport
    layers(const std::string &workdir) override
    {
        LayerReport rep = syntheticLayers(cfg_, names_, workdir, "long_c");
        rep.counters = counters_.get();
        return rep;
    }

    std::string
    simulatedSummary() const override
    {
        const sim::SystemResult &r = repeats_.first().front().result;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"ipc_sum\": %.4f, \"hcrac_hit_rate\": %.4f, "
                      "\"rmpkc\": %.3f}",
                      r.ipcSum(), r.hcracHitRate, r.rmpkc);
        return buf;
    }

  private:
    sim::SimConfig cfg_;
    std::vector<std::string> names_;
    Repeats<DetailedRun> repeats_;
    FirstRoundCounters counters_;
};

// ------------------------------------------------------ sampled-trace

/** LLC-busting datacenter generators, as bench/abl_sampling.cpp
    configures them. */
std::unique_ptr<cpu::TraceSource>
datacenterSource(const std::string &name, std::uint64_t seed, Addr base,
                 Addr capacity)
{
    if (name == "kv-zipf") {
        trace::ZipfianKVConfig kv;
        kv.nKeys = 1 << 15;
        kv.valueLines = 32;
        kv.theta = 0.6;
        kv.indexLines = 1 << 14;
        kv.phaseRequests = 40000;
        return std::make_unique<trace::ZipfianKVTrace>(kv, seed, base,
                                                       capacity);
    }
    if (name == "web-fanout") {
        trace::WebTierConfig web;
        web.nUsers = 1 << 20;
        web.phaseRequests = 200000;
        return std::make_unique<trace::WebTierTrace>(web, seed, base,
                                                     capacity);
    }
    trace::AnalyticsScanConfig an;
    an.tableLines = 1 << 17;
    an.dimLines = 1 << 16;
    an.scanLinesPerPhase = 1 << 17;
    return std::make_unique<trace::AnalyticsScanTrace>(an, seed, base,
                                                       capacity);
}

/**
 * Four sampled simulations per round: three single-core datacenter
 * traces and the 8-core datacenter mix. Every trace is made from one
 * fixed seed, not --seed: whether a sampled estimate lies within the
 * tolerance of the full run depends on the seed (README "Known
 * faults"), and an operation that fails must fail in every run.
 */
class SampledTrace : public Workload
{
  public:
    static constexpr std::uint64_t kSingleInsts = 10'000'000;
    static constexpr std::uint64_t kMixInstsPerCore = 1'000'000;
    static constexpr std::uint64_t kTraceSeed = 2;
    static constexpr double kTolerance = 0.03;

    explicit SampledTrace(std::string workdir) : workdir_(std::move(workdir))
    {
        single_ = sim::SimConfig();
        single_.scheme = sim::Scheme::ChargeCache;
        single_.finalizeChargeCache();
        single_.seed = kTraceSeed;
        eight_ = sim::SimConfig::eightCore();
        eight_.scheme = sim::Scheme::ChargeCache;
        eight_.finalizeChargeCache();
        eight_.seed = kTraceSeed;
        singleSampling_.intervalInsts = 250'000;
        singleSampling_.warmupInsts = 50'000;
        singleSampling_.functionalWarmInsts = 1'000'000;
        singleSampling_.maxClusters = 10;
        mixSampling_.intervalInsts = 50'000;
        mixSampling_.warmupInsts = 10'000;
        mixSampling_.functionalWarmInsts = 200'000;
        mixSampling_.maxClusters = 6;
        repeats_.resize(std::size(kSingle) + 1);
        firstOpS_.resize(std::size(kSingle) + 1);
    }

    int threads() const override { return 1; }

    void
    setup() override
    {
        sets_.clear();
        const double t0 = nowS();
        const Addr cap1 = capacity(single_);
        for (const char *name : kSingle) {
            const std::string p = workdir_ + "/" + name + ".cctr";
            write(datacenterSource(name, kTraceSeed, 0, cap1), p,
                  kSingleInsts);
            sets_.push_back({p});
        }
        const Addr cap8 = capacity(eight_);
        std::vector<std::string> mix;
        for (int c = 0; c < eight_.nCores; ++c) {
            const std::string p =
                workdir_ + "/mix_c" + std::to_string(c) + ".cctr";
            write(datacenterSource(kMix[c], kTraceSeed + 11 * c + 1,
                                   (cap8 / eight_.nCores) * c, cap8),
                  p, kMixInstsPerCore);
            mix.push_back(p);
        }
        sets_.push_back(mix);
        writeS_.push_back(nowS() - t0);
    }

    std::size_t opsPerRound() const override { return sets_.size(); }

    OpOutcome
    runOp(std::size_t round, std::size_t i, bool traced) override
    {
        const bool isMix = i + 1 == sets_.size();
        const double t0 = nowS();
        trace::SampledSimulation sim(isMix ? eight_ : single_, sets_[i],
                                     isMix ? mixSampling_
                                           : singleSampling_);
        const double t1 = nowS();
        trace::SampledResult r = sim.run();
        OpOutcome out;
        out.buildS = t1 - t0;
        out.runS = nowS() - t1;
        out.insts = static_cast<double>(r.totalInsts);
        out.cycles = static_cast<double>(r.aggregate.cpuCycles);
        if (traced)
            counters_.add(round, [&](Counters &c) {
                for (const auto &s : r.slices)
                    c.addSystem(s.result);
                c.hcracActs += r.aggregate.activations;
                c.hcracHits +=
                    r.aggregate.activations * r.aggregate.hcracHitRate;
                c.detailedInsts += r.detailedInsts;
                c.functionalInsts += r.functionalInsts;
                c.clusters += r.clusters;
            });
        if (round == 0)
            firstOpS_[i] = nowS() - t0;
        repeats_.add(round, i, std::move(r), setName(i));
        return out;
    }

    std::size_t
    check(Checker &c) override
    {
        const std::vector<trace::SampledResult> &first = repeats_.first();
        repeats_.report(c, "sampled-trace repeats");
        for (std::size_t i = 0; i < first.size(); ++i) {
            const trace::SampledResult &s = first[i];
            DetailedRun agg;
            agg.scheme = sim::Scheme::ChargeCache;
            agg.result = s.aggregate;
            agg.issueWidth = single_.core.issueWidth;
            agg.retired.assign(s.aggregate.ipc.size(), 0);
            c.expect(checkCoreTargets(agg), setName(i) + " estimate");
            c.expect(checkHitRateRange(s.aggregate),
                     setName(i) + " estimate");
            for (std::size_t k = 0; k < s.slices.size(); ++k) {
                const std::string where =
                    setName(i) + " slice " + std::to_string(k);
                c.expect(checkLlcIdentity(s.slices[k].result), where);
                c.expect(checkWritesEqualWritebacks(s.slices[k].result),
                         where);
                c.expect(checkHitRateRange(s.slices[k].result), where);
            }
        }

        // Full detailed simulation of every trace set, in parallel.
        std::vector<DetailedRun> full(sets_.size());
        std::vector<double> fullS(sets_.size());
        {
            sim::ParallelRunner pool(benchThreads());
            for (std::size_t i = 0; i < sets_.size(); ++i)
                pool.enqueue([this, i, &full, &fullS] {
                    const double t0 = nowS();
                    const bool isMix = i + 1 == sets_.size();
                    sim::SimConfig cfg = isMix ? eight_ : single_;
                    const trace::SamplingConfig &sc =
                        isMix ? mixSampling_ : singleSampling_;
                    cfg.warmupInsts = sc.warmupInsts;
                    cfg.targetInsts =
                        (isMix ? kMixInstsPerCore : kSingleInsts) -
                        sc.warmupInsts;
                    std::vector<std::unique_ptr<trace::TraceReplaySource>>
                        src;
                    std::vector<cpu::TraceSource *> raw;
                    for (const auto &p : sets_[i]) {
                        src.push_back(
                            std::make_unique<trace::TraceReplaySource>(p));
                        raw.push_back(src.back().get());
                    }
                    sim::System sys(cfg, raw);
                    full[i] = makeDetailedRun(sys, sys.run());
                    fullS[i] = nowS() - t0;
                });
            pool.waitAll();
        }

        // An estimate that misses the full run by more than the
        // tolerance is a failed operation, not a failed benchmark run:
        // the same op fails in every round, so `failed` keeps the same
        // share of `attempted` in every run.
        std::size_t failing = 0;
        summary_.clear();
        for (std::size_t i = 0; i < sets_.size(); ++i) {
            checkDetailed(c, full[i], setName(i) + " full");
            std::string miss =
                checkSampledIpc(first[i], full[i].result, kTolerance);
            if (miss.empty())
                miss = checkSampledHcrac(first[i], full[i].result,
                                         kTolerance);
            if (!miss.empty()) {
                ++failing;
                std::fprintf(stderr, "op failed: %s: %s\n",
                             setName(i).c_str(), miss.c_str());
            }
            summary_ += (summary_.empty() ? "" : ", ") +
                        setSummary(i, first[i], full[i].result, fullS[i],
                                   miss.empty());
        }
        selfTest(c, full[0], full.back(), &first[0], &full[0].result);
        return failing;
    }

    LayerReport
    layers(const std::string &) override
    {
        LayerReport rep;
        rep.counters = counters_.get();
        // Replays and core counters from a detailed run over the head of
        // the 8-core mix traces.
        sim::SimConfig cfg = eight_;
        cfg.warmupInsts = 20'000;
        cfg.targetInsts = 200'000;
        std::vector<std::unique_ptr<trace::TraceReplaySource>> src;
        std::vector<cpu::TraceSource *> raw;
        for (const auto &p : sets_.back()) {
            src.push_back(std::make_unique<trace::TraceReplaySource>(p));
            raw.push_back(src.back().get());
        }
        const Capture cap = captureStreams(cfg, raw, 1u << 22);
        rep.costs = replayLayers(cap);
        for (const auto &r : cap.records)
            rep.counters.records += r.size();
        // SampledResult carries no core statistics; take the capture's.
        for (const cpu::CoreStats &s : cap.coreStats)
            rep.counters.addCore(s);
        const Addr cap1 = capacity(single_);
        std::vector<std::unique_ptr<cpu::TraceSource>> gens;
        std::vector<cpu::TraceSource *> graw;
        for (const char *name : kSingle) {
            gens.push_back(datacenterSource(name, kTraceSeed, 0, cap1));
            graw.push_back(gens.back().get());
        }
        rep.nextNs = timeSourceNext(graw, 200000);
        rep.traceWriteS = quartiles(writeS_).p50;
        std::vector<std::string> all;
        for (const auto &set : sets_)
            all.insert(all.end(), set.begin(), set.end());
        rep.traceReadNs = timeTraceRead(all);
        return rep;
    }

    std::string
    simulatedSummary() const override
    {
        return "{" + summary_ + "}";
    }

    ~SampledTrace() override
    {
        for (const auto &set : sets_)
            for (const auto &p : set)
                std::remove(p.c_str());
    }

  private:
    static constexpr const char *kSingle[3] = {"kv-zipf", "web-fanout",
                                               "analytics-scan"};
    static constexpr const char *kMix[8] = {
        "kv-zipf",    "kv-zipf",    "kv-zipf",        "web-fanout",
        "web-fanout", "web-fanout", "analytics-scan", "analytics-scan"};

    static Addr
    capacity(const sim::SimConfig &cfg)
    {
        return dram::AddressMapper(cfg.buildSpec().org, cfg.mapping)
            .numLines();
    }

    void
    write(std::unique_ptr<cpu::TraceSource> gen, const std::string &path,
          std::uint64_t insts)
    {
        trace::TraceWriter w(path);
        cpu::TraceRecord rec;
        while (w.meta().totalInsts < insts && gen->next(rec))
            w.append(rec);
        w.close();
    }

    std::string
    setName(std::size_t i) const
    {
        return i < 3 ? kSingle[i] : "mix-8core";
    }

    /**
     * Signed errors of one estimate against its full run, the share of
     * the trace simulated in detail, and an estimate of the share of
     * the op's wall time spent in detail: detailed instructions at the
     * full run's host speed, over round 0's op time.
     */
    std::string
    setSummary(std::size_t i, const trace::SampledResult &s,
               const sim::SystemResult &full, double full_s,
               bool passed) const
    {
        double ipcS = 0, ipcF = 0;
        for (double v : s.aggregate.ipc)
            ipcS += v;
        for (double v : full.ipc)
            ipcF += v;
        const double hs = s.aggregate.hcracHitRate;
        const double hf = full.hcracHitRate;
        const double detailed = static_cast<double>(s.detailedInsts) /
                                static_cast<double>(s.totalInsts);
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "\"%s\": {\"ipc_err_pct\": %.3f, "
                      "\"hcrac_err_pct\": %.3f, \"passed\": %s, "
                      "\"detailed_insts_pct\": %.1f, "
                      "\"functional_insts_pct\": %.1f, "
                      "\"est_detailed_time_pct\": %.0f}",
                      setName(i).c_str(), 100 * (ipcS - ipcF) / ipcF,
                      100 * (hs - hf) / hf, passed ? "true" : "false",
                      100 * detailed,
                      100.0 * s.functionalInsts / s.totalInsts,
                      100 * detailed * full_s / firstOpS_[i]);
        return buf;
    }

    std::string workdir_;
    sim::SimConfig single_, eight_;
    trace::SamplingConfig singleSampling_, mixSampling_;
    std::vector<std::vector<std::string>> sets_;
    std::vector<double> writeS_;
    std::vector<double> firstOpS_; ///< Round 0's wall time per op.
    Repeats<trace::SampledResult> repeats_;
    FirstRoundCounters counters_;
    std::string summary_;
};

// --------------------------------------------------------- round loop

struct Samples {
    std::vector<double> opWall, opBuild, opRun;
    std::vector<double> roundOps, roundInsts, roundCycles; // per second
    std::vector<double> roundBusy, roundIdle;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t rounds = 0;
};

/**
 * Whole rounds until their wall times add up to `seconds` (at least one
 * round). A set-up sample is taken before every round, outside the
 * round's time, so set-up is timed under the same host conditions as
 * the operations rather than in one burst at start.
 */
void
runRounds(Workload &w, double seconds, bool traced, std::size_t first_round,
          Samples &out, std::vector<double> &setup_s)
{
    const int threads = w.threads();
    sim::ParallelRunner pool(threads);
    std::mutex mutex;
    double measured = 0;
    do {
        const double s0 = nowS();
        w.setup();
        setup_s.push_back(nowS() - s0);
        const std::size_t round = first_round + out.rounds;
        double busy = 0, insts = 0, cycles = 0;
        std::uint64_t done = 0;
        const double r0 = nowS();
        for (std::size_t i = 0; i < w.opsPerRound(); ++i)
            pool.enqueue([&, i, round] {
                const double t0 = nowS();
                OpOutcome o;
                bool ok = true;
                try {
                    o = w.runOp(round, i, traced);
                } catch (const std::exception &e) {
                    ok = false;
                    std::fprintf(stderr, "op %zu failed: %s\n", i,
                                 e.what());
                }
                const double t = nowS() - t0;
                std::lock_guard<std::mutex> lock(mutex);
                busy += t;
                ++out.attempted;
                if (!ok) {
                    ++out.failed;
                    return;
                }
                ++done;
                insts += o.insts;
                cycles += o.cycles;
                out.opWall.push_back(t);
                out.opBuild.push_back(o.buildS);
                out.opRun.push_back(o.runS);
            });
        pool.waitAll();
        const double wall = nowS() - r0;
        measured += wall;
        out.roundOps.push_back(static_cast<double>(done) / wall);
        out.roundInsts.push_back(insts / wall / 1e6);
        out.roundCycles.push_back(cycles / wall / 1e6);
        out.roundBusy.push_back(busy);
        out.roundIdle.push_back(threads * wall - busy);
        ++out.rounds;
    } while (measured < seconds);
}

struct Metric {
    std::string name, unit;
    double value;
    Quartiles q; ///< Over the samples the value summarises.
};

std::string
jsonMetrics(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (const Metric &m : ms) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      s.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                      m.unit.c_str());
        s += buf;
    }
    return s + "}";
}

std::string
jsonQuartiles(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (const Metric &m : ms) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"n\": %zu, \"p25\": %.6g, "
                      "\"p50\": %.6g, \"p75\": %.6g}",
                      s.size() > 1 ? ", " : "", m.name.c_str(), m.q.n,
                      m.q.p25, m.q.p50, m.q.p75);
        s += buf;
    }
    return s + "}";
}

Metric
medianOf(const std::string &name, const std::string &unit,
         const std::vector<double> &v, double scale = 1.0)
{
    Quartiles q = quartiles(v);
    q.p25 *= scale;
    q.p50 *= scale;
    q.p75 *= scale;
    return {name, unit, q.p50, q};
}

Metric
single(const std::string &name, const std::string &unit, double v)
{
    Quartiles q;
    q.n = 1;
    q.p25 = q.p50 = q.p75 = v;
    return {name, unit, v, q};
}

std::vector<Metric>
layerMetrics(const Samples &traced, const Samples &untraced,
             const LayerReport &rep)
{
    const Counters &c = rep.counters;
    const LayerCosts &k = rep.costs;
    const double ctrlReads = static_cast<double>(c.ctrl.reads);
    std::vector<Metric> m = {
        medianOf("sim.build_s", "s", traced.opBuild),
        medianOf("sim.run_s", "s", traced.opRun),
        medianOf("sweep.busy_s", "s", traced.roundBusy),
        medianOf("sweep.idle_s", "s", traced.roundIdle),
        single("workloads.next_ns", "ns", rep.nextNs),
        single("workloads.records", "count", c.records),
        single("cpu.tick_ns", "ns", k.cpuTickNs),
        single("cpu.retired", "count", c.retired),
        single("cpu.window_full_cycles", "cycles", c.windowFull),
        single("cpu.blocked_accesses", "count", c.blocked),
        single("mem.access_ns", "ns", k.memAccessNs),
        single("mem.accesses", "count", c.llc.accesses),
        single("mem.hits", "count", c.llc.hits),
        single("mem.misses", "count", c.llc.misses),
        single("mem.mshr_merges", "count", c.llc.mshrMerges),
        single("mem.blocked", "count",
               c.llc.blockedMshr + c.llc.blockedMemQueue),
        single("mem.writebacks", "count", c.llc.writebacks),
        single("ctrl.tick_ns", "ns", k.ctrlTickNs),
        single("ctrl.request_ns", "ns", k.ctrlRequestNs),
        single("ctrl.reads", "count", c.ctrl.reads),
        single("ctrl.writes", "count", c.ctrl.writes),
        single("ctrl.row_hits", "count", c.ctrl.rowHits),
        single("ctrl.row_conflicts", "count", c.ctrl.rowConflicts),
        single("ctrl.refs", "count", c.ctrl.refs),
        single("ctrl.read_latency_cycles", "cycles",
               ctrlReads > 0 ? c.ctrl.readLatencySum / ctrlReads : 0.0),
        single("chargecache.probe_ns", "ns", k.probeNs),
        single("chargecache.acts", "count", c.acts),
        single("chargecache.reduced_acts", "count", c.reducedActs),
        single("chargecache.hcrac_hit_rate", "ratio",
               c.hcracActs > 0 ? c.hcracHits / c.hcracActs : 0.0),
        single("energy.command_ns", "ns", k.energyCommandNs),
        single("energy.commands", "count", k.energyCommands),
        single("trace.write_s", "s", rep.traceWriteS),
        single("trace.read_ns_per_record", "ns", rep.traceReadNs),
        single("trace.detailed_insts", "count", c.detailedInsts),
        single("trace.functional_insts", "count", c.functionalInsts),
        single("trace.clusters", "count", c.clusters),
    };
    const double base = quartiles(untraced.opWall).p50;
    const double with = quartiles(traced.opWall).p50;
    m.push_back(single("bench.trace_overhead_pct", "%",
                       base > 0 ? 100 * (with / base - 1) : 0.0));
    return m;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "fig7-sweep")
        return std::make_unique<Fig7Sweep>(o.seed);
    if (o.workload == "long-8core")
        return std::make_unique<Long8Core>(o.seed);
    if (o.workload == "sampled-trace")
        return std::make_unique<SampledTrace>(o.workdir);
    throw std::invalid_argument("unknown workload " + o.workload);
}

int
run(const Options &o)
{
    pinEnvironment(Fig7Sweep::scale());
    std::unique_ptr<Workload> w = makeWorkload(o);

    std::vector<double> setupS;
    std::vector<Metric> metrics;
    Samples untraced, traced;
    if (!o.trace) {
        runRounds(*w, o.seconds, false, 0, untraced, setupS);
        const double rss = peakRssMb();
        metrics = {
            medianOf("ops_per_s", "1/s", untraced.roundOps),
            medianOf("op_s_p50", "s", untraced.opWall),
            medianOf("minsts_per_s", "Minst/s", untraced.roundInsts),
            medianOf("mcycles_per_s", "Mcycle/s", untraced.roundCycles),
            medianOf("setup_s", "s", setupS),
            single("peak_rss_mb", "MB", rss),
        };
    } else {
        // Half the time untraced, half traced: the difference in median
        // op time is the tracing overhead.
        runRounds(*w, o.seconds / 2, false, 0, untraced, setupS);
        runRounds(*w, o.seconds / 2, true, untraced.rounds, traced, setupS);
        metrics = layerMetrics(traced, untraced, w->layers(o.workdir));
    }

    Checker checker;
    const std::size_t failingPerRound = w->check(checker);
    for (const std::string &f : checker.failures())
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    const Samples &s = o.trace ? traced : untraced;
    std::printf("{\"stats\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"hw_threads\": %u, \"threads\": %d, "
                "\"rounds\": %zu, \"ops_per_round\": %zu, "
                "\"checks\": %zu, \"checks_failed\": %zu, "
                "\"quartiles\": %s, \"simulated\": %s}}\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                o.trace ? 1 : 0, std::thread::hardware_concurrency(),
                w->threads(), s.rounds, w->opsPerRound(), checker.count(),
                checker.failures().size(), jsonQuartiles(metrics).c_str(),
                w->simulatedSummary().c_str());
    const std::uint64_t attempted = untraced.attempted + traced.attempted;
    const std::uint64_t failed =
        untraced.failed + traced.failed +
        failingPerRound * (untraced.rounds + traced.rounds);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checker.ok() ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                jsonMetrics(metrics).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
