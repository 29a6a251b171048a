/**
 * @file
 * Per-layer host costs. Streams are captured from a real detailed
 * simulation through public hooks only (a TraceSource wrapper and a
 * CommandListener), then fed into a standalone instance of each layer
 * so its cost per event can be timed without the rest of the system.
 * A replay measures host cost, not fidelity: the standalone layers see
 * the captured stream with simplified surroundings (a zero- or
 * fixed-latency memory behind the LLC, one arrival per controller
 * cycle, one HCRAC table per channel).
 */

#include <deque>
#include <map>
#include <memory>

#include "bench.hh"
#include "chargecache/hcrac.hh"
#include "chargecache/providers.hh"
#include "ctrl/controller.hh"
#include "ctrl/refresh.hh"
#include "dram/addr.hh"
#include "energy/energy_model.hh"
#include "mem/llc.hh"
#include "trace/format.hh"

namespace perfbench {

namespace {

/** Keeps replay loops from being optimised away. */
volatile std::uint64_t gSink = 0;

class CommandRecorder : public ctrl::CommandListener
{
  public:
    explicit CommandRecorder(std::vector<CapturedCommand> &out)
        : out_(out)
    {
    }

    void
    onCommand(const dram::Command &cmd, Cycle cycle,
              const dram::EffActTiming *eff) override
    {
        CapturedCommand c;
        c.cmd = cmd;
        c.cycle = cycle;
        if (eff)
            c.eff = *eff;
        out_.push_back(c);
    }

  private:
    std::vector<CapturedCommand> &out_;
};

/** Finite source over captured records. */
class VectorSource : public cpu::TraceSource
{
  public:
    explicit VectorSource(const std::vector<cpu::TraceRecord> &records)
        : records_(records)
    {
    }

    bool
    next(cpu::TraceRecord &record) override
    {
        if (pos_ >= records_.size())
            return false;
        record = records_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    const std::vector<cpu::TraceRecord> &records_;
    std::size_t pos_ = 0;
};

/**
 * Memory behind a standalone LLC: accepts everything, logs every
 * request, and completes reads `delay` CPU cycles after they arrive
 * (0 = on the next deliver() call).
 */
class StubPort : public ctrl::MemPort
{
  public:
    StubPort(CpuCycle delay, std::vector<ctrl::Request> *log)
        : delay_(delay), log_(log)
    {
    }

    bool canAccept(ctrl::ReqType) const override { return true; }

    void
    enqueue(ctrl::Request req) override
    {
        if (log_)
            log_->push_back(req);
        if (req.type == ctrl::ReqType::Read)
            inflight_.push_back({now_ + delay_, req});
    }

    /** Complete every read due at `now`; the fill may enqueue more. */
    void
    deliver(CpuCycle now)
    {
        now_ = now;
        while (!inflight_.empty() && inflight_.front().first <= now) {
            ctrl::Request req = inflight_.front().second;
            inflight_.pop_front();
            req.complete(static_cast<Cycle>(now));
        }
    }

  private:
    CpuCycle delay_;
    std::vector<ctrl::Request> *log_;
    CpuCycle now_ = 0;
    std::deque<std::pair<CpuCycle, ctrl::Request>> inflight_;
};

dram::DramSpec
channelSpec(const sim::SimConfig &config)
{
    dram::DramSpec spec = config.buildSpec();
    spec.org.channels = 1;
    return spec;
}

/** LLC replay: every captured access, round-robin over cores. Returns
    ns/access; fills `log` with what reached memory per channel. */
double
replayLlc(const Capture &cap, std::vector<std::vector<ctrl::Request>> &log)
{
    const sim::SimConfig &cfg = cap.config;
    const dram::DramSpec spec = cfg.buildSpec();
    const dram::AddressMapper mapper(spec.org, cfg.mapping);
    log.assign(cfg.channels, {});
    std::vector<std::unique_ptr<StubPort>> ports;
    for (int ch = 0; ch < cfg.channels; ++ch)
        ports.push_back(std::make_unique<StubPort>(0, &log[ch]));
    mem::Llc llc(
        cfg.llc, mapper, [&](int ch) { return ports[ch].get(); },
        [](int, std::uint64_t) {});

    std::size_t longest = 0;
    for (const auto &r : cap.records)
        longest = std::max(longest, r.size());
    const Addr line_bytes = static_cast<Addr>(cfg.llc.lineBytes);
    std::uint64_t token = 0, n = 0;
    const double t0 = nowS();
    for (std::size_t i = 0; i < longest; ++i) {
        for (std::size_t core = 0; core < cap.records.size(); ++core) {
            if (i >= cap.records[core].size())
                continue;
            const cpu::TraceRecord &rec = cap.records[core][i];
            llc.access(static_cast<int>(core), rec.addr / line_bytes,
                       rec.isWrite, ++token);
            ++n;
            for (auto &p : ports)
                p->deliver(0);
            llc.tick();
        }
    }
    const double t = nowS() - t0;
    return n ? 1e9 * t / static_cast<double>(n) : 0.0;
}

/** Controller replay of one channel's request stream. */
void
replayController(const Capture &cap,
                 const std::vector<ctrl::Request> &requests,
                 LayerCosts &out)
{
    const sim::SimConfig &cfg = cap.config;
    const dram::DramSpec spec = channelSpec(cfg);
    ctrl::RefreshScheduler refresh(spec);
    std::unique_ptr<chargecache::LatencyProvider> provider;
    if (hasHcrac(cfg.scheme))
        provider = std::make_unique<chargecache::ChargeCacheProvider>(
            spec.timing, cfg.cc, cfg.nCores);
    else
        provider =
            std::make_unique<chargecache::StandardProvider>(spec.timing);
    ctrl::MemoryController mc(spec, cfg.ctrl, *provider, refresh, 0);

    const std::size_t n = requests.size();
    const std::uint64_t guard = 2000ull * n + 1000000;
    std::size_t next = 0;
    std::uint64_t ticks = 0;
    const double t0 = nowS();
    while ((next < n || mc.queuedRequests() != 0 ||
            mc.pendingReads() != 0) &&
           ticks < guard) {
        if (next < n && mc.canAccept(requests[next].type)) {
            ctrl::Request req = requests[next++];
            req.callback = nullptr;
            req.callbackCtx = nullptr;
            mc.enqueue(req);
        }
        mc.tick();
        ++ticks;
    }
    const double t = nowS() - t0;
    out.ctrlRequestNs = n ? 1e9 * t / static_cast<double>(n) : 0.0;
    out.ctrlTickNs = ticks ? 1e9 * t / static_cast<double>(ticks) : 0.0;
}

/** HCRAC replay: ACTs look up their row, closes insert the closed row. */
void
replayHcrac(const Capture &cap, LayerCosts &out)
{
    struct Probe {
        bool lookup;
        std::uint64_t key;
    };
    std::vector<Probe> probes;
    for (const auto &stream : cap.commands) {
        std::map<std::pair<int, int>, int> open; // (rank, bank) -> row
        for (const CapturedCommand &c : stream) {
            const dram::DramAddr &a = c.cmd.addr;
            switch (c.cmd.type) {
              case dram::CmdType::ACT:
                probes.push_back({true, chargecache::rowKey(a, a.row)});
                open[{a.rank, a.bank}] = a.row;
                break;
              case dram::CmdType::PRE: {
                auto it = open.find({a.rank, a.bank});
                if (it != open.end()) {
                    probes.push_back(
                        {false, chargecache::rowKey(a, it->second)});
                    open.erase(it);
                }
                break;
              }
              case dram::CmdType::PREA:
                for (auto it = open.begin(); it != open.end();) {
                    if (it->first.first != a.rank) {
                        ++it;
                        continue;
                    }
                    dram::DramAddr closed = a;
                    closed.bank = it->first.second;
                    probes.push_back(
                        {false, chargecache::rowKey(closed, it->second)});
                    it = open.erase(it);
                }
                break;
              case dram::CmdType::RDA:
              case dram::CmdType::WRA:
                probes.push_back({false, chargecache::rowKey(a, a.row)});
                open.erase({a.rank, a.bank});
                break;
              default:
                break;
            }
        }
    }
    chargecache::Hcrac table(cap.config.cc.table);
    std::uint64_t hits = 0;
    const double t0 = nowS();
    for (const Probe &p : probes) {
        if (p.lookup)
            hits += table.lookup(p.key);
        else
            table.insert(p.key);
    }
    const double t = nowS() - t0;
    gSink = hits;
    out.probeNs =
        probes.empty() ? 0.0 : 1e9 * t / static_cast<double>(probes.size());
}

void
replayEnergy(const Capture &cap, LayerCosts &out)
{
    const dram::DramSpec spec = channelSpec(cap.config);
    energy::EnergyModel model(spec,
                              energy::IddProfile::micronDdr3_1600_4Gb());
    const std::vector<CapturedCommand> &cmds = cap.commands.front();
    const double t0 = nowS();
    for (const CapturedCommand &c : cmds)
        model.onCommand(c.cmd, c.cycle,
                        c.cmd.type == dram::CmdType::ACT ? &c.eff
                                                         : nullptr);
    const double t = nowS() - t0;
    out.energyCommands = cmds.size();
    out.energyCommandNs =
        cmds.empty() ? 0.0 : 1e9 * t / static_cast<double>(cmds.size());
}

/** Core replay: core 0's records through a standalone LLC whose memory
    answers every read after a fixed DRAM-like delay. */
void
replayCore(const Capture &cap, LayerCosts &out)
{
    const sim::SimConfig &cfg = cap.config;
    const std::vector<cpu::TraceRecord> &records = cap.records.front();
    std::uint64_t insts = 0;
    for (const auto &r : records)
        insts += r.nonMemInsts + 1;
    const dram::DramSpec spec = cfg.buildSpec();
    const dram::AddressMapper mapper(spec.org, cfg.mapping);
    // ~tRCD + tCL + burst at 4 GHz: the order of a row-miss read.
    constexpr CpuCycle kMemDelay = 160;
    std::vector<std::unique_ptr<StubPort>> ports;
    for (int ch = 0; ch < cfg.channels; ++ch)
        ports.push_back(std::make_unique<StubPort>(kMemDelay, nullptr));
    cpu::Core *core_ptr = nullptr;
    mem::Llc llc(
        cfg.llc, mapper, [&](int ch) { return ports[ch].get(); },
        [&](int, std::uint64_t token) { core_ptr->onMissComplete(token); });
    VectorSource source(records);
    cpu::CoreConfig core_cfg = cfg.core;
    // Stop short of the end of the finite stream.
    core_cfg.targetInsts = insts - insts / 10;
    cpu::Core core(0, core_cfg, source, llc);
    core_ptr = &core;

    const CpuCycle guard = 1000 * insts + 1000000;
    CpuCycle now = 0;
    const double t0 = nowS();
    for (; !core.reachedTarget() && now < guard; ++now) {
        core.tick(now);
        llc.tick();
        for (auto &p : ports)
            p->deliver(now);
    }
    const double t = nowS() - t0;
    out.cpuTickNs = now ? 1e9 * t / static_cast<double>(now) : 0.0;
}

} // namespace

Capture
captureStreams(const sim::SimConfig &config,
               const std::vector<cpu::TraceSource *> &sources,
               std::size_t record_limit)
{
    Capture cap;
    cap.config = config;
    cap.records.assign(sources.size(), {});
    cap.commands.assign(config.channels, {});
    std::vector<std::unique_ptr<CountingSource>> wrapped;
    std::vector<cpu::TraceSource *> raw;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        wrapped.push_back(std::make_unique<CountingSource>(
            *sources[i], &cap.records[i], record_limit));
        raw.push_back(wrapped.back().get());
    }
    sim::System system(config, raw);
    std::vector<std::unique_ptr<CommandRecorder>> recorders;
    for (int ch = 0; ch < config.channels; ++ch) {
        recorders.push_back(
            std::make_unique<CommandRecorder>(cap.commands[ch]));
        system.controller(ch).addListener(recorders.back().get());
    }
    system.run();
    for (int i = 0; i < config.nCores; ++i)
        cap.coreStats.push_back(system.core(i).stats());
    return cap;
}

LayerCosts
replayLayers(const Capture &cap)
{
    LayerCosts out;
    std::vector<std::vector<ctrl::Request>> log;
    out.memAccessNs = replayLlc(cap, log);
    replayController(cap, log.front(), out);
    replayHcrac(cap, out);
    replayEnergy(cap, out);
    replayCore(cap, out);
    return out;
}

double
timeSourceNext(const std::vector<cpu::TraceSource *> &sources,
               std::uint64_t records)
{
    cpu::TraceRecord rec;
    std::uint64_t n = 0, sink = 0;
    const double t0 = nowS();
    for (cpu::TraceSource *s : sources)
        for (std::uint64_t i = 0; i < records && s->next(rec); ++i) {
            sink += rec.addr;
            ++n;
        }
    const double t = nowS() - t0;
    gSink = sink;
    return n ? 1e9 * t / static_cast<double>(n) : 0.0;
}

std::vector<std::string>
writeTraces(const std::vector<std::vector<cpu::TraceRecord>> &records,
            const std::string &dir, const std::string &stem)
{
    std::vector<std::string> paths;
    for (std::size_t c = 0; c < records.size(); ++c) {
        const std::string path =
            dir + "/" + stem + std::to_string(c) + ".cctr";
        trace::TraceWriter w(path);
        for (const auto &r : records[c])
            w.append(r);
        w.close();
        paths.push_back(path);
    }
    return paths;
}

double
timeTraceRead(const std::vector<std::string> &paths)
{
    cpu::TraceRecord rec;
    std::uint64_t n = 0, sink = 0;
    const double t0 = nowS();
    for (const std::string &p : paths) {
        trace::TraceReader reader(p);
        while (reader.next(rec)) {
            sink += rec.nonMemInsts;
            ++n;
        }
    }
    const double t = nowS() - t0;
    gSink = sink;
    return n ? 1e9 * t / static_cast<double>(n) : 0.0;
}

} // namespace perfbench
