/**
 * @file
 * Output checks. Each one recomputes a property of the simulated
 * results from the results themselves or from a second, independent
 * computation, never from the code path that produced the number.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hh"

namespace perfbench {

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    q.n = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        q.p25 = q.p50 = q.p75 = v[0];
        return q;
    }
    // statistics.quantiles(v, n=4), method='exclusive'.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    }
    q.p25 = out[0];
    q.p50 = out[1];
    q.p75 = out[2];
    return q;
}

void
Checker::expect(const std::string &failure, const std::string &where)
{
    ++checks_;
    if (!failure.empty())
        failures_.push_back(where + ": " + failure);
}

DetailedRun
makeDetailedRun(sim::System &system, const sim::SystemResult &result)
{
    DetailedRun run;
    run.scheme = system.config().scheme;
    run.result = result;
    run.target = system.config().targetInsts;
    run.issueWidth = system.config().core.issueWidth;
    for (int i = 0; i < system.config().nCores; ++i)
        run.retired.push_back(system.core(i).stats().retired);
    return run;
}

std::string
checkCoreTargets(const DetailedRun &run)
{
    if (run.retired.size() != run.result.ipc.size())
        return "core count differs between Core::stats and ipc";
    for (std::size_t i = 0; i < run.retired.size(); ++i) {
        if (run.retired[i] < run.target)
            return "core " + std::to_string(i) + " retired " +
                   std::to_string(run.retired[i]) + " < target " +
                   std::to_string(run.target);
        const double ipc = run.result.ipc[i];
        if (!(ipc > 0.0) || ipc > run.issueWidth)
            return "core " + std::to_string(i) + " IPC " +
                   std::to_string(ipc) + " outside (0, issue width]";
    }
    return "";
}

std::string
checkSchemeReduction(const DetailedRun &run)
{
    const sim::SystemResult &r = run.result;
    if (run.scheme == sim::Scheme::Baseline &&
        (r.providerHitRate != 0.0 || r.hcracHitRate != 0.0))
        return "Baseline reduced ACTs (provider hit rate " +
               std::to_string(r.providerHitRate) + ")";
    if (run.scheme == sim::Scheme::LlDram && r.activations > 0 &&
        r.providerHitRate != 1.0)
        return "LL-DRAM left ACTs unreduced (provider hit rate " +
               std::to_string(r.providerHitRate) + ")";
    return "";
}

std::string
checkHitRateRange(const sim::SystemResult &r)
{
    for (double v : {r.hcracHitRate, r.providerHitRate})
        if (!(v >= 0.0 && v <= 1.0))
            return "hit rate " + std::to_string(v) + " outside [0, 1]";
    return "";
}

std::string
checkLlcIdentity(const sim::SystemResult &r)
{
    const mem::LlcStats &s = r.llc;
    const std::uint64_t sum = s.hits + s.misses + s.mshrMerges +
                              s.blockedMshr + s.blockedMemQueue;
    if (s.accesses != sum)
        return "LLC accesses " + std::to_string(s.accesses) +
               " != hits+misses+merges+blocked " + std::to_string(sum);
    return "";
}

std::string
checkWritesEqualWritebacks(const sim::SystemResult &r)
{
    if (r.ctrl.writes != r.llc.writebacks)
        return "controller writes " + std::to_string(r.ctrl.writes) +
               " != LLC writebacks " + std::to_string(r.llc.writebacks);
    return "";
}

std::string
checkWeightedSpeedup(const std::vector<double> &shared_ipc,
                     const std::vector<double> &alone_ipc, double claimed)
{
    if (shared_ipc.size() != alone_ipc.size() || shared_ipc.empty())
        return "mix and alone IPC counts differ";
    double ws = 0.0;
    for (std::size_t i = 0; i < shared_ipc.size(); ++i) {
        if (!(alone_ipc[i] > 0.0))
            return "alone IPC of core " + std::to_string(i) + " is 0";
        ws += shared_ipc[i] / alone_ipc[i];
    }
    if (!(std::fabs(ws - claimed) <= 1e-12 * std::max(1.0, ws)))
        return "weighted speedup " + std::to_string(claimed) +
               " != recomputed " + std::to_string(ws);
    return "";
}

namespace {

/** Field-by-field comparison, naming the first field that differs. */
class Diff
{
  public:
    template <typename T>
    void
    eq(const char *field, const T &a, const T &b)
    {
        if (first_.empty() && !(a == b)) {
            std::ostringstream os;
            os.precision(17);
            os << field << " differs (" << a << " vs " << b << ")";
            first_ = os.str();
        }
    }

    template <typename T>
    void
    vec(const char *field, const std::vector<T> &a,
        const std::vector<T> &b)
    {
        eq((std::string(field) + ".size").c_str(), a.size(), b.size());
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
            eq((std::string(field) + "[" + std::to_string(i) + "]")
                   .c_str(),
               a[i], b[i]);
    }

    const std::string &first() const { return first_; }

  private:
    std::string first_;
};

} // namespace

std::string
checkIdentical(const sim::SystemResult &a, const sim::SystemResult &b)
{
    Diff d;
    d.vec("ipc", a.ipc, b.ipc);
    d.eq("cpuCycles", a.cpuCycles, b.cpuCycles);
    d.eq("activations", a.activations, b.activations);
    d.eq("providerHitRate", a.providerHitRate, b.providerHitRate);
    d.eq("hcracHitRate", a.hcracHitRate, b.hcracHitRate);
    d.eq("unlimitedHitRate", a.unlimitedHitRate, b.unlimitedHitRate);
    d.eq("rmpkc", a.rmpkc, b.rmpkc);
    const ctrl::CtrlStats &ca = a.ctrl, &cb = b.ctrl;
    d.eq("ctrl.reads", ca.reads, cb.reads);
    d.eq("ctrl.writes", ca.writes, cb.writes);
    d.eq("ctrl.acts", ca.acts, cb.acts);
    d.eq("ctrl.pres", ca.pres, cb.pres);
    d.eq("ctrl.autoPres", ca.autoPres, cb.autoPres);
    d.eq("ctrl.refs", ca.refs, cb.refs);
    d.eq("ctrl.rowHits", ca.rowHits, cb.rowHits);
    d.eq("ctrl.rowMisses", ca.rowMisses, cb.rowMisses);
    d.eq("ctrl.rowConflicts", ca.rowConflicts, cb.rowConflicts);
    d.eq("ctrl.readForwards", ca.readForwards, cb.readForwards);
    d.eq("ctrl.readLatencySum", ca.readLatencySum, cb.readLatencySum);
    d.eq("ctrl.ptwReads", ca.ptwReads, cb.ptwReads);
    d.eq("ctrl.ptwActs", ca.ptwActs, cb.ptwActs);
    d.eq("ctrl.ptwActHits", ca.ptwActHits, cb.ptwActHits);
    for (int l = 0; l < 4; ++l)
        d.eq("ctrl.ptwReadsByLevel", ca.ptwReadsByLevel[l],
             cb.ptwReadsByLevel[l]);
    const mem::LlcStats &la = a.llc, &lb = b.llc;
    d.eq("llc.accesses", la.accesses, lb.accesses);
    d.eq("llc.hits", la.hits, lb.hits);
    d.eq("llc.misses", la.misses, lb.misses);
    d.eq("llc.mshrMerges", la.mshrMerges, lb.mshrMerges);
    d.eq("llc.writebacks", la.writebacks, lb.writebacks);
    d.eq("llc.blockedMshr", la.blockedMshr, lb.blockedMshr);
    d.eq("llc.blockedMemQueue", la.blockedMemQueue, lb.blockedMemQueue);
    const energy::EnergyBreakdown &ea = a.energy, &eb = b.energy;
    d.eq("energy.actPreNj", ea.actPreNj, eb.actPreNj);
    d.eq("energy.readNj", ea.readNj, eb.readNj);
    d.eq("energy.writeNj", ea.writeNj, eb.writeNj);
    d.eq("energy.refreshNj", ea.refreshNj, eb.refreshNj);
    d.eq("energy.actStandbyNj", ea.actStandbyNj, eb.actStandbyNj);
    d.eq("energy.preStandbyNj", ea.preStandbyNj, eb.preStandbyNj);
    d.eq("energy.controllerNj", ea.controllerNj, eb.controllerNj);
    const vm::VmStats &va = a.vm, &vb = b.vm;
    d.eq("vm.lookups", va.lookups, vb.lookups);
    d.eq("vm.l1Hits", va.l1Hits, vb.l1Hits);
    d.eq("vm.l2Hits", va.l2Hits, vb.l2Hits);
    d.eq("vm.walks", va.walks, vb.walks);
    d.eq("vm.pteFetches", va.pteFetches, vb.pteFetches);
    d.eq("vm.walkCycleSum", va.walkCycleSum, vb.walkCycleSum);
    d.eq("vm.pagesMapped", va.pagesMapped, vb.pagesMapped);
    d.eq("vm.ptTables", va.ptTables, vb.ptTables);
    d.eq("vm.contextSwitches", va.contextSwitches, vb.contextSwitches);
    d.eq("vm.remaps", va.remaps, vb.remaps);
    d.eq("vm.shootdownsSent", va.shootdownsSent, vb.shootdownsSent);
    d.eq("vm.shootdownsReceived", va.shootdownsReceived,
         vb.shootdownsReceived);
    d.eq("vm.pwcLookups", va.pwcLookups, vb.pwcLookups);
    d.eq("vm.pwcSkippedFetches", va.pwcSkippedFetches,
         vb.pwcSkippedFetches);
    for (std::size_t l = 0; l < va.pwcHitsByLevel.size(); ++l)
        d.eq("vm.pwcHitsByLevel", va.pwcHitsByLevel[l],
             vb.pwcHitsByLevel[l]);
    d.eq("xlatStallCycles", a.xlatStallCycles, b.xlatStallCycles);
    d.eq("shootdownStallCycles", a.shootdownStallCycles,
         b.shootdownStallCycles);
    d.vec("rltl", a.rltl, b.rltl);
    d.vec("rltlWindowsMs", a.rltlWindowsMs, b.rltlWindowsMs);
    d.eq("afterRefresh8ms", a.afterRefresh8ms, b.afterRefresh8ms);
    d.eq("degraded", a.degraded, b.degraded);
    return d.first();
}

namespace {

double
relErr(double estimate, double reference)
{
    return reference != 0.0 ? std::fabs(estimate - reference) / reference
                            : std::fabs(estimate);
}

} // namespace

std::string
checkSampledIpc(const trace::SampledResult &s,
                const sim::SystemResult &full, double tol)
{
    double sampled = 0, reference = 0;
    for (double v : s.aggregate.ipc)
        sampled += v;
    for (double v : full.ipc)
        reference += v;
    const double err = relErr(sampled, reference);
    if (!(err <= tol))
        return "sampled IPC " + std::to_string(sampled) + " vs full " +
               std::to_string(reference) + ": error " +
               std::to_string(100 * err) + "% > " +
               std::to_string(100 * tol) + "%";
    return "";
}

std::string
checkSampledHcrac(const trace::SampledResult &s,
                  const sim::SystemResult &full, double tol)
{
    const double err =
        relErr(s.aggregate.hcracHitRate, full.hcracHitRate);
    if (!(err <= tol))
        return "sampled HCRAC hit rate " +
               std::to_string(s.aggregate.hcracHitRate) + " vs full " +
               std::to_string(full.hcracHitRate) + ": error " +
               std::to_string(100 * err) + "% > " +
               std::to_string(100 * tol) + "%";
    return "";
}

void
checkDetailed(Checker &c, const DetailedRun &run, const std::string &where)
{
    c.expect(checkCoreTargets(run), where);
    c.expect(checkSchemeReduction(run), where);
    c.expect(checkHitRateRange(run.result), where);
    c.expect(checkLlcIdentity(run.result), where);
    c.expect(checkWritesEqualWritebacks(run.result), where);
}

namespace {

/** The check must pass on `good` and fail on `bad`. */
void
mustCatch(Checker &c, const char *name, const std::string &good,
          const std::string &bad)
{
    c.expect(good.empty() ? "" : "rejects a valid input: " + good,
             std::string("self-test ") + name);
    c.expect(bad.empty() ? "accepts a corrupted input" : "",
             std::string("self-test ") + name);
}

} // namespace

void
selfTest(Checker &c, const DetailedRun &single, const DetailedRun &eight,
         const trace::SampledResult *sampled,
         const sim::SystemResult *full)
{
    for (const DetailedRun *run : {&single, &eight}) {
        DetailedRun bad = *run;
        bad.retired.back() = bad.target - 1;
        mustCatch(c, "core target", checkCoreTargets(*run),
                  checkCoreTargets(bad));
        bad = *run;
        bad.result.ipc.front() = run->issueWidth + 0.5;
        mustCatch(c, "IPC above issue width",
                  checkCoreTargets(*run), checkCoreTargets(bad));
        bad = *run;
        bad.result.ipc.front() = 0.0;
        mustCatch(c, "zero IPC", checkCoreTargets(*run),
                  checkCoreTargets(bad));

        bad = *run;
        bad.scheme = sim::Scheme::Baseline;
        bad.result.providerHitRate = 0.25;
        mustCatch(c, "Baseline reduces ACTs",
                  checkSchemeReduction(*run), checkSchemeReduction(bad));
        bad = *run;
        bad.scheme = sim::Scheme::LlDram;
        bad.result.activations = std::max<std::uint64_t>(
            1, bad.result.activations);
        bad.result.providerHitRate = 0.75;
        mustCatch(c, "LL-DRAM misses ACTs",
                  checkSchemeReduction(*run), checkSchemeReduction(bad));

        sim::SystemResult r = run->result;
        r.hcracHitRate = 1.25;
        mustCatch(c, "HCRAC hit rate range",
                  checkHitRateRange(run->result), checkHitRateRange(r));
        r = run->result;
        r.llc.mshrMerges += 1;
        mustCatch(c, "LLC identity", checkLlcIdentity(run->result),
                  checkLlcIdentity(r));
        r = run->result;
        r.ctrl.writes += 1;
        mustCatch(c, "writes == writebacks",
                  checkWritesEqualWritebacks(run->result),
                  checkWritesEqualWritebacks(r));
        r = run->result;
        r.ctrl.rowHits += 1;
        mustCatch(c, "identical results",
                  checkIdentical(run->result, run->result),
                  checkIdentical(run->result, r));
        r = run->result;
        r.ipc.back() = std::nextafter(r.ipc.back(), 10.0);
        mustCatch(c, "identical IPC",
                  checkIdentical(run->result, run->result),
                  checkIdentical(run->result, r));
    }

    // Weighted speedup: a claim off by one part in 1e6 must be caught.
    std::vector<double> alone(eight.result.ipc.size());
    double ws = 0;
    for (std::size_t i = 0; i < alone.size(); ++i) {
        alone[i] = single.result.ipc.front() * (1.0 + 0.01 * i);
        ws += eight.result.ipc[i] / alone[i];
    }
    mustCatch(c, "weighted speedup",
              checkWeightedSpeedup(eight.result.ipc, alone, ws),
              checkWeightedSpeedup(eight.result.ipc, alone,
                                   ws * (1 + 1e-6)));

    if (sampled && full) {
        // The full run scaled 5% away from the estimate must fail a 3%
        // tolerance; the estimate against itself must pass.
        sim::SystemResult self = *full;
        self.ipc = sampled->aggregate.ipc;
        self.hcracHitRate = sampled->aggregate.hcracHitRate;
        sim::SystemResult off = self;
        for (double &v : off.ipc)
            v *= 1.05;
        off.hcracHitRate *= 1.05;
        if (off.hcracHitRate == 0.0)
            off.hcracHitRate = 0.05;
        mustCatch(c, "sampled IPC",
                  checkSampledIpc(*sampled, self, 0.03),
                  checkSampledIpc(*sampled, off, 0.03));
        mustCatch(c, "sampled HCRAC",
                  checkSampledHcrac(*sampled, self, 0.03),
                  checkSampledHcrac(*sampled, off, 0.03));
    }
}

} // namespace perfbench
