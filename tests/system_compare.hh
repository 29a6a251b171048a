/**
 * @file
 * Shared kernel-equivalence scaffolding: bit-identical SystemResult /
 * CoreStats comparators, the CCSIM_PARANOID env upgrade and a scoped
 * environment setter, used by the kernel-equivalence suites
 * (tests/test_system.cc) and every other suite that compares whole
 * runs.
 */

#ifndef CCSIM_TESTS_SYSTEM_COMPARE_HH
#define CCSIM_TESTS_SYSTEM_COMPARE_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/config.hh"
#include "sim/system.hh"

namespace ccsim::test {

/**
 * CCSIM_PARANOID=1 (the dedicated CI job) upgrades every optimised
 * kernel under test to its shadow-validation mode: all skip decisions
 * are executed-and-asserted instead of taken on faith, and the
 * calendar kernel's wheel and cached horizons are cross-checked
 * against the per-cycle schedule.
 */
inline bool
envParanoid()
{
    const char *v = std::getenv("CCSIM_PARANOID");
    return v && *v && *v != '0';
}

inline void
applyEnvParanoia(sim::SimConfig &cfg)
{
    if (cfg.kernel != sim::KernelMode::PerCycle && envParanoid())
        cfg.kernelParanoid = true;
}

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_.empty())
            ::unsetenv(name_);
        else
            ::setenv(name_, old_.c_str(), 1);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string old_;
};

/** Every field of SystemResult must agree bit for bit. */
inline void
expectIdenticalResults(const sim::SystemResult &a,
                       const sim::SystemResult &b, const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.providerHitRate, b.providerHitRate);
    EXPECT_EQ(a.hcracHitRate, b.hcracHitRate);
    EXPECT_EQ(a.unlimitedHitRate, b.unlimitedHitRate);
    EXPECT_EQ(a.rmpkc, b.rmpkc);

    EXPECT_EQ(a.ctrl.reads, b.ctrl.reads);
    EXPECT_EQ(a.ctrl.writes, b.ctrl.writes);
    EXPECT_EQ(a.ctrl.acts, b.ctrl.acts);
    EXPECT_EQ(a.ctrl.pres, b.ctrl.pres);
    EXPECT_EQ(a.ctrl.autoPres, b.ctrl.autoPres);
    EXPECT_EQ(a.ctrl.refs, b.ctrl.refs);
    EXPECT_EQ(a.ctrl.rowHits, b.ctrl.rowHits);
    EXPECT_EQ(a.ctrl.rowMisses, b.ctrl.rowMisses);
    EXPECT_EQ(a.ctrl.rowConflicts, b.ctrl.rowConflicts);
    EXPECT_EQ(a.ctrl.readForwards, b.ctrl.readForwards);
    EXPECT_EQ(a.ctrl.readLatencySum, b.ctrl.readLatencySum);
    EXPECT_EQ(a.ctrl.ptwReads, b.ctrl.ptwReads);
    EXPECT_EQ(a.ctrl.ptwActs, b.ctrl.ptwActs);
    EXPECT_EQ(a.ctrl.ptwActHits, b.ctrl.ptwActHits);
    for (int l = 0; l < 4; ++l)
        EXPECT_EQ(a.ctrl.ptwReadsByLevel[l], b.ctrl.ptwReadsByLevel[l])
            << "ptw level " << l;
    EXPECT_EQ(a.vm.lookups, b.vm.lookups);
    EXPECT_EQ(a.vm.l1Hits, b.vm.l1Hits);
    EXPECT_EQ(a.vm.l2Hits, b.vm.l2Hits);
    EXPECT_EQ(a.vm.walks, b.vm.walks);
    EXPECT_EQ(a.vm.pteFetches, b.vm.pteFetches);
    EXPECT_EQ(a.vm.walkCycleSum, b.vm.walkCycleSum);
    EXPECT_EQ(a.vm.pagesMapped, b.vm.pagesMapped);
    EXPECT_EQ(a.vm.ptTables, b.vm.ptTables);
    EXPECT_EQ(a.vm.contextSwitches, b.vm.contextSwitches);
    EXPECT_EQ(a.vm.remaps, b.vm.remaps);
    EXPECT_EQ(a.vm.shootdownsSent, b.vm.shootdownsSent);
    EXPECT_EQ(a.vm.shootdownsReceived, b.vm.shootdownsReceived);
    EXPECT_EQ(a.vm.pwcLookups, b.vm.pwcLookups);
    EXPECT_EQ(a.vm.pwcSkippedFetches, b.vm.pwcSkippedFetches);
    for (std::size_t l = 0; l < a.vm.pwcHitsByLevel.size(); ++l)
        EXPECT_EQ(a.vm.pwcHitsByLevel[l], b.vm.pwcHitsByLevel[l])
            << "pwc level " << l;
    EXPECT_EQ(a.xlatStallCycles, b.xlatStallCycles);
    EXPECT_EQ(a.shootdownStallCycles, b.shootdownStallCycles);

    EXPECT_EQ(a.llc.accesses, b.llc.accesses);
    EXPECT_EQ(a.llc.hits, b.llc.hits);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.llc.mshrMerges, b.llc.mshrMerges);
    EXPECT_EQ(a.llc.writebacks, b.llc.writebacks);
    EXPECT_EQ(a.llc.blockedMshr, b.llc.blockedMshr);
    EXPECT_EQ(a.llc.blockedMemQueue, b.llc.blockedMemQueue);

    EXPECT_EQ(a.energy.totalNj(), b.energy.totalNj());
    EXPECT_EQ(a.energy.actPreNj, b.energy.actPreNj);
    EXPECT_EQ(a.energy.actStandbyNj, b.energy.actStandbyNj);
    EXPECT_EQ(a.energy.preStandbyNj, b.energy.preStandbyNj);

    ASSERT_EQ(a.rltl.size(), b.rltl.size());
    for (size_t i = 0; i < a.rltl.size(); ++i)
        EXPECT_EQ(a.rltl[i], b.rltl[i]) << "rltl window " << i;
    EXPECT_EQ(a.afterRefresh8ms, b.afterRefresh8ms);
    EXPECT_EQ(a.degraded, b.degraded);
}

/** Per-core statistics must also agree (park/wake bulk accounting). */
inline void
expectIdenticalCoreStats(sim::System &a, sim::System &b, int cores,
                         const char *label)
{
    SCOPED_TRACE(label);
    for (int i = 0; i < cores; ++i) {
        const cpu::CoreStats &sa = a.core(i).stats();
        const cpu::CoreStats &sb = b.core(i).stats();
        EXPECT_EQ(sa.retired, sb.retired) << "core " << i;
        EXPECT_EQ(sa.memReads, sb.memReads) << "core " << i;
        EXPECT_EQ(sa.memWrites, sb.memWrites) << "core " << i;
        EXPECT_EQ(sa.stallCyclesFull, sb.stallCyclesFull) << "core " << i;
        EXPECT_EQ(sa.blockedAccesses, sb.blockedAccesses) << "core " << i;
        EXPECT_EQ(sa.xlatStallCycles, sb.xlatStallCycles) << "core " << i;
        EXPECT_EQ(sa.shootdownStallCycles, sb.shootdownStallCycles)
            << "core " << i;
    }
}

} // namespace ccsim::test

#endif // CCSIM_TESTS_SYSTEM_COMPARE_HH
