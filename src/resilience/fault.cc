#include "resilience/fault.hh"

#include <cstdlib>
#include <string>

#include "common/random.hh"
#include "resilience/error.hh"

namespace ccsim::resilience {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:          return "none";
      case FaultKind::AllocFail:     return "alloc-fail";
      case FaultKind::TraceTruncate: return "trace-truncate";
    }
    return "unknown";
}

void
applyEnvFaults(FaultConfig &cfg)
{
    auto env = [](const char *name) -> const char * {
        const char *v = std::getenv(name);
        return v && *v ? v : nullptr;
    };
    // Scalar parses validate the end pointer: strtoull/strtol with a
    // nullptr end silently read garbage like "abc" as 0, which turns a
    // typo'd fault spec into "no fault injected" — the one failure mode
    // a fault harness must not have.
    auto parseU64 = [](const char *name, const char *v) -> std::uint64_t {
        char *end = nullptr;
        auto parsed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0')
            throw SimError(ErrorKind::InvalidConfig,
                           std::string(name) + "='" + v +
                               "' is not an unsigned integer");
        return parsed;
    };
    if (const char *v = env("CCSIM_FAULT_SEED"))
        cfg.seed = parseU64("CCSIM_FAULT_SEED", v);
    if (const char *v = env("CCSIM_FAULT_KIND")) {
        std::string k = v;
        if (k == "alloc-fail")
            cfg.kind = FaultKind::AllocFail;
        else if (k == "trace-truncate")
            cfg.kind = FaultKind::TraceTruncate;
        else if (k == "none")
            cfg.kind = FaultKind::None;
        else
            throw SimError(ErrorKind::InvalidConfig,
                           "CCSIM_FAULT_KIND='" + k + "' is not a fault");
    }
    if (const char *v = env("CCSIM_FAULT_AFTER"))
        cfg.afterCommands = parseU64("CCSIM_FAULT_AFTER", v);
}

FaultPlan::FaultPlan(const FaultConfig &cfg) : cfg_(cfg)
{
    if (!cfg_.enabled())
        return;
    std::uint64_t s = cfg_.seed;
    // Derivation order is fixed: kind, then afterCommands — so a
    // partially-pinned config consumes the same stream positions.
    std::uint64_t dk = splitMix64(s);
    std::uint64_t da = splitMix64(s);
    kind_ = cfg_.kind != FaultKind::None
                ? cfg_.kind
                : static_cast<FaultKind>(1 + dk % 2);
    after_ = cfg_.afterCommands != 0 ? cfg_.afterCommands : 1 + da % 64;
}

bool
FaultPlan::shouldFailAlloc()
{
    if (!enabled() || kind_ != FaultKind::AllocFail || fired_)
        return false;
    fired_ = true;
    return true;
}

std::uint64_t
FaultPlan::traceTruncateAfter() const
{
    if (!enabled() || kind_ != FaultKind::TraceTruncate)
        return 0;
    return after_;
}

} // namespace ccsim::resilience
