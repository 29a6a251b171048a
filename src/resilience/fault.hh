/**
 * @file
 * Seed-derived deterministic fault injection.
 *
 * A FaultConfig (sim::SimConfig::faults, env-overridable via
 * CCSIM_FAULT_SEED / CCSIM_FAULT_KIND / CCSIM_FAULT_AFTER) names one
 * fault to inject into a run; fields left at their defaults are
 * derived from the seed with SplitMix64, so a single integer
 * reproduces the whole scenario. FaultPlan is the runtime object the
 * injection shims consult:
 *
 *  - AllocFail:     System::build throws SimError{ResourceExhausted}
 *                   once (exercises sweep-runner retry/backoff).
 *  - TraceTruncate: a trace reader reports SimError{TraceIo} after N
 *                   lines (exercises malformed-input recovery).
 *
 * Every fault fires at most once per plan; the decision sequence is a
 * pure function of (seed, kind, afterCommands), never of wall-clock
 * or thread timing, so recovery paths are reproducible in CI. The
 * simulation's own determinism is untouched when seed == 0.
 */

#ifndef CCSIM_RESILIENCE_FAULT_HH
#define CCSIM_RESILIENCE_FAULT_HH

#include <cstdint>

namespace ccsim::resilience {

enum class FaultKind : std::uint8_t {
    None = 0,
    AllocFail,
    TraceTruncate,
};

const char *faultKindName(FaultKind kind);

/** Declarative fault selection (lives in SimConfig). */
struct FaultConfig {
    /** 0 disables injection entirely. */
    std::uint64_t seed = 0;
    /** None + seed != 0 derives the kind from the seed. */
    FaultKind kind = FaultKind::None;
    /** Lines before the fault fires; 0 derives from seed. */
    std::uint64_t afterCommands = 0;

    bool enabled() const { return seed != 0; }
};

/** Apply CCSIM_FAULT_* environment overrides onto `cfg`. */
void applyEnvFaults(FaultConfig &cfg);

class FaultPlan
{
  public:
    /** Resolve the seed-derived fields. */
    explicit FaultPlan(const FaultConfig &cfg);

    bool enabled() const { return cfg_.enabled(); }
    FaultKind kind() const { return kind_; }
    std::uint64_t afterCommands() const { return after_; }

    /** Build-time shim: one-shot allocation failure. */
    bool shouldFailAlloc();

    /** Lines after which a trace reader reports truncation (0 = never). */
    std::uint64_t traceTruncateAfter() const;

  private:
    FaultConfig cfg_;
    FaultKind kind_ = FaultKind::None;
    std::uint64_t after_ = 0;
    bool fired_ = false;
};

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_FAULT_HH
