/**
 * @file
 * Converters onto the CCTR trace format: record any cpu::TraceSource
 * (synthetic profiles, datacenter generators, even another replay) to
 * a trace file. Because every generator in the tree is deterministic
 * from its seed, `writeTrace(G(seed))` replayed through
 * TraceReplaySource is bit-identical to running G(seed) in-process —
 * the property the round-trip test matrix pins down.
 */

#ifndef CCSIM_TRACE_CONVERT_HH
#define CCSIM_TRACE_CONVERT_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "cpu/trace.hh"
#include "trace/format.hh"

namespace ccsim::trace {

/**
 * Pull `n_records` records from `src` and write them to `path`.
 * Finite sources wrap (reset + continue), mirroring cpu::Core's
 * exhaustion behaviour, so converting a short file to a longer trace
 * is well-defined.
 *
 * @throws resilience::SimError{InvalidConfig} if `src` yields nothing
 *         even after a reset, or n_records is 0.
 */
TraceMeta writeTrace(cpu::TraceSource &src, const std::string &path,
                     std::uint64_t n_records,
                     std::uint32_t records_per_block =
                         kDefaultRecordsPerBlock);

/**
 * Record a named synthetic workload (workloads::profileByName) to
 * `path`, with the same seed/base/capacity layout System uses for
 * core `core_id` of `n_cores` — the file a replay-equivalence run
 * feeds back in.
 */
TraceMeta writeSyntheticTrace(const std::string &workload,
                              std::uint64_t seed, int core_id,
                              int n_cores, Addr capacity_lines,
                              const std::string &path,
                              std::uint64_t n_records,
                              std::uint32_t records_per_block =
                                  kDefaultRecordsPerBlock);

} // namespace ccsim::trace

#endif // CCSIM_TRACE_CONVERT_HH
