/**
 * @file
 * Chrome trace-event (Perfetto-loadable) export.
 *
 * One TraceEventSink collects events on one synthetic process,
 * pid 1 ("simulated time"): timestamps are simulated microseconds
 * (CPU cycles / 4000 at the paper's 4 GHz clock) of bank ACT->PRE
 * windows, refresh and core park spans.
 *
 * Load the written file at https://ui.perfetto.dev or
 * chrome://tracing. The sink is mutex-protected so sweep workers can
 * record concurrently; the event cap turns overflow into a drop
 * counter rather than unbounded memory.
 */

#ifndef CCSIM_OBS_TRACE_EVENT_HH
#define CCSIM_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ccsim::obs {

/** Synthetic pid for simulated-time events. */
constexpr int kPidSim = 1;

class TraceEventSink
{
  public:
    /** Cap buffered events; extra events increment droppedCount(). */
    void setLimit(std::size_t max_events);

    /** Complete ("X") event: a [ts, ts+dur] span, microseconds. */
    void complete(int pid, int tid, const std::string &name,
                  const char *cat, double ts_us, double dur_us);

    /** Instant ("i") event, thread scope. */
    void instant(int pid, int tid, const std::string &name,
                 const char *cat, double ts_us);

    std::size_t size() const;
    std::uint64_t droppedCount() const;
    void clear();

    /** Whole-trace JSON object ({"traceEvents":[...], ...}). */
    std::string toJson() const;

    /** Atomic write (temp + rename) of toJson() to `path`. */
    void writeJson(const std::string &path) const;

  private:
    struct Event {
        char ph;
        int pid;
        int tid;
        std::string name;
        const char *cat;
        double ts;
        double dur;
    };

    void record(Event &&e);

    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::size_t limit_ = std::size_t(1) << 20;
    std::uint64_t dropped_ = 0;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_TRACE_EVENT_HH
