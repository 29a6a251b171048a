/**
 * @file
 * Chrome trace-event (Perfetto-loadable) export.
 *
 * One TraceEventSink collects events on two synthetic processes:
 *
 *   pid 1 ("simulated time") — timestamps are simulated microseconds
 *     (CPU cycles / 4000 at the paper's 4 GHz clock): bank ACT->PRE
 *     windows, refresh, core park spans.
 *   pid 2 ("host wall-clock") — timestamps are microseconds of real
 *     time since process start: sampled-simulation stages.
 *
 * Load the written file at https://ui.perfetto.dev or
 * chrome://tracing. The sink is mutex-protected so sweep workers can
 * record concurrently; the event cap turns overflow into a drop
 * counter rather than unbounded memory.
 */

#ifndef CCSIM_OBS_TRACE_EVENT_HH
#define CCSIM_OBS_TRACE_EVENT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ccsim::obs {

/** Synthetic pid for simulated-time events. */
constexpr int kPidSim = 1;
/** Synthetic pid for host wall-clock events. */
constexpr int kPidHost = 2;

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

/**
 * Process-wide host wall-clock tracer. Telemetry attaches its sink
 * here while a run is live; HostSpan below is a no-op (one relaxed
 * atomic load) when nothing is attached, so host-side instrumentation
 * can stay unconditional.
 * Thread ids are mapped to small dense tids in attach order.
 */
class HostTracer
{
  public:
    static HostTracer &instance();

    void attach(TraceEventSink *sink);
    void detach();
    bool enabled() const { return sink_.load(std::memory_order_relaxed); }

    /** Microseconds of steady host time since process start. */
    double nowUs() const;

    /** Dense tid for the calling thread (0 = first caller). */
    int currentTid();

    void span(const std::string &name, const char *cat, double t0_us,
              double t1_us);

  private:
    HostTracer();

    std::atomic<TraceEventSink *> sink_{nullptr};
    std::mutex tidMu_;
    std::vector<std::uint64_t> tids_; // hashed thread-id -> index
    std::uint64_t epochNs_ = 0;
};

/** RAII host wall-clock span ("cat" must be a string literal). */
class HostSpan
{
  public:
    HostSpan(const char *name, const char *cat)
        : name_(name), cat_(cat),
          t0_(HostTracer::instance().enabled()
                  ? HostTracer::instance().nowUs()
                  : -1.0)
    {}

    ~HostSpan()
    {
        if (t0_ >= 0.0) {
            HostTracer &ht = HostTracer::instance();
            ht.span(name_, cat_, t0_, ht.nowUs());
        }
    }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    const char *name_;
    const char *cat_;
    double t0_;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_TRACE_EVENT_HH
