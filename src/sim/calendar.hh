/**
 * @file
 * Calendar-queue (bucketed timing-wheel) event plumbing for the
 * KernelMode::Calendar simulation kernel.
 *
 * The wheel holds timestamped events — parked-core self-wakes and
 * memory-controller horizons — so the kernel's "when does anything next
 * happen" question is answered by the queue instead of polling every
 * component's nextEventAt() per iteration. Events are lazily
 * invalidated: the wheel may deliver an event whose source has since
 * moved on, and the kernel revalidates against the source on delivery
 * (a stale stop costs one idle iteration and can never skip a real
 * event, because reposting only ever *adds* entries).
 *
 * Structure: N buckets of W cycles each cover a sliding window of N*W
 * cycles starting at the cursor; an occupancy bitmap finds the next
 * non-empty bucket in O(buckets/64). Events beyond the window overflow
 * into a min-heap and spill back into buckets as the cursor advances,
 * so arbitrarily distant events (the refresh heartbeat is ~31k CPU
 * cycles out) cost one heap hop instead of forcing a huge wheel.
 */

#ifndef CCSIM_SIM_CALENDAR_HH
#define CCSIM_SIM_CALENDAR_HH

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace ccsim::sim {

class TimingWheel
{
  public:
    /** Event payload: the kernel encodes (kind, index) in 32 bits. */
    using Payload = std::uint32_t;

    /**
     * @param bucket_log2 log2 of the bucket width in CPU cycles.
     * @param count_log2 log2 of the bucket count. The window spans
     *        2^(bucket_log2 + count_log2) cycles (default 64 * 1024 =
     *        65536, comfortably past one tREFI at cpuRatio 5).
     * @param min_count_log2 / @param max_count_log2 adaptive-resize
     *        caps on count_log2 (-1 = derive: never below
     *        min(count_log2, 6), never above max(count_log2, 14)).
     */
    explicit TimingWheel(int bucket_log2 = 6, int count_log2 = 10,
                         int min_count_log2 = -1,
                         int max_count_log2 = -1)
        : shift_(bucket_log2), countLog2_(count_log2),
          minCountLog2_(min_count_log2 >= 0 ? min_count_log2
                                            : std::min(count_log2, 6)),
          maxCountLog2_(max_count_log2 >= 0 ? max_count_log2
                                            : std::max(count_log2, 14)),
          mask_((std::size_t(1) << count_log2) - 1),
          buckets_(std::size_t(1) << count_log2),
          occ_((buckets_.size() + 63) / 64, 0)
    {
        CCSIM_ASSERT(minCountLog2_ <= countLog2_ &&
                         countLog2_ <= maxCountLog2_,
                     "resize caps must bracket the initial bucket count");
    }

    /** Schedule `payload` for cycle `t` (must not be in the past). */
    void
    post(CpuCycle t, Payload payload)
    {
        std::uint64_t b = t >> shift_;
        CCSIM_ASSERT(b >= curBucket_, "posting an event into the past");
        if (t < minCache_)
            minCache_ = t;
        if (b < curBucket_ + buckets_.size()) {
            std::size_t slot = b & mask_;
            buckets_[slot].push_back({t, payload});
            occ_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            ++inWheel_;
        } else {
            overflow_.push({t, payload});
        }
        maybeResize();
    }

    /**
     * Deliver (and remove) every event with cycle <= `now`, advancing
     * the cursor. `now` must be monotonically non-decreasing across
     * calls. The cached minimum makes the common active-kernel case
     * (nothing due this cycle) a single compare — the cursor is only
     * moved when something is actually due, which is safe because a
     * lagging cursor merely classifies more posts as overflow.
     */
    template <typename Fn>
    void
    drainUpTo(CpuCycle now, Fn &&deliver)
    {
        if (now < minCache_)
            return; // Nothing due: cursor advance can wait.
        std::uint64_t target = now >> shift_;
        while (true) {
            if (inWheel_ == 0) {
                // Empty window: leap the cursor instead of walking
                // every bucket the lazy fast path let it fall behind
                // by. Land on the overflow head's bucket (its entries
                // may be due) or the target, whichever comes first.
                std::uint64_t leap = target;
                if (!overflow_.empty())
                    leap = std::min(leap, overflow_.top().t >> shift_);
                if (leap > curBucket_) {
                    curBucket_ = leap;
                    refillFromOverflow();
                }
            }
            std::size_t slot = curBucket_ & mask_;
            auto &vec = buckets_[slot];
            if (!vec.empty()) {
                if (curBucket_ < target) {
                    // Whole bucket is in the past: deliver everything.
                    for (const Entry &e : vec)
                        deliver(e.payload);
                    inWheel_ -= vec.size();
                    vec.clear();
                } else {
                    // Cursor bucket: deliver due entries, keep the rest.
                    std::size_t keep = 0;
                    for (std::size_t i = 0; i < vec.size(); ++i) {
                        if (vec[i].t <= now) {
                            deliver(vec[i].payload);
                            --inWheel_;
                        } else {
                            vec[keep++] = vec[i];
                        }
                    }
                    vec.resize(keep);
                }
            }
            if (vec.empty())
                occ_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
            if (curBucket_ >= target)
                break;
            ++curBucket_;
            refillFromOverflow();
        }
        minCache_ = nextEventAt();
    }

    /**
     * Earliest scheduled cycle, or kNoCycle when empty. After
     * drainUpTo(now) this is strictly greater than `now` — the jump
     * horizon for the calendar kernel.
     */
    CpuCycle
    nextEventAt() const
    {
        if (inWheel_ == 0)
            return overflow_.empty() ? kNoCycle : overflow_.top().t;
        // Bitmap scan from the cursor bucket to the first occupied one.
        std::uint64_t b = curBucket_;
        std::size_t slot = b & mask_;
        std::size_t word = slot >> 6;
        std::uint64_t bits = occ_[word] & (~std::uint64_t(0) << (slot & 63));
        // The window wraps mod N; scan at most every word twice.
        for (std::size_t n = 0; n <= 2 * occ_.size(); ++n) {
            if (bits) {
                std::size_t s = (word << 6) + ctz64(bits);
                CpuCycle best = kNoCycle;
                for (const Entry &e : buckets_[s])
                    best = e.t < best ? e.t : best;
                CCSIM_ASSERT(best != kNoCycle, "occupancy bit without events");
                return best;
            }
            word = (word + 1) % occ_.size();
            bits = occ_[word];
        }
        CCSIM_PANIC("wheel count non-zero but no occupied bucket");
    }

    /** Scheduled events (wheel + overflow). */
    std::size_t
    size() const
    {
        return inWheel_ + overflow_.size();
    }

    /** Current bucket count (changes under adaptive resize). */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Adaptive grow/shrink operations performed so far. */
    std::uint64_t resizes() const { return resizes_; }

  private:
    /**
     * Density check cadence: the grow/shrink comparison runs every
     * 2^kResizeCheckLog2 posts, so a transient burst cannot thrash the
     * geometry and the steady-state cost is one counter increment.
     */
    static constexpr std::uint64_t kResizeCheckLog2 = 6;
    struct Entry {
        CpuCycle t;
        Payload payload;

        bool operator>(const Entry &o) const { return t > o.t; }
    };

    void
    refillFromOverflow()
    {
        while (!overflow_.empty() &&
               (overflow_.top().t >> shift_) <
                   curBucket_ + buckets_.size()) {
            const Entry &e = overflow_.top();
            std::size_t slot = (e.t >> shift_) & mask_;
            buckets_[slot].push_back(e);
            occ_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            ++inWheel_;
            overflow_.pop();
        }
    }

    /**
     * Classic calendar-queue adaptive resize, amortized behind a post
     * counter: double the bucket count when live events outnumber
     * buckets ~2x (cursor-bucket re-scans start to bite), halve it
     * when they fall below 1/8th (the bitmap scan and cursor walk pay
     * for empty acreage). The bucket *width* (shift_) never changes, so
     * an event's absolute bucket number is stable and only the
     * slot mapping (mod count) is rebuilt.
     */
    void
    maybeResize()
    {
        if ((++postCount_ & ((std::uint64_t(1) << kResizeCheckLog2) - 1)) != 0)
            return;
        std::size_t live = size();
        if (live > (buckets_.size() << 1) && countLog2_ < maxCountLog2_)
            rebuild(countLog2_ + 1);
        else if (live < (buckets_.size() >> 3) &&
                 countLog2_ > minCountLog2_)
            rebuild(countLog2_ - 1);
    }

    void
    rebuild(int count_log2)
    {
        // In-window entries all satisfy bucket >= curBucket_ (post
        // asserts it; drain removes everything due), so re-posting
        // them around the unchanged cursor can never trip the
        // into-the-past assertion. Entries whose bucket falls outside
        // the new window spill back to the overflow heap; a wider
        // window pulls overflow entries in. Distinct in-window
        // absolute buckets keep distinct slots (injective mod count),
        // so within-drain delivery grouping is preserved.
        std::vector<std::vector<Entry>> old = std::move(buckets_);
        countLog2_ = count_log2;
        mask_ = (std::size_t(1) << count_log2) - 1;
        buckets_.assign(std::size_t(1) << count_log2, {});
        occ_.assign((buckets_.size() + 63) / 64, 0);
        inWheel_ = 0;
        for (std::vector<Entry> &vec : old) {
            for (const Entry &e : vec) {
                std::uint64_t b = e.t >> shift_;
                CCSIM_ASSERT(b >= curBucket_,
                             "live wheel entry behind the cursor");
                if (b < curBucket_ + buckets_.size()) {
                    std::size_t slot = b & mask_;
                    buckets_[slot].push_back(e);
                    occ_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
                    ++inWheel_;
                } else {
                    overflow_.push(e);
                }
            }
        }
        refillFromOverflow();
        ++resizes_;
        // The event set is untouched, so minCache_ stays valid.
    }

    int shift_;
    int countLog2_;
    int minCountLog2_;
    int maxCountLog2_;
    std::size_t mask_;
    std::vector<std::vector<Entry>> buckets_;
    std::vector<std::uint64_t> occ_; ///< One bit per bucket.
    std::uint64_t curBucket_ = 0;    ///< Absolute bucket number of cursor.
    std::size_t inWheel_ = 0;        ///< Entries in buckets (not overflow).
    /**
     * Lower bound on the earliest scheduled cycle (exact right after a
     * drain; only lowered by posts in between) — drainUpTo's one-compare
     * fast path.
     */
    CpuCycle minCache_ = kNoCycle;
    std::uint64_t postCount_ = 0; ///< Amortizes the resize check.
    std::uint64_t resizes_ = 0;   ///< Grow + shrink operations.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        overflow_;
};

/**
 * Per-run state of the calendar kernel, owned by System while
 * System::runCalendar() executes. The LLC wake callbacks are bound
 * once at System::build() time; they route through this block (when
 * present) so a completion can move a parked core to the wake queue — or directly into the awake set when it fires
 * mid-core-phase for a core the id-ordered walk has not reached yet,
 * matching the per-cycle reference's visit order exactly.
 */
struct CalendarKernelState {
    explicit CalendarKernelState(std::size_t cores)
        : parkedSince(cores, kNoCycle), wakeQueued(cores, 0)
    {
        awake.reserve(cores);
        for (std::size_t i = 0; i < cores; ++i)
            awake.push_back(static_cast<int>(i));
    }

    TimingWheel wheel;
    /** Cycle since which core i's ticks are elided (kNoCycle = awake). */
    std::vector<CpuCycle> parkedSince;
    /** Awake core ids, sorted ascending (the reference tick order). */
    std::vector<int> awake;
    /** Cores to unpark at the next core phase (deduplicated). */
    std::vector<int> pendingWake;
    std::vector<char> wakeQueued;
    CpuCycle now = 0; ///< Cycle the kernel is currently executing.
    bool inCorePhase = false;
    int currentCore = -1;

    /**
     * Wheel payloads are core ids: the wheel carries per-core wake
     * events (arbitrary, sparse timestamps). Controller horizons are
     * posted into a dedicated per-channel slot array instead — they
     * move every DRAM cycle while serving, so slot repost beats
     * stale-entry churn on the wheel.
     */
    static TimingWheel::Payload
    coreEvent(int core)
    {
        return static_cast<TimingWheel::Payload>(core);
    }
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_CALENDAR_HH
