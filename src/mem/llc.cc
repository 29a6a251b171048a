#include "mem/llc.hh"

#include <algorithm>
#include <map>

#include "common/log.hh"
#include "resilience/serial.hh"

namespace ccsim::mem {

Llc::Llc(const LlcConfig &config, const dram::AddressMapper &mapper,
         std::function<ctrl::MemPort *(int channel)> route,
         MissCallback on_miss_complete)
    : config_(config),
      mapper_(mapper),
      route_(std::move(route)),
      onMissComplete_(std::move(on_miss_complete))
{
    // Geometry comes from user configuration, so malformed values are
    // reported as structured errors rather than aborting the process.
    if (config_.lineBytes <= 0 || config_.ways <= 0 ||
        config_.sizeBytes %
                static_cast<std::uint64_t>(config_.lineBytes) !=
            0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC size must be a positive multiple of the line size");
    std::uint64_t lines =
        config_.sizeBytes / static_cast<std::uint64_t>(config_.lineBytes);
    if (lines % config_.ways != 0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC line count must divide evenly into ways");
    sets_ = static_cast<int>(lines / config_.ways);
    if (!isPow2(static_cast<std::uint64_t>(sets_)))
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC set count must be a power of two");
    lines_.resize(lines);
    mshrInUse_.assign(64, 0); // up to 64 cores
    blockedLine_.assign(64, kNoAddr);
}

Llc::Line *
Llc::findLine(Addr line_addr)
{
    std::uint64_t set = line_addr & (sets_ - 1);
    std::uint64_t tag = line_addr >> log2Exact(sets_);
    Line *base = &lines_[set * config_.ways];
    for (int w = 0; w < config_.ways; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

Llc::Line *
Llc::victimFor(Addr line_addr)
{
    std::uint64_t set = line_addr & (sets_ - 1);
    Line *base = &lines_[set * config_.ways];
    Line *victim = &base[0];
    for (int w = 0; w < config_.ways; ++w) {
        if (!base[w].valid)
            return &base[w];
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    return victim;
}

void
Llc::installLine(Addr line_addr, bool dirty)
{
    // Wake cores parked on a Blocked access to this line: their next
    // probe would now hit, so the event kernel must tick them again.
    if (watchCount_ > 0) {
        for (std::size_t c = 0; c < static_cast<std::size_t>(watchLimit_);
             ++c) {
            if (blockedLine_[c] != line_addr)
                continue;
            blockedLine_[c] = kNoAddr;
            --watchCount_;
            if (onWake_)
                onWake_(static_cast<int>(c));
        }
    }
    std::uint64_t set = line_addr & (sets_ - 1);
    Line *victim = victimFor(line_addr);
    if (victim->valid && victim->dirty) {
        Addr victim_addr =
            (victim->tag << log2Exact(sets_)) | set;
        writebackQ_.push_back(victim_addr);
        drainBlocked_ = false;
        ++stats_.writebacks;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = line_addr >> log2Exact(sets_);
    victim->lru = ++lruClock_;
}

bool
Llc::sendFetch(Addr line_addr)
{
    auto it = mshrs_.find(line_addr);
    CCSIM_ASSERT(it != mshrs_.end(), "fetch without MSHR");
    ctrl::Request req;
    req.type = ctrl::ReqType::Read;
    req.lineAddr = line_addr;
    req.addr = mapper_.decode(line_addr);
    req.coreId = it->second.waiters.front().core;
    req.isPtw = it->second.isPtw;
    req.ptwLevel = it->second.ptwLevel;
    req.callback = &Llc::fillCallback;
    req.callbackCtx = this;
    ctrl::MemPort *mc = route_(req.addr.channel);
    if (!mc->canAccept(ctrl::ReqType::Read))
        return false;
    // Mark before enqueue: `it` must not be touched afterwards (the
    // controller owns the request from here on).
    it->second.issued = true;
    mc->enqueue(std::move(req));
    return true;
}

Llc::Result
Llc::access(int core, Addr line_addr, bool is_write, std::uint64_t token,
            bool is_ptw, int ptw_level)
{
    ++stats_.accesses;
    // Drop a stale park-watch once the core retries (it either
    // succeeds below, or re-registers on another Blocked return).
    if (watchCount_ > 0 && blockedLine_[core] != kNoAddr) {
        blockedLine_[core] = kNoAddr;
        --watchCount_;
    }
    if (Line *line = findLine(line_addr)) {
        line->lru = ++lruClock_;
        line->dirty |= is_write;
        ++stats_.hits;
        return Result::Hit;
    }
    // Victim-buffer hit: the line was evicted dirty but not yet drained.
    auto wb = std::find(writebackQ_.begin(), writebackQ_.end(), line_addr);
    if (wb != writebackQ_.end()) {
        writebackQ_.erase(wb);
        drainBlocked_ = false; // Queue front may have changed.
        installLine(line_addr, true);
        ++stats_.hits;
        return Result::Hit;
    }
    if (mshrInUse_[core] >= config_.mshrsPerCore) {
        ++stats_.blockedMshr;
        // Park notification (event kernel only): the blocked core will
        // retry this same line until it succeeds, so watch for the line
        // appearing via another core's fill or a victim-buffer
        // promotion (its own MSHRs freeing is reported through the miss
        // callback instead).
        if (onWake_) {
            if (blockedLine_[core] == kNoAddr)
                ++watchCount_;
            blockedLine_[core] = line_addr;
            if (core >= watchLimit_)
                watchLimit_ = core + 1;
        }
        return Result::Blocked;
    }
    auto it = mshrs_.find(line_addr);
    if (it != mshrs_.end()) {
        it->second.waiters.push_back({core, token, is_write});
        ++mshrInUse_[core];
        ++stats_.mshrMerges;
        return Result::Miss;
    }
    MshrEntry entry;
    entry.isPtw = is_ptw;
    entry.ptwLevel = static_cast<std::int8_t>(ptw_level);
    entry.waiters.push_back({core, token, is_write});
    auto [ins, ok] = mshrs_.emplace(line_addr, std::move(entry));
    CCSIM_ASSERT(ok, "duplicate MSHR");
    (void)ins;
    ++mshrInUse_[core];
    ++stats_.misses;
    if (!sendFetch(line_addr)) {
        fetchRetryQ_.push_back(line_addr);
        drainBlocked_ = false;
        ++stats_.blockedMemQueue;
    }
    return Result::Miss;
}

void
Llc::onFill(Addr line_addr)
{
    auto it = mshrs_.find(line_addr);
    CCSIM_ASSERT(it != mshrs_.end(), "fill without MSHR");
    bool dirty = false;
    for (const auto &w : it->second.waiters)
        dirty |= w.isWrite;
    installLine(line_addr, dirty);
    // Notify after erasing so callbacks can re-access the cache.
    std::vector<MshrEntry::Waiter> waiters =
        std::move(it->second.waiters);
    mshrs_.erase(it);
    for (const auto &w : waiters) {
        --mshrInUse_[w.core];
        CCSIM_ASSERT(mshrInUse_[w.core] >= 0, "MSHR accounting broke");
        if (onMissComplete_)
            onMissComplete_(w.core, w.token);
    }
}

void
Llc::tick()
{
    while (!fetchRetryQ_.empty()) {
        Addr line_addr = fetchRetryQ_.front();
        auto it = mshrs_.find(line_addr);
        if (it == mshrs_.end() || it->second.issued) {
            fetchRetryQ_.pop_front(); // stale entry
            continue;
        }
        if (!sendFetch(line_addr))
            break;
        fetchRetryQ_.pop_front();
    }
    while (!writebackQ_.empty()) {
        Addr line_addr = writebackQ_.front();
        ctrl::Request req;
        req.type = ctrl::ReqType::Write;
        req.lineAddr = line_addr;
        req.addr = mapper_.decode(line_addr);
        req.coreId = -1;
        ctrl::MemPort *mc = route_(req.addr.channel);
        if (!mc->canAccept(ctrl::ReqType::Write))
            break;
        mc->enqueue(std::move(req));
        writebackQ_.pop_front();
    }
    drainBlocked_ = !fetchRetryQ_.empty() || !writebackQ_.empty();
}

bool
Llc::warmAccess(Addr line_addr, bool is_write, Addr *evicted_dirty)
{
    if (evicted_dirty)
        *evicted_dirty = kNoAddr;
    if (Line *line = findLine(line_addr)) {
        line->lru = ++lruClock_;
        line->dirty = line->dirty || is_write;
        return true;
    }
    std::uint64_t set = line_addr & (sets_ - 1);
    Line *victim = victimFor(line_addr);
    if (victim->valid && victim->dirty && evicted_dirty)
        *evicted_dirty = (victim->tag << log2Exact(sets_)) | set;
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = line_addr >> log2Exact(sets_);
    victim->lru = ++lruClock_;
    return false;
}

void
Llc::fillCallback(void *ctx, const ctrl::Request &req, Cycle)
{
    static_cast<Llc *>(ctx)->onFill(req.lineAddr);
}

void
Llc::saveState(resilience::SnapshotWriter &w) const
{
    // Field-wise (not raw struct) dumps: Line and Waiter carry padding
    // bytes, and snapshots must be byte-deterministic.
    w.put(static_cast<std::uint64_t>(lines_.size()));
    for (const Line &l : lines_) {
        w.put(static_cast<std::uint64_t>(l.tag));
        w.put(l.lru);
        w.put(static_cast<bool>(l.valid));
        w.put(static_cast<bool>(l.dirty));
    }
    w.put(lruClock_);
    std::map<Addr, const MshrEntry *> sorted;
    for (const auto &kv : mshrs_)
        sorted.emplace(kv.first, &kv.second);
    w.put(static_cast<std::uint64_t>(sorted.size()));
    for (const auto &[addr, entry] : sorted) {
        w.put(addr);
        w.put(static_cast<std::uint64_t>(entry->waiters.size()));
        for (const MshrEntry::Waiter &wt : entry->waiters) {
            w.put(wt.core);
            w.put(wt.token);
            w.put(wt.isWrite);
        }
        w.put(entry->issued);
        w.put(entry->isPtw);
        w.put(entry->ptwLevel);
    }
    w.putVec(mshrInUse_);
    w.putDeque(fetchRetryQ_);
    w.putDeque(writebackQ_);
    w.putVec(blockedLine_);
    w.put(watchCount_);
    w.put(watchLimit_);
    w.put(drainBlocked_);
    w.put(stats_);
}

void
Llc::loadState(resilience::SnapshotReader &r)
{
    std::uint64_t n_lines = r.get<std::uint64_t>();
    if (n_lines != lines_.size())
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "LLC line-array size mismatch in snapshot");
    for (Line &l : lines_) {
        l.tag = r.get<std::uint64_t>();
        r.get(l.lru);
        l.valid = r.get<bool>();
        l.dirty = r.get<bool>();
    }
    r.get(lruClock_);
    mshrs_.clear();
    std::uint64_t n_mshrs = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_mshrs; ++i) {
        Addr addr = r.get<Addr>();
        MshrEntry entry;
        std::uint64_t n_waiters = r.get<std::uint64_t>();
        entry.waiters.resize(n_waiters);
        for (MshrEntry::Waiter &wt : entry.waiters) {
            r.get(wt.core);
            r.get(wt.token);
            r.get(wt.isWrite);
        }
        r.get(entry.issued);
        r.get(entry.isPtw);
        r.get(entry.ptwLevel);
        mshrs_.emplace(addr, std::move(entry));
    }
    r.getVec(mshrInUse_);
    r.getDeque(fetchRetryQ_);
    r.getDeque(writebackQ_);
    r.getVec(blockedLine_);
    r.get(watchCount_);
    r.get(watchLimit_);
    r.get(drainBlocked_);
    r.get(stats_);
}

} // namespace ccsim::mem
