#include "chargecache/hcrac.hh"

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::chargecache {

const char *
insertPolicyName(InsertPolicy policy)
{
    switch (policy) {
      case InsertPolicy::Lru:
        return "LRU";
      case InsertPolicy::Lip:
        return "LIP";
      case InsertPolicy::Bip:
        return "BIP";
    }
    return "?";
}

Hcrac::Hcrac(const Params &params)
    : ways_(params.ways),
      policy_(params.policy),
      bipEpsilon_(params.bipEpsilon),
      rng_(params.seed),
      warmRng_(params.seed)
{
    CCSIM_ASSERT(params.entries > 0 && params.ways > 0,
                 "HCRAC geometry must be positive");
    CCSIM_ASSERT(params.entries % params.ways == 0,
                 "HCRAC entries must divide into ways");
    sets_ = params.entries / params.ways;
    entries_.resize(static_cast<size_t>(params.entries));
}

std::size_t
Hcrac::setIndex(std::uint64_t key) const
{
    return static_cast<size_t>(mix64(key) % static_cast<std::uint64_t>(sets_));
}

Hcrac::Entry *
Hcrac::find(std::uint64_t key)
{
    Entry *set = &entries_[setIndex(key) * ways_];
    for (int w = 0; w < ways_; ++w)
        if (set[w].valid && set[w].key == key)
            return &set[w];
    return nullptr;
}

bool
Hcrac::lookup(std::uint64_t key)
{
    ++stats_.lookups;
    Entry *e = find(key);
    if (!e)
        return false;
    ++stats_.hits;
    e->stamp = ++clock_;
    return true;
}

void
Hcrac::insert(std::uint64_t key)
{
    insertWith(key, rng_);
}

void
Hcrac::warmInsert(std::uint64_t key)
{
    insertWith(key, warmRng_);
}

void
Hcrac::insertWith(std::uint64_t key, Rng &rng)
{
    ++stats_.inserts;
    if (Entry *e = find(key)) {
        // Row was precharged again: the entry is fresh; promote it.
        e->stamp = ++clock_;
        return;
    }
    Entry *set = &entries_[setIndex(key) * ways_];
    Entry *victim = nullptr;
    for (int w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
    }
    if (!victim) {
        victim = &set[0];
        for (int w = 1; w < ways_; ++w)
            if (set[w].stamp < victim->stamp)
                victim = &set[w];
        ++stats_.evictions;
    } else {
        ++valid_;
    }
    victim->valid = true;
    victim->key = key;
    switch (policy_) {
      case InsertPolicy::Lru:
        victim->stamp = ++clock_;
        break;
      case InsertPolicy::Lip:
        victim->stamp = 0; // LRU position: first out.
        break;
      case InsertPolicy::Bip:
        victim->stamp = rng.chance(bipEpsilon_) ? ++clock_ : 0;
        break;
    }
}

void
Hcrac::invalidateEntry(std::size_t idx)
{
    CCSIM_ASSERT(idx < entries_.size(), "HCRAC sweep index out of range");
    if (entries_[idx].valid) {
        entries_[idx].valid = false;
        --valid_;
        ++stats_.sweepInvalidations;
    }
}

void
Hcrac::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
    valid_ = 0;
}

SweepInvalidator::SweepInvalidator(Cycle duration_cycles, int entries)
    : entries_(entries)
{
    CCSIM_ASSERT(entries > 0, "invalidator needs entries");
    period_ = std::max<Cycle>(1, duration_cycles / entries);
    nextDue_ = period_;
}

void
SweepInvalidator::advanceTo(Cycle now, Hcrac &cache)
{
    while (nextDue_ <= now) {
        cache.invalidateEntry(ec_);
        ec_ = (ec_ + 1) % static_cast<size_t>(entries_);
        nextDue_ += period_;
    }
}

UnlimitedHcrac::UnlimitedHcrac(Cycle duration_cycles)
    : duration_(duration_cycles), slots_(1024), mask_(slots_.size() - 1)
{
}

UnlimitedHcrac::Slot *
UnlimitedHcrac::find(std::uint64_t key)
{
    std::size_t idx = static_cast<std::size_t>(mix64(key)) & mask_;
    while (slots_[idx].used && slots_[idx].key != key)
        idx = (idx + 1) & mask_;
    return &slots_[idx];
}

void
UnlimitedHcrac::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot());
    mask_ = slots_.size() - 1;
    for (const Slot &s : old) {
        if (!s.used)
            continue;
        Slot *dst = find(s.key);
        *dst = s;
    }
}

void
UnlimitedHcrac::insert(std::uint64_t key, Cycle now)
{
    Slot *slot = find(key);
    if (!slot->used) {
        // Keep the load factor under ~70% so probes stay short.
        if ((count_ + 1) * 10 > slots_.size() * 7) {
            grow();
            slot = find(key);
        }
        slot->used = true;
        slot->key = key;
        ++count_;
    }
    slot->stamp = now;
}

bool
UnlimitedHcrac::lookup(std::uint64_t key, Cycle now)
{
    ++stats_.lookups;
    Slot *slot = find(key);
    if (!slot->used)
        return false;
    if (now - slot->stamp <= duration_) {
        ++stats_.hits;
        return true;
    }
    return false;
}


void
Hcrac::saveState(resilience::SnapshotWriter &w) const
{
    w.putVec(entries_);
    w.put(clock_);
    w.put(valid_);
    w.put(rng_.state());
    w.put(stats_);
}

void
Hcrac::loadState(resilience::SnapshotReader &r)
{
    r.getVec(entries_);
    r.get(clock_);
    r.get(valid_);
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    r.get(stats_);
}

void
SweepInvalidator::saveState(resilience::SnapshotWriter &w) const
{
    w.put(nextDue_);
    w.put<std::uint64_t>(ec_);
}

void
SweepInvalidator::loadState(resilience::SnapshotReader &r)
{
    r.get(nextDue_);
    ec_ = static_cast<std::size_t>(r.get<std::uint64_t>());
}

void
UnlimitedHcrac::saveState(resilience::SnapshotWriter &w) const
{
    w.putVec(slots_);
    w.put<std::uint64_t>(mask_);
    w.put<std::uint64_t>(count_);
    w.put(stats_);
}

void
UnlimitedHcrac::loadState(resilience::SnapshotReader &r)
{
    r.getVec(slots_);
    mask_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    count_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    r.get(stats_);
}

} // namespace ccsim::chargecache
