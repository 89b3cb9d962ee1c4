#include "exec/probe_cache_shared.h"

#include <functional>

namespace ajr {

namespace {

/// Power of two >= 2 * capacity: <= 50% load keeps probe chains short.
size_t IndexSizeFor(size_t capacity) {
  size_t n = 2;
  while (n < capacity * 2) n <<= 1;
  return n;
}

size_t PowerOfTwoAtLeast(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// splitmix64 finalizer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

SharedProbeCache::SharedProbeCache(size_t entries_per_stripe, size_t stripes)
    : stripe_capacity_(entries_per_stripe) {
  const size_t n = PowerOfTwoAtLeast(stripes == 0 ? 1 : stripes);
  stripe_mask_ = n - 1;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto st = std::make_unique<Stripe>();
    if (stripe_capacity_ > 0) {
      st->slots.resize(stripe_capacity_);
      st->index.assign(IndexSizeFor(stripe_capacity_), kNil);
      st->mask = st->index.size() - 1;
    }
    stripes_.push_back(std::move(st));
  }
}

uint64_t SharedProbeCache::LegSignature(const void* probe_index,
                                        std::string_view predicate_fingerprint,
                                        uint32_t epoch) {
  uint64_t h = Mix64(reinterpret_cast<uintptr_t>(probe_index));
  h = Mix64(h ^ std::hash<std::string_view>()(predicate_fingerprint));
  return Mix64(h ^ epoch);
}

uint64_t SharedProbeCache::HashKey(uint64_t sig, const IndexKey& key) {
  uint64_t h = key.type == DataType::kString
                   ? std::hash<std::string_view>()(key.str)
                   : Mix64(key.enc);
  return Mix64(h ^ sig);
}

bool SharedProbeCache::SlotMatches(const Slot& s, uint64_t hash, uint64_t sig,
                                   const IndexKey& key) {
  if (s.hash != hash || s.sig != sig) return false;
  if (key.type == DataType::kString) return s.is_string && s.str == key.str;
  return !s.is_string && s.enc == key.enc;
}

void SharedProbeCache::Unlink(Stripe& st, uint32_t s) {
  Slot& slot = st.slots[s];
  if (slot.lru_prev != kNil) {
    st.slots[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    st.lru_head = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    st.slots[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    st.lru_tail = slot.lru_prev;
  }
  slot.lru_prev = slot.lru_next = kNil;
}

void SharedProbeCache::PushFront(Stripe& st, uint32_t s) {
  Slot& slot = st.slots[s];
  slot.lru_prev = kNil;
  slot.lru_next = st.lru_head;
  if (st.lru_head != kNil) st.slots[st.lru_head].lru_prev = s;
  st.lru_head = s;
  if (st.lru_tail == kNil) st.lru_tail = s;
}

void SharedProbeCache::EraseIndexAt(Stripe& st, size_t pos) {
  size_t hole = pos;
  size_t j = pos;
  while (true) {
    j = (j + 1) & st.mask;
    uint32_t s = st.index[j];
    if (s == kNil) break;
    size_t home = st.slots[s].hash & st.mask;
    if (((j - home) & st.mask) >= ((j - hole) & st.mask)) {
      st.index[hole] = s;
      hole = j;
    }
  }
  st.index[hole] = kNil;
}

std::unique_lock<std::mutex> SharedProbeCache::LockStripe(Stripe& st,
                                                          bool* conflict) {
  std::unique_lock<std::mutex> lock(st.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (conflict != nullptr) *conflict = true;
    lock.lock();
  }
  return lock;
}

bool SharedProbeCache::Lookup(uint64_t sig, const IndexKey& key, Result* out,
                              bool* conflict) {
  if (stripe_capacity_ == 0) return false;
  const uint64_t h = HashKey(sig, key);
  Stripe& st = StripeFor(h);
  std::unique_lock<std::mutex> lock = LockStripe(st, conflict);
  size_t pos = h & st.mask;
  while (st.index[pos] != kNil) {
    uint32_t s = st.index[pos];
    if (SlotMatches(st.slots[s], h, sig, key)) {
      if (st.lru_head != s) {
        Unlink(st, s);
        PushFront(st, s);
      }
      const Result& r = st.slots[s].result;
      out->matches.assign(r.matches.begin(), r.matches.end());
      out->fetched = r.fetched;
      out->work_units = r.work_units;
      return true;
    }
    pos = (pos + 1) & st.mask;
  }
  return false;
}

void SharedProbeCache::Insert(uint64_t sig, const IndexKey& key,
                              const std::vector<Rid>& matches, uint64_t fetched,
                              uint64_t work_units, bool* conflict) {
  if (stripe_capacity_ == 0) return;
  if (matches.size() > kMaxMatchesPerEntry) return;
  const uint64_t h = HashKey(sig, key);
  Stripe& st = StripeFor(h);
  std::unique_lock<std::mutex> lock = LockStripe(st, conflict);
  size_t pos = h & st.mask;
  while (st.index[pos] != kNil) {
    uint32_t s = st.index[pos];
    if (SlotMatches(st.slots[s], h, sig, key)) {
      // Refresh: probes are deterministic, but overwriting keeps Insert
      // idempotent for racing producers of the same key.
      Slot& slot = st.slots[s];
      slot.result.matches.assign(matches.begin(), matches.end());
      slot.result.fetched = fetched;
      slot.result.work_units = work_units;
      if (st.lru_head != s) {
        Unlink(st, s);
        PushFront(st, s);
      }
      return;
    }
    pos = (pos + 1) & st.mask;
  }

  uint32_t s;
  if (st.used < stripe_capacity_) {
    s = static_cast<uint32_t>(st.used++);
  } else {
    // Recycle the stripe's LRU victim in place (buffers keep capacity).
    s = st.lru_tail;
    Unlink(st, s);
    size_t victim_pos = st.slots[s].hash & st.mask;
    while (st.index[victim_pos] != s) victim_pos = (victim_pos + 1) & st.mask;
    EraseIndexAt(st, victim_pos);
  }

  Slot& slot = st.slots[s];
  slot.hash = h;
  slot.sig = sig;
  slot.is_string = key.type == DataType::kString;
  if (slot.is_string) {
    slot.str.assign(key.str.data(), key.str.size());
    slot.enc = 0;
  } else {
    slot.enc = key.enc;
    slot.str.clear();
  }
  slot.result.matches.assign(matches.begin(), matches.end());
  slot.result.fetched = fetched;
  slot.result.work_units = work_units;

  pos = h & st.mask;
  while (st.index[pos] != kNil) pos = (pos + 1) & st.mask;
  st.index[pos] = s;
  PushFront(st, s);
}

size_t SharedProbeCache::size() const {
  size_t total = 0;
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> lock(st->mu);
    total += st->used;
  }
  return total;
}

}  // namespace ajr
