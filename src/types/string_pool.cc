#include "types/string_pool.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace ajr {

uint32_t StringPool::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  AJR_CHECK(!sealed_);
  AJR_CHECK(strings_.size() < kInvalidId);
  strings_.emplace_back(s);
  uint32_t id = static_cast<uint32_t>(strings_.size() - 1);
  ids_.emplace(std::string_view(strings_.back()), id);
  bytes_ += s.size();
  return id;
}

std::optional<uint32_t> StringPool::Find(std::string_view s) const {
  auto it = ids_.find(s);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string_view StringPool::Get(uint32_t id) const {
  AJR_CHECK(id < strings_.size());
  return strings_[id];
}

std::vector<uint32_t> StringPool::Seal() {
  std::vector<uint32_t> by_rank(strings_.size());
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  if (!sealed_) {
    sealed_ = true;
    std::sort(by_rank.begin(), by_rank.end(),
              [this](uint32_t a, uint32_t b) { return strings_[a] < strings_[b]; });
    std::deque<std::string> sorted;
    for (uint32_t id : by_rank) sorted.push_back(std::move(strings_[id]));
    strings_ = std::move(sorted);
    ids_.clear();
    for (uint32_t id = 0; id < strings_.size(); ++id) ids_.emplace(strings_[id], id);
  }
  std::vector<uint32_t> new_id(by_rank.size());
  for (uint32_t rank = 0; rank < by_rank.size(); ++rank) new_id[by_rank[rank]] = rank;
  return new_id;
}

size_t StringPool::LowerBound(std::string_view s) const {
  AJR_CHECK(sealed_);
  auto it = std::lower_bound(strings_.begin(), strings_.end(), s,
                             [](const std::string& a, std::string_view b) { return a < b; });
  return static_cast<size_t>(it - strings_.begin());
}

}  // namespace ajr
