// StringPool: the catalog's interned-string dictionary.
//
// Typed row pages store every string column as a 32-bit pool id; the bytes
// live once in the catalog's pool, shared by every table, so id equality is
// string equality across tables. Loading interns strings in first-seen
// order; when loading ends the catalog seals the pool, which renumbers the
// ids into byte order (an order-preserving dictionary). From then on an
// ordered string compare is an id compare, and a string is a key like any
// other (see the key codec in row_layout.h).
//
// Thread safety: build-then-serve, like the rest of storage. Intern() and
// Seal() are writers and must be confined to the load phase; Find(), Get()
// and LowerBound() are const and safe for any number of concurrent readers
// afterwards.

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ajr {

/// Interns strings to dense uint32 ids with stable backing storage.
class StringPool {
 public:
  static constexpr uint32_t kInvalidId = UINT32_MAX;

  /// Returns the id for `s`, interning it on first sight. A sealed pool
  /// takes no new strings: interning one it lacks fails a check.
  uint32_t Intern(std::string_view s);

  /// Id of `s` if already interned; nullopt otherwise. Never mutates.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// The bytes for `id`. The view is stable until the pool is sealed, and
  /// from then on for the pool's lifetime.
  std::string_view Get(uint32_t id) const;

  /// Renumbers the ids into byte order and returns the old-to-new id map:
  /// the string that had id `old` has id `map[old]` afterwards. A sealed
  /// pool's ids are final, so a second call returns the identity.
  std::vector<uint32_t> Seal();
  bool sealed() const { return sealed_; }

  /// Number of pool strings below `s` in byte order. Sealed pools only.
  size_t LowerBound(std::string_view s) const;

  size_t size() const { return strings_.size(); }
  /// Total interned bytes (diagnostics).
  size_t bytes() const { return bytes_; }

 private:
  // deque keeps element addresses stable across growth, so the string_view
  // keys in ids_ (and views handed to callers) never dangle.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  size_t bytes_ = 0;
  bool sealed_ = false;
};

}  // namespace ajr
