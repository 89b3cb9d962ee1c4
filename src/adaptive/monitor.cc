#include "adaptive/monitor.h"

namespace ajr {

template <size_t N>
void WindowSums<N>::Store(const Values& slot) {
  if (ring_.size() < slots_) {
    ring_.push_back(slot);
  } else {
    Values& oldest = ring_[head_];
    for (size_t i = 0; i < N; ++i) sums_[i] -= oldest[i];
    oldest = slot;
    if (++head_ == slots_) head_ = 0;
  }
  for (size_t i = 0; i < N; ++i) sums_[i] += slot[i];
}

template class WindowSums<2>;
template class WindowSums<4>;

}  // namespace ajr
