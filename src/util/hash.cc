#include "util/hash.h"

namespace gms {

PolyHash::PolyHash(int independence, uint64_t seed) {
  GMS_CHECK_MSG(independence >= 2, "need independence >= 2");
  GMS_CHECK_MSG(independence <= kMaxPolyIndependence,
                "independence exceeds the inline coefficient cap");
  Rng rng(seed);
  t_ = independence;
  for (int i = 0; i < t_; ++i) {
    // Uniform in [0, p).
    coeffs_[i] = rng.Below(kMersenne61);
  }
  // Leading coefficient nonzero so the polynomial has full degree.
  if (coeffs_[0] == 0) coeffs_[0] = 1;
  mixer_ = rng.Below(kMersenne61 - 1) + 1;  // nonzero
}

}  // namespace gms
