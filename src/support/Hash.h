//===- support/Hash.h - Platform-stable content hashing -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's one content-hash primitive: 64-bit FNV-1a.
/// std::hash is not stable across standard-library implementations,
/// but these hashes leak into artifacts that outlive a process --
/// golden-baseline run ids (stats::runId) and the on-disk
/// content-addressed cache of the serving layer (serve::DiskCache) --
/// so a fixed, platform-independent function is required.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_HASH_H
#define FPINT_SUPPORT_HASH_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace fpint {
namespace support {

/// 64-bit FNV-1a over \p S, optionally chained from a previous hash
/// (pass the prior result as \p Seed to hash a concatenation without
/// materializing it).
inline uint64_t fnv1a64(const std::string &S,
                        uint64_t Seed = 1469598103934665603ULL) {
  uint64_t H = Seed;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

/// Fixed-width lower-case hex spelling of \p H (16 digits).
inline std::string hex64(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The repository's one content-key builder: FNV-1a chained over the
/// added parts, every part after the first preceded by a 0x1f unit
/// separator (so moving bytes across a part boundary changes the key).
/// Its keys name durable state -- serve disk-cache entries, campaign
/// and fuzz journals -- so the spelling must never change.
class ContentKey {
public:
  ContentKey &add(const std::string &Part) {
    if (Started)
      H = fnv1a64("\x1f", H);
    H = fnv1a64(Part, H);
    Started = true;
    return *this;
  }

  /// 16 lower-case hex digits.
  std::string hex() const { return hex64(H); }

private:
  uint64_t H = fnv1a64("");
  bool Started = false;
};

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_HASH_H
