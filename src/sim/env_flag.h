// One on/off rule for the engine's boolean environment gates
// (PLEXUS_TRACE, PLEXUS_PROFILE, PLEXUS_CHAOS_FLAP, PLEXUS_SLAB,
// PLEXUS_BATCH): unset or empty selects the gate's default, "0" or "off"
// in any case turns it off, and anything else turns it on.
//
// Header-only because net/ reads gates through sim/slab.h without linking
// the sim library.
#ifndef PLEXUS_SIM_ENV_FLAG_H_
#define PLEXUS_SIM_ENV_FLAG_H_

#include <cstdlib>
#include <string_view>

namespace sim {

// The rule itself; `value` is the variable's text, nullptr when unset.
constexpr bool ParseEnvFlag(const char* value, bool fallback) {
  if (value == nullptr || value[0] == '\0') return fallback;
  const std::string_view v(value);
  // ASCII | 0x20 folds 'O'/'F' onto 'o'/'f' and maps no other byte there.
  const bool is_off = v.size() == 3 && (v[0] | 0x20) == 'o' &&
                      (v[1] | 0x20) == 'f' && (v[2] | 0x20) == 'f';
  return !(v == "0" || is_off);
}

inline bool EnvFlag(const char* name, bool fallback) {
  return ParseEnvFlag(std::getenv(name), fallback);
}

}  // namespace sim

#endif  // PLEXUS_SIM_ENV_FLAG_H_
