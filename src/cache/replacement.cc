#include "cache/replacement.h"

namespace redhip {

std::string to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return "lru";
    case ReplacementKind::kTreePlru:
      return "tree-plru";
    case ReplacementKind::kNru:
      return "nru";
    case ReplacementKind::kRandom:
      return "random";
  }
  return "unknown";
}

}  // namespace redhip
