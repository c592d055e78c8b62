// Integer fixed-point accumulation of non-memory instruction time.
//
// The paper charges non-memory instructions at each application's average
// CPI.  Multiplying an instruction gap by a floating-point CPI and rounding
// per record would both drift and be platform-sensitive; instead we keep CPI
// in hundredths and carry the remainder exactly, so total time equals
// floor(total_gap * cpi) with zero drift.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/types.h"

namespace redhip {

class CpiAccumulator {
 public:
  // cpi_centi: cycles-per-instruction * 100 (e.g. 120 means CPI 1.2).
  explicit CpiAccumulator(std::uint32_t cpi_centi) : cpi_centi_(cpi_centi) {
    REDHIP_CHECK_MSG(cpi_centi > 0, "CPI must be positive");
  }

  // Returns the number of whole cycles `instructions` non-memory
  // instructions take, carrying fractional cycles to the next call.
  Cycles advance(std::uint64_t instructions) {
    remainder_centi_ += instructions * cpi_centi_;
    Cycles whole = remainder_centi_ / 100;
    remainder_centi_ %= 100;
    return whole;
  }

  std::uint32_t cpi_centi() const { return cpi_centi_; }
  std::uint64_t remainder_centi() const { return remainder_centi_; }
  // Checkpoint restore: reinstate a remainder previously read via
  // remainder_centi().  Always < 100 after any advance(), so the value
  // round-trips through a byte.
  void set_remainder_centi(std::uint64_t r) {
    REDHIP_DCHECK(r < 100);
    remainder_centi_ = r;
  }

 private:
  std::uint32_t cpi_centi_;
  std::uint64_t remainder_centi_ = 0;
};

}  // namespace redhip
