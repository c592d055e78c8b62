// Named axes for the sweep driver: `--axis name=v1,v2,...` strings are
// resolved here into SweepAxis values carrying the right RunSpec/config
// modifiers.  The axis semantics deliberately mirror the figure benches
// (table-size applies Fig. 11's shift against the default PT, recal-interval
// applies Fig. 12's paper-scale division by `scale`, depth reshapes via
// HierarchyConfig::with_depth) so a sweep over those axes reproduces the
// benches' design points exactly.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sweep/sweep.h"

namespace redhip {

// "name=v1,v2,..." -> axis.  `opts` supplies context some axes need (the
// scale a paper-size value is divided by, the benchmark list "workload=all"
// expands to).  An unknown axis or a malformed value throws
// std::runtime_error with an INVALID_ARGUMENT diagnostic naming both.
SweepAxis make_named_axis(const std::string& axis_spec,
                          const ExperimentOptions& opts);

// The sweep `bench/sweep` runs: one make_named_axis per `--axis` string, in
// order, over a base machine that runs ReDHiP (so a predictor-knob axis
// without a scheme axis still measures a machine that uses the knob) with
// the default benchmark, inclusion and prefetch.  Scale, refs, seed and the
// sampling plan come from `opts`; a `sample=` axis overrides the
// plan per cell.
SweepSpec make_sweep_spec(const ExperimentOptions& opts,
                          const std::vector<std::string>& axis_specs);

// The axis names make_named_axis accepts (for usage messages).
const std::vector<std::string>& known_axis_names();

}  // namespace redhip
