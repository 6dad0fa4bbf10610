/**
 * @file
 * Machine-readable reporting: serialize simulation and policy
 * results as JSON so external tooling (plotting scripts, regression
 * trackers) can consume bench output without parsing tables.
 *
 * These writers define the JSON schema; api::RunResult::writeJson
 * and api::SweepResult::writeJson compose them. New code should
 * serialize through those instead of calling these directly.
 */

#ifndef LSIM_HARNESS_REPORT_HH
#define LSIM_HARNESS_REPORT_HH

#include <vector>

#include "common/json.hh"
#include "harness/experiment.hh"

namespace lsim::harness
{

/** Write one benchmark simulation (timing + idle stats) as JSON. */
void writeSimJson(JsonWriter &w, const WorkloadSim &sim);

/** Write a policy evaluation result set as a JSON array. */
void writePoliciesJson(JsonWriter &w,
                       const std::vector<sleep::PolicyResult> &results);

} // namespace lsim::harness

#endif // LSIM_HARNESS_REPORT_HH
