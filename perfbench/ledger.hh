/**
 * @file
 * The layer ledger of the traced run: each layer's cost measured from
 * outside, by timing calls into its public functions on the
 * workload's own programs, and the residual between the parts and the
 * measured whole.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench
{

using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * Measure every layer on @p bench's programs (after setup()), one
 * program at a time with its configurations in a seeded shuffled
 * order, for whole passes over the program set until @p seconds have
 * gone (at least one). On a host slow enough to reach @p cutoff first,
 * it stops after the program in hand (at least one), so the run still
 * ends in time. Front-end and set-up rows come from the spans
 * @p tracer already holds.
 */
Metrics runLedger(Bench &bench, std::mt19937_64 &rng, double seconds,
                  Clock::time_point cutoff, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
