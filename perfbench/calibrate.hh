/**
 * @file
 * The host-speed calibration of the irep benchmark. A shared host's
 * speed drifts by a third and more over seconds to minutes, and even
 * the fastest of a run's operations follows it. So a fixed kernel of
 * the benchmark's own, timed right before each operation, measures the
 * host's speed at that moment, and each operation's time is scaled by
 * how much slower or faster than its reference time the kernel ran.
 * The kernel is Table 1's count in its plainest form, a std::set per
 * static instruction, over a stream of retires captured once from the
 * paper programs: the kind of work the analyses do. No irep code runs
 * while it is timed, so a change to irep moves the scaled times as it
 * moves the raw ones.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cstdint>
#include <vector>

#include "common.hh"

namespace perfbench
{

/**
 * Times the kernel in this process, between operations. Its input is
 * captured when it is made. It allocates, so the peak resident set is
 * measured in a process of its own (see main.cc).
 */
class Calibrator
{
  public:
    /** What the kernel keeps of one retired instruction. */
    struct Retire
    {
        uint32_t slot;      //!< static instruction, over all programs
        uint8_t numSrcRegs;
        uint32_t src0, src1;
        uint64_t result;
    };

    Calibrator();

    /**
     * The kernel's reference time over its latest time, timing it
     * again first when calibrateEvery has gone since the last time.
     * Call it right before an operation and multiply the operation's
     * time by it to get the time at reference speed.
     */
    double scale();

    /** Every kernel time measured so far, in seconds. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    double measure();

    uint32_t slots_ = 0;
    std::vector<Retire> stream_;
    Clock::time_point last_;
    std::vector<double> samples_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
