#include "calibrate.hh"

#include <set>
#include <tuple>

#include "sim/machine.hh"

namespace perfbench
{

namespace
{

/** Copies every retire after the skip. */
class Capture : public sim::Observer
{
  public:
    Capture(uint32_t base, std::vector<Calibrator::Retire> &out)
        : base_(base), out_(out)
    {}

    void
    onRetire(const sim::InstrRecord &rec) override
    {
        if (seen_++ < paperSkip)
            return;
        out_.push_back({base_ + rec.staticIndex, rec.numSrcRegs,
                        rec.srcVal[0], rec.srcVal[1], rec.result});
    }

  private:
    uint32_t base_;
    std::vector<Calibrator::Retire> &out_;
    uint64_t seen_ = 0;
};

/**
 * The kernel's input: calibrateRecords retires of each paper program
 * after its skip, captured once. @p slots gets the number of static
 * instructions over all programs.
 */
std::vector<Calibrator::Retire>
captureStream(uint32_t &slots)
{
    std::vector<Calibrator::Retire> stream;
    slots = 0;
    for (const BuiltProgram &p : buildPaperPrograms(nullptr)) {
        sim::Machine machine(p.program);
        machine.setInput(p.input);
        Capture capture(slots, stream);
        machine.addObserver(&capture);
        machine.run(paperSkip + calibrateRecords);
        machine.removeObserver(&capture);
        slots += uint32_t(p.program.text.size());
    }
    return stream;
}

/** Keeps the kernel's work observable, so it is not optimized away. */
volatile uint64_t sink;

/**
 * The kernel, timed: Table 1's count in its plainest form over the
 * captured stream, a std::set of (numSrcRegs, srcVal, result) per
 * static instruction with the first instanceCap unique ones buffered.
 */
double
kernel(const std::vector<Calibrator::Retire> &stream, uint32_t slots)
{
    using Tuple = std::tuple<uint8_t, uint32_t, uint32_t, uint64_t>;
    const auto start = Clock::now();
    uint64_t repeated = 0;
    {
        std::vector<std::set<Tuple>> perPc(slots);
        for (const Calibrator::Retire &r : stream) {
            std::set<Tuple> &seen = perPc[r.slot];
            const Tuple t{r.numSrcRegs, r.src0, r.src1, r.result};
            if (seen.count(t))
                ++repeated;
            else if (seen.size() < instanceCap)
                seen.insert(t);
        }
    }
    const double seconds = secondsSince(start);
    sink = repeated;
    return seconds;
}

} // namespace

Calibrator::Calibrator() : stream_(captureStream(slots_))
{
    kernel(stream_, slots_);    // warm
    measure();
}

double
Calibrator::measure()
{
    const double seconds = kernel(stream_, slots_);
    samples_.push_back(seconds);
    last_ = Clock::now();
    return seconds;
}

double
Calibrator::scale()
{
    if (secondsSince(last_) >= calibrateEvery)
        measure();
    return calibrateRefSeconds / samples_.back();
}

} // namespace perfbench
