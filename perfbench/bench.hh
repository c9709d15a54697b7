/**
 * @file
 * The three workloads of the irep benchmark: how each sets up, runs one
 * timed pass over its programs, and checks its outputs in an untimed
 * pass.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "calibrate.hh"
#include "common.hh"
#include "trace_io/writer.hh"

namespace perfbench
{

enum class Kind
{
    PaperLive,      //!< eight paper programs, skip + window, serial
    TraceRoundtrip, //!< record each to a trace, replay it through all
    Population,     //!< generated programs, front end + run to halt
};

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind &kind);

/** What one program's operation in a pass measured, at reference
 *  speed (calibrate.hh). */
struct ProgramTiming
{
    double seconds = 0;          //!< the whole operation
    double analyzeSeconds = 0;   //!< run() / runFromSource()
    uint64_t analyzeInstr = 0;   //!< skip + window retired
    double windowSeconds = 0;    //!< the pipeline's window phase
    uint64_t windowInstr = 0;
};

/** What one timed pass over the workload's programs measured. */
struct PassResult
{
    double seconds = 0;          //!< wall clock of the whole pass
    double cpuSeconds = 0;       //!< the process's CPU time in it
    std::vector<ProgramTiming> programs;
    std::vector<uint64_t> digests;      //!< stats digest per program
    std::vector<std::string> outputs;   //!< population: output + exit
};

/** What the untimed checking pass found. */
struct CheckResult
{
    std::vector<uint64_t> digests;      //!< reference, per program
    std::vector<std::string> outputs;   //!< population: interpreter's
    std::vector<bool> ok;               //!< per program
    std::vector<std::string> problems;  //!< "<program>: <what>"
};

class Bench
{
  public:
    /** @p tmp_dir is a private directory for trace files; every
     *  operation runs under @p watchdog, and its times are scaled by
     *  @p calibrator; either may be null. */
    Bench(Kind kind, std::string tmp_dir, Watchdog *watchdog,
          Calibrator *calibrator);

    /** Build the program set (front end). Repeated to time set-up. */
    void setup(Tracer *tracer);

    /** One timed pass, programs in @p order. */
    PassResult pass(const std::vector<size_t> &order, Tracer *tracer);

    /** The untimed checking pass: recount, properties, cross-paths. */
    CheckResult check();

    /** The workload's pipeline configuration, every analysis on. */
    core::PipelineConfig config() const;
    Watchdog *watchdog() const { return watchdog_; }

    const std::vector<BuiltProgram> &programs() const { return programs_; }
    uint64_t skip() const;
    uint64_t window() const;
    /** Population programs run to halt inside a budget window. */
    bool toHalt() const { return kind_ == Kind::Population; }
    /** A fresh trace path in the private directory. */
    std::string tracePath(const BuiltProgram &program) const;

  private:
    void runPaper(size_t index, PassResult &result, Tracer *tracer);
    void runRoundtrip(size_t index, PassResult &result, Tracer *tracer);
    void runPopulation(size_t index, PassResult &result, Tracer *tracer);

    Kind kind_;
    std::string tmpDir_;
    Watchdog *watchdog_;
    Calibrator *calibrator_;
    std::vector<BuiltProgram> programs_;
};

/** Trace writer settings: the current format, the build's codec. */
trace_io::TraceWriterOptions writerOptions();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
