/**
 * @file
 * Shared pieces of the irep benchmark: pinned settings, the in-memory
 * span tracer, program building, pipeline configuration, the stats
 * report and digest, the method's property checks, and the naive
 * Table 1 recount observer.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "asm/program.hh"
#include "core/pipeline.hh"
#include "sim/observer.hh"

namespace perfbench
{

using namespace irep;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every setting that shapes what is measured is pinned here; nothing
// is read from the environment.
constexpr uint64_t paperSkip = 1'000'000;      //!< per paper program
constexpr uint64_t paperWindow = 1'000'000;
constexpr unsigned instanceCap = 2000;         //!< paper §2
constexpr uint64_t popSeed = 1;                //!< program i: popSeed+i
constexpr unsigned popCount = 128;
constexpr int popMaxStmts = 24;
constexpr uint64_t popBudget = 50'000'000;     //!< run-to-halt cap
constexpr unsigned setupRepeats = 5;
constexpr double setupSeconds = 1.0;          //!< and at least this long
constexpr double hangSeconds = 30.0;          //!< one guarded call's limit
//! The calibration kernel (calibrate.hh): its input, retires per
//! paper program; how often it is timed again; and its reference time,
//! its typical time on the reference VM.
constexpr uint64_t calibrateRecords = 30'000;
constexpr double calibrateEvery = 0.1;
constexpr double calibrateRefSeconds = 0.020;
//! A traced run's ledger stops this long after the run starts, so the
//! run ends within three minutes even on a slow host.
constexpr std::chrono::seconds ledgerCutoff{120};

/** The seven analyses besides the tracker, as applyAnalysisSet names. */
constexpr unsigned numAnalyses = 7;
extern const std::array<const char *, numAnalyses> analysisNames;

/**
 * In-memory span recorder for the traced run: each span has a name,
 * start and end (ns since the tracer was made) and the index of the
 * span open around it (-1 at top level). Written out as JSON once,
 * at the end.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
    };

    int open(const char *name);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration (s) and count of the spans named @p name. */
    std::pair<double, uint64_t> total(const std::string &name) const;

    /** Write every span as a JSON document to @p path. */
    void writeJson(const std::string &path) const;

  private:
    int64_t now() const;

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Ends the run with a failed result when a call hangs. Each guarded
 * call arms a deadline hangSeconds away; if the call is still running
 * then, the watchdog's thread removes @p cleanup_dir, prints the
 * result line with `correct` false and the hung call counted as
 * failed, and ends the process, hung threads included.
 */
class Watchdog
{
  public:
    explicit Watchdog(std::string cleanup_dir);
    ~Watchdog();
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Arms the deadline for one call; no-op without a watchdog. */
    class Guard
    {
      public:
        Guard(Watchdog *dog, const std::string &what);
        ~Guard();
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

      private:
        Watchdog *dog_;
    };

  private:
    void loop();

    std::string cleanupDir_;
    std::mutex mutex_;
    std::condition_variable changed_;
    bool stop_ = false;
    bool armed_ = false;
    std::string what_;
    Clock::time_point deadline_;
    uint64_t started_ = 0;      //!< guarded calls so far
    std::thread thread_;
};

/** Times one layer call when a tracer is given; free otherwise. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** One program of a workload, compiled and assembled. */
struct BuiltProgram
{
    std::string name;
    std::string source;
    std::string input;
    assem::Program program;
};

/** Compile and assemble @p source (minicc, then asm), traced. */
assem::Program buildFromSource(const std::string &source,
                               Tracer *tracer);

/** Generate population member @p seed: its source and input. */
std::pair<std::string, std::string> generateSource(uint64_t seed,
                                                   Tracer *tracer);

/** The eight paper programs in table order, built. */
std::vector<BuiltProgram> buildPaperPrograms(Tracer *tracer);

/** The population (popCount programs from popSeed), built. */
std::vector<BuiltProgram> buildPopulation(Tracer *tracer);

/**
 * A fully spelled-out pipeline configuration: @p analyses is an
 * analysis set as core::applyAnalysisSet takes it ("all", "tracker",
 * "tracker,reuse", ...). The window is serial: `windowJobs` is 1,
 * never 0, which would read `IREP_WINDOW_JOBS`.
 */
core::PipelineConfig pipelineConfig(uint64_t skip, uint64_t window,
                                    const std::string &analyses = "all");

/** The set of every analysis but @p name, for applyAnalysisSet. */
std::string allBut(const std::string &name);

/**
 * The user-visible report: registerStats + stats::dumpJson (traced as
 * one span). @return the digest of every deterministic statistic in
 * it — all but the run group's wall-clock seconds and MIPS.
 */
uint64_t report(const core::AnalysisPipeline &pipeline, Tracer *tracer);

/**
 * The method's properties on a finished run. @p window is the
 * configured window; @p to_halt means the program must halt inside
 * it instead of filling it. @return one line per broken property.
 */
std::vector<std::string> checkProperties(
    const core::AnalysisPipeline &pipeline, uint64_t window,
    bool to_halt);

/**
 * An independent Table 1 recount, attached beside the pipeline: exact
 * (numSrcRegs, srcVal, result) tuples in a std::set per pc (a vector
 * over the text section, indexed by the record's pc), the first
 * `cap` unique tuples buffered, counting only inside the window. It
 * also counts tuples the tracker's 64-bit instance hash would confuse
 * with a different buffered tuple.
 */
class NaiveRecount : public sim::Observer
{
  public:
    NaiveRecount(const assem::Program &program, uint64_t skip,
                 uint64_t window, unsigned cap)
        : skip_(skip), window_(window), cap_(cap),
          perPc_(program.text.size())
    {}

    void onRetire(const sim::InstrRecord &rec) override;

    /** Mismatches against the tracker of @p pipeline, one per line. */
    std::vector<std::string> compare(
        const core::AnalysisPipeline &pipeline) const;

  private:
    using Tuple = std::tuple<uint8_t, uint32_t, uint32_t, uint64_t>;
    struct PerPc
    {
        std::set<Tuple> tuples;
        std::map<uint64_t, Tuple> keys;     //!< instance hash -> tuple
    };

    uint64_t skip_;
    uint64_t window_;
    unsigned cap_;
    uint64_t seen_ = 0;
    uint64_t dynTotal_ = 0;
    uint64_t dynRepeated_ = 0;
    uint64_t collisions_ = 0;
    std::vector<PerPc> perPc_;
};

/** Receives every retire and does nothing: the dispatch baseline. */
class NoopObserver : public sim::Observer
{
  public:
    void onRetire(const sim::InstrRecord &) override {}
};

/** CPU time of this process, every thread, in seconds. */
double processCpuSeconds();

/** Hex rendering of a digest. */
std::string hex64(uint64_t value);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
