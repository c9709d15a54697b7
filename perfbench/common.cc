#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "asm/assembler.hh"
#include "core/repetition_tracker.hh"
#include "fuzz/generator.hh"
#include "minicc/compiler.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

const std::array<const char *, numAnalyses> analysisNames = {
    "global", "local", "functions", "reuse", "classes", "prediction",
    "attribution"};

// --- Watchdog -------------------------------------------------------

Watchdog::Watchdog(std::string cleanup_dir)
    : cleanupDir_(std::move(cleanup_dir)), thread_([this] { loop(); })
{}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    changed_.notify_all();
    thread_.join();
}

Watchdog::Guard::Guard(Watchdog *dog, const std::string &what)
    : dog_(dog)
{
    if (!dog_)
        return;
    {
        std::lock_guard<std::mutex> lock(dog_->mutex_);
        dog_->armed_ = true;
        dog_->what_ = what;
        dog_->deadline_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(hangSeconds));
        ++dog_->started_;
    }
    dog_->changed_.notify_all();
}

Watchdog::Guard::~Guard()
{
    if (!dog_)
        return;
    {
        std::lock_guard<std::mutex> lock(dog_->mutex_);
        dog_->armed_ = false;
    }
    dog_->changed_.notify_all();
}

void
Watchdog::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        if (!armed_) {
            changed_.wait(lock);
            continue;
        }
        const Clock::time_point deadline = deadline_;
        changed_.wait_until(lock, deadline);
        if (stop_ || !armed_ || deadline_ != deadline ||
            Clock::now() < deadline)
            continue;
        // The guarded call hung. The threads inside it cannot be
        // unwound, so report and end the process here.
        std::error_code ec;
        std::filesystem::remove_all(cleanupDir_, ec);
        std::fflush(nullptr);
        dprintf(2, "perfbench: %s still running after %.0f s: counted "
                   "as a failed operation\n",
                what_.c_str(), hangSeconds);
        dprintf(1, "{\"correct\": false, \"attempted\": %" PRIu64
                   ", \"failed\": 1, \"metrics\": {}}\n",
                started_);
        _exit(0);
    }
}

// --- Tracer ---------------------------------------------------------

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    const int id = int(spans_.size()) - 1;
    stack_.push_back(id);
    // Read the clock last, so the span excludes its own bookkeeping.
    spans_[id].startNs = now();
    return id;
}

void
Tracer::close(int id)
{
    spans_[id].endNs = now();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::pair<double, uint64_t>
Tracer::total(const std::string &name) const
{
    double seconds = 0;
    uint64_t count = 0;
    for (const Span &s : spans_) {
        if (s.name == name) {
            seconds += double(s.endNs - s.startNs) * 1e-9;
            ++count;
        }
    }
    return {seconds, count};
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"schema\": \"irep-perfbench-spans-1\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"parent\": " << s.parent << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

// --- Programs -------------------------------------------------------

assem::Program
buildFromSource(const std::string &source, Tracer *tracer)
{
    std::string assembly;
    {
        ScopedSpan span(tracer, "minicc.compile");
        const auto unit = minicc::compileToUnit(source);
        assembly = minicc::generateAsm(*unit);
    }
    ScopedSpan span(tracer, "asm.assemble");
    return assem::assemble(assembly);
}

std::pair<std::string, std::string>
generateSource(uint64_t seed, Tracer *tracer)
{
    ScopedSpan span(tracer, "fuzz.generate");
    fuzz::GenOptions options;
    options.seed = seed;
    options.maxStmts = popMaxStmts;
    const fuzz::GenProgram gen = fuzz::generateProgram(options);
    return {gen.render(), gen.input};
}

std::vector<BuiltProgram>
buildPaperPrograms(Tracer *tracer)
{
    std::vector<BuiltProgram> set;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        BuiltProgram p;
        p.name = w.name;
        p.source = w.source;
        p.input = w.input;
        p.program = buildFromSource(p.source, tracer);
        set.push_back(std::move(p));
    }
    return set;
}

std::vector<BuiltProgram>
buildPopulation(Tracer *tracer)
{
    std::vector<BuiltProgram> set;
    set.reserve(popCount);
    for (unsigned i = 0; i < popCount; ++i) {
        BuiltProgram p;
        p.name = "gen" + std::to_string(popSeed + i);
        std::tie(p.source, p.input) = generateSource(popSeed + i, tracer);
        p.program = buildFromSource(p.source, tracer);
        set.push_back(std::move(p));
    }
    return set;
}

core::PipelineConfig
pipelineConfig(uint64_t skip, uint64_t window,
               const std::string &analyses)
{
    core::PipelineConfig c;
    std::string error;
    if (!core::applyAnalysisSet(analyses, c, &error))
        throw std::invalid_argument("analysis set: " + error);
    c.skipInstructions = skip;
    c.windowInstructions = window;
    c.instanceCap = instanceCap;
    c.windowJobs = 1;
    c.reuse.entries = 8192;
    c.reuse.ways = 4;
    c.predictor.entries = 8192;
    c.predictor.contextEntries = 8192;
    c.predictor.historyDepth = 2;
    return c;
}

std::string
allBut(const std::string &name)
{
    std::string set = "tracker";
    for (const char *a : analysisNames) {
        if (a != name)
            set += std::string(",") + a;
    }
    return set;
}

// --- Report and digest ----------------------------------------------

namespace
{

/** FNV-1a over "path=value" lines of every deterministic stat. */
class DigestVisitor : public stats::Visitor
{
  public:
    void beginGroup(const stats::Group &g) override
    {
        path_.push_back(g.name());
    }
    void endGroup(const stats::Group &) override { path_.pop_back(); }

    void
    visit(const stats::Scalar &s) override
    {
        if (timed(s.name()))
            return;
        feed(s.name(), s.value());
    }
    void
    visit(const stats::Vector &v) override
    {
        for (size_t i = 0; i < v.size(); ++i)
            feed(v.name() + "." + v.subnames()[i], v.value(i));
    }
    void
    visit(const stats::Distribution &d) override
    {
        feed(d.name() + ".count", double(d.count()));
        feed(d.name() + ".sum", d.sum());
        feed(d.name() + ".min", d.min());
        feed(d.name() + ".max", d.max());
        for (size_t i = 0; i < d.numBuckets(); ++i)
            feed(d.name() + ".b" + std::to_string(i),
                 double(d.bucketCount(i)));
    }

    uint64_t digest() const { return hash_; }

  private:
    /** Wall-clock figures of the run group vary run to run. */
    bool
    timed(const std::string &name) const
    {
        const auto ends = [&](const char *suffix) {
            const std::string s(suffix);
            return name.size() >= s.size() &&
                name.compare(name.size() - s.size(), s.size(), s) == 0;
        };
        return ends("_seconds") || ends("_mips");
    }

    void
    feed(const std::string &name, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        std::string line;
        for (const std::string &p : path_)
            line += p + "/";
        line += name;
        line += buf;
        for (unsigned char c : line) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::vector<std::string> path_;
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

uint64_t
report(const core::AnalysisPipeline &pipeline, Tracer *tracer)
{
    stats::Group root;
    {
        ScopedSpan span(tracer, "core.report");
        pipeline.registerStats(root);
        std::ostringstream out;
        json::Writer writer(out, false);
        stats::dumpJson(root, writer);
    }
    DigestVisitor digest;
    root.accept(digest);
    return digest.digest();
}

std::vector<std::string>
checkProperties(const core::AnalysisPipeline &pipeline, uint64_t window,
                bool to_halt)
{
    std::vector<std::string> broken;
    const auto expect = [&broken](bool ok, const std::string &what) {
        if (!ok)
            broken.push_back(what);
    };

    const core::RunTiming &t = pipeline.timing();
    if (to_halt) {
        expect(pipeline.machine().halted(),
               "program did not halt inside the window");
    } else {
        expect(t.skip.instructions == pipeline.config().skipInstructions,
               "retired skip != configured skip");
        expect(t.window.instructions == window,
               "retired window != configured window");
    }

    const core::RepetitionStats rs = pipeline.tracker().stats();
    expect(rs.dynTotal == t.window.instructions,
           "tracker dyn_total != retired window");
    expect(rs.dynRepeated <= rs.dynTotal, "dyn_repeated > dyn_total");
    expect(rs.staticRepeated <= rs.staticExecuted,
           "static_repeated > static_executed");
    expect(rs.staticExecuted <= rs.staticTotal,
           "static_executed > static_total");

    const core::PipelineConfig &c = pipeline.config();
    if (c.enableAttribution) {
        const core::AttributionStats &a = pipeline.attribution().stats();
        uint64_t overall = 0;
        uint64_t repeated = 0;
        for (unsigned s = 0; s < core::numLoopStructures; ++s) {
            overall += a.overall[s];
            repeated += a.repeated[s];
        }
        expect(overall == a.totalOverall && a.totalOverall == rs.dynTotal,
               "attribution buckets do not sum to the retired total");
        expect(repeated == a.totalRepeated &&
                   a.totalRepeated == rs.dynRepeated,
               "attribution buckets do not sum to the repeated total");
    }
    if (c.enableReuse) {
        const core::ReuseStats &r = pipeline.reuse().stats();
        expect(r.hits <= r.accesses, "reuse hits > lookups");
    }
    return broken;
}

// --- Naive recount --------------------------------------------------

void
NaiveRecount::onRetire(const sim::InstrRecord &rec)
{
    const uint64_t index = seen_++;
    if (index < skip_ || index - skip_ >= window_)
        return;
    ++dynTotal_;
    const Tuple tuple{rec.numSrcRegs,
                      rec.numSrcRegs > 0 ? rec.srcVal[0] : 0,
                      rec.numSrcRegs > 1 ? rec.srcVal[1] : 0,
                      rec.result};
    const uint32_t slot = (rec.pc - assem::Layout::textBase) / 4;
    if (slot >= perPc_.size())
        throw std::runtime_error("retired pc outside the text section");
    PerPc &pc = perPc_[slot];
    if (pc.tuples.count(tuple)) {
        ++dynRepeated_;
        return;
    }
    // A new tuple whose hash equals a buffered different tuple's would
    // be a false repeat in the hashed tracker.
    const uint64_t key = core::RepetitionTracker::instanceKey(rec);
    if (pc.keys.count(key))
        ++collisions_;
    if (pc.tuples.size() < cap_) {
        pc.tuples.insert(tuple);
        pc.keys.emplace(key, tuple);
    }
}

std::vector<std::string>
NaiveRecount::compare(const core::AnalysisPipeline &pipeline) const
{
    std::vector<std::string> broken;
    const core::RepetitionStats rs = pipeline.tracker().stats();
    if (rs.dynTotal != dynTotal_) {
        broken.push_back("recount dyn_total " + std::to_string(dynTotal_) +
                         " != tracker " + std::to_string(rs.dynTotal));
    }
    if (rs.dynRepeated != dynRepeated_) {
        broken.push_back("recount dyn_repeated " +
                         std::to_string(dynRepeated_) + " != tracker " +
                         std::to_string(rs.dynRepeated));
    }
    if (collisions_) {
        broken.push_back(std::to_string(collisions_) +
                         " instanceKey hash collisions");
    }
    return broken;
}

// --- Small helpers --------------------------------------------------

double
processCpuSeconds()
{
    timespec t = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

std::string
hex64(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

} // namespace perfbench
