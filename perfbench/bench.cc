#include "bench.hh"

#include <filesystem>
#include <memory>

#include "fuzz/differ.hh"
#include "sim/machine.hh"
#include "trace_io/format.hh"
#include "trace_io/reader.hh"

namespace perfbench
{

bool
parseKind(const std::string &name, Kind &kind)
{
    if (name == "paper-live")
        kind = Kind::PaperLive;
    else if (name == "trace-roundtrip")
        kind = Kind::TraceRoundtrip;
    else if (name == "population")
        kind = Kind::Population;
    else
        return false;
    return true;
}

trace_io::TraceWriterOptions
writerOptions()
{
    trace_io::TraceWriterOptions options;
    options.version = trace_io::formatVersion;
    options.codec = trace_io::defaultCodec();
    return options;
}

Bench::Bench(Kind kind, std::string tmp_dir, Watchdog *watchdog,
             Calibrator *calibrator)
    : kind_(kind), tmpDir_(std::move(tmp_dir)), watchdog_(watchdog),
      calibrator_(calibrator)
{}

core::PipelineConfig
Bench::config() const
{
    return pipelineConfig(skip(), window());
}

uint64_t
Bench::skip() const
{
    return toHalt() ? 0 : paperSkip;
}

uint64_t
Bench::window() const
{
    return toHalt() ? popBudget : paperWindow;
}

std::string
Bench::tracePath(const BuiltProgram &program) const
{
    return tmpDir_ + "/" + program.name + ".irtrace";
}

void
Bench::setup(Tracer *tracer)
{
    programs_ = toHalt() ? buildPopulation(tracer)
                         : buildPaperPrograms(tracer);
}

namespace
{

/** A machine loaded with @p program and its input, traced. */
std::unique_ptr<sim::Machine>
makeMachine(const assem::Program &program, const std::string &input,
            Tracer *tracer)
{
    ScopedSpan span(tracer, "sim.setup");
    auto machine = std::make_unique<sim::Machine>(program);
    machine->setInput(input);
    return machine;
}

std::unique_ptr<core::AnalysisPipeline>
makePipeline(sim::Machine &machine, const core::PipelineConfig &config,
             Tracer *tracer)
{
    ScopedSpan span(tracer, "core.setup");
    return std::make_unique<core::AnalysisPipeline>(machine, config);
}

void
addTiming(const core::AnalysisPipeline &pipe, double seconds,
          ProgramTiming &r)
{
    const core::RunTiming &t = pipe.timing();
    r.analyzeSeconds = seconds;
    r.analyzeInstr = t.skip.instructions + t.window.instructions;
    r.windowSeconds = t.window.seconds;
    r.windowInstr = t.window.instructions;
}

std::string
outputOf(const std::string &output, int exit_code)
{
    return output + "\nexit=" + std::to_string(exit_code);
}

} // namespace

PassResult
Bench::pass(const std::vector<size_t> &order, Tracer *tracer)
{
    PassResult r;
    r.digests.assign(programs_.size(), 0);
    r.outputs.assign(programs_.size(), "");
    r.programs.assign(programs_.size(), ProgramTiming());
    const auto start = Clock::now();
    const double cpu_start = processCpuSeconds();
    for (size_t i : order) {
        const double scale = calibrator_ ? calibrator_->scale() : 1.0;
        const Watchdog::Guard guard(watchdog_, "pass: " + programs_[i].name);
        const auto op_start = Clock::now();
        try {
            switch (kind_) {
            case Kind::PaperLive:
                runPaper(i, r, tracer);
                break;
            case Kind::TraceRoundtrip:
                runRoundtrip(i, r, tracer);
                break;
            case Kind::Population:
                runPopulation(i, r, tracer);
                break;
            }
        } catch (const std::exception &) {
            // Its digest stays 0, so the comparison with the checking
            // pass counts the operation as failed.
        }
        ProgramTiming &t = r.programs[i];
        t.seconds = scale * secondsSince(op_start);
        t.analyzeSeconds *= scale;
        t.windowSeconds *= scale;
    }
    r.seconds = secondsSince(start);
    r.cpuSeconds = processCpuSeconds() - cpu_start;
    return r;
}

void
Bench::runPaper(size_t index, PassResult &r, Tracer *tracer)
{
    const BuiltProgram &p = programs_[index];
    auto machine = makeMachine(p.program, p.input, tracer);
    auto pipe = makePipeline(*machine, config(), tracer);
    const auto start = Clock::now();
    {
        ScopedSpan span(tracer, "core.run");
        pipe->run();
    }
    addTiming(*pipe, secondsSince(start), r.programs[index]);
    r.digests[index] = report(*pipe, tracer);
}

void
Bench::runRoundtrip(size_t index, PassResult &r, Tracer *tracer)
{
    const BuiltProgram &p = programs_[index];
    const std::string path = tracePath(p);
    {
        auto machine = makeMachine(p.program, p.input, tracer);
        trace_io::TraceWriter writer(path, *machine, p.input, skip(),
                                     window(), writerOptions());
        machine->addObserver(&writer);
        {
            ScopedSpan span(tracer, "trace_io.record");
            machine->run(skip() + window());
        }
        machine->removeObserver(&writer);
        ScopedSpan span(tracer, "trace_io.commit");
        writer.commit();
    }
    {
        auto machine = makeMachine(p.program, p.input, tracer);
        std::unique_ptr<trace_io::TraceReader> reader;
        {
            ScopedSpan span(tracer, "trace_io.open");
            reader = std::make_unique<trace_io::TraceReader>(path);
            reader->bind(*machine, p.input);
        }
        auto pipe = makePipeline(*machine, config(), tracer);
        const auto start = Clock::now();
        {
            ScopedSpan span(tracer, "core.replay");
            pipe->runFromSource(*reader);
        }
        addTiming(*pipe, secondsSince(start), r.programs[index]);
        r.digests[index] = report(*pipe, tracer);
    }
    std::filesystem::remove(path);
}

void
Bench::runPopulation(size_t index, PassResult &r, Tracer *tracer)
{
    // A population is studied once, so every pass pays the whole
    // front end again instead of reusing the set-up's programs.
    const auto [source, input] = generateSource(popSeed + index, tracer);
    const assem::Program program = buildFromSource(source, tracer);
    auto machine = makeMachine(program, input, tracer);
    auto pipe = makePipeline(*machine, config(), tracer);
    const auto start = Clock::now();
    {
        ScopedSpan span(tracer, "core.run");
        pipe->run();
    }
    addTiming(*pipe, secondsSince(start), r.programs[index]);
    r.digests[index] = report(*pipe, tracer);
    r.outputs[index] = outputOf(machine->output(), machine->exitCode());
}

CheckResult
Bench::check()
{
    const size_t n = programs_.size();
    CheckResult c;
    c.digests.assign(n, 0);
    c.outputs.assign(n, "");
    c.ok.assign(n, true);
    const core::PipelineConfig serial = config();

    for (size_t i = 0; i < n; ++i) {
        const BuiltProgram &p = programs_[i];
        const Watchdog::Guard guard(watchdog_, "check: " + p.name);
        std::vector<std::string> broken;
        const auto note = [&broken](const std::string &prefix,
                                    const std::vector<std::string> &v) {
            for (const std::string &s : v)
                broken.push_back(prefix + s);
        };
        try {
            // The serial live run with the recount beside it; the
            // roundtrip records the same stream while it runs.
            NaiveRecount naive(p.program, skip(), window(), instanceCap);
            auto machine = std::make_unique<sim::Machine>(p.program);
            machine->setInput(p.input);
            core::AnalysisPipeline pipe(*machine, serial);
            machine->addObserver(&naive);
            std::unique_ptr<trace_io::TraceWriter> writer;
            if (kind_ == Kind::TraceRoundtrip) {
                writer = std::make_unique<trace_io::TraceWriter>(
                    tracePath(p), *machine, p.input, skip(), window(),
                    writerOptions());
                machine->addObserver(writer.get());
            }
            pipe.run();
            machine->removeObserver(&naive);
            if (writer) {
                machine->removeObserver(writer.get());
                writer->commit();
            }
            note("", checkProperties(pipe, window(), toHalt()));
            note("", naive.compare(pipe));
            const uint64_t live = report(pipe, nullptr);
            c.digests[i] = live;

            if (kind_ == Kind::TraceRoundtrip) {
                sim::Machine m2(p.program);
                m2.setInput(p.input);
                trace_io::TraceReader reader(tracePath(p));
                reader.bind(m2, p.input);
                core::AnalysisPipeline replayed(m2, serial);
                replayed.runFromSource(reader);
                note("replay: ",
                     checkProperties(replayed, window(), toHalt()));
                note("replay: ", naive.compare(replayed));
                if (report(replayed, nullptr) != live)
                    broken.push_back("replayed stats != live stats");
                std::filesystem::remove(tracePath(p));
            }

            if (kind_ == Kind::Population) {
                c.outputs[i] =
                    outputOf(machine->output(), machine->exitCode());
                const fuzz::DiffOutcome diff =
                    fuzz::runDifferential(p.source, p.input);
                if (diff.status != fuzz::DiffStatus::Match) {
                    broken.push_back(
                        std::string("differential: ") +
                        fuzz::diffStatusName(diff.status) + ": " +
                        diff.detail);
                } else if (outputOf(diff.refOutput, diff.refExit) !=
                           c.outputs[i]) {
                    broken.push_back(
                        "simulated output != reference interpreter");
                }
            }
        } catch (const std::exception &e) {
            broken.push_back(std::string("threw: ") + e.what());
        }
        c.ok[i] = broken.empty();
        for (const std::string &b : broken)
            c.problems.push_back(p.name + ": " + b);
    }
    return c;
}

} // namespace perfbench
