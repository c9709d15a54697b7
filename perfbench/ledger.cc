#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "sim/machine.hh"
#include "trace_io/format.hh"
#include "trace_io/reader.hh"

namespace perfbench
{

namespace
{

/** Seconds and the instructions (or bytes) they were spent on. */
struct Acc
{
    double seconds = 0;
    uint64_t count = 0;

    void
    add(double s, uint64_t n)
    {
        seconds += s;
        count += n;
    }
    double nsPer() const { return count ? seconds * 1e9 / double(count) : 0; }
};

/** Everything the ledger accumulates. */
struct Ledger
{
    Acc bare;                       //!< Machine::run, no observer
    Acc noop;                       //!< with a no-op observer
    Acc tracker;                    //!< window, tracker alone
    Acc all;                        //!< window, every analysis
    Acc marginal[numAnalyses];      //!< all minus all-but-one
    Acc isolated[numAnalyses];      //!< tracker-plus-one minus tracker
    Acc record;                     //!< Machine::run under TraceWriter
    Acc read;                       //!< TraceReader::replay, no-op
    Acc compress;                   //!< codecCompress, raw bytes
    Acc decompress;                 //!< codecDecompress, raw bytes
    uint64_t rawBytes = 0;          //!< trace payload before codec
    uint64_t storedBytes = 0;       //!< trace file size
    uint64_t traceInstr = 0;
};

double
timeRun(sim::Machine &machine, uint64_t n, uint64_t &retired)
{
    const auto start = Clock::now();
    retired = machine.run(n);
    return secondsSince(start);
}

/** The window of one pipeline configuration on @p p. */
core::PhaseTiming
window(const Bench &bench, const BuiltProgram &p,
       const std::string &analyses)
{
    sim::Machine machine(p.program);
    machine.setInput(p.input);
    core::AnalysisPipeline pipe(
        machine,
        pipelineConfig(bench.skip(), bench.window(), analyses));
    pipe.run();
    return pipe.timing().window;
}

/**
 * Differences against a baseline window: each variant runs between
 * two baseline runs and is compared with their mean, so drift in the
 * machine's speed cancels in every difference. @p sign is +1 for
 * variant minus baseline, -1 for baseline minus variant.
 */
void
bracketed(const Bench &bench, const BuiltProgram &p,
          const std::string &base,
          const std::array<std::string, numAnalyses> &variants,
          double sign, Acc &base_acc, Acc (&diff)[numAnalyses])
{
    core::PhaseTiming before = window(bench, p, base);
    base_acc.add(before.seconds, before.instructions);
    for (unsigned a = 0; a < numAnalyses; ++a) {
        const core::PhaseTiming v = window(bench, p, variants[a]);
        const core::PhaseTiming after = window(bench, p, base);
        base_acc.add(after.seconds, after.instructions);
        const double mid = 0.5 * (before.seconds + after.seconds);
        diff[a].add(sign * (v.seconds - mid), v.instructions);
        before = after;
    }
}

/**
 * Time the codec on the blocks of a version-2 trace file: decompress
 * each stored block, compress its raw payload again, and check the
 * round trip. Blocks stored uncompressed are skipped.
 */
void
codecBlocks(const std::string &path, Ledger &l)
{
    std::ifstream in(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    size_t pos = sizeof(trace_io::TraceHeader);
    std::vector<uint8_t> raw, packed, back;
    while (pos + sizeof(trace_io::BlockFrame2) <= file.size()) {
        uint32_t magic = 0;
        std::memcpy(&magic, file.data() + pos, sizeof magic);
        if (magic == trace_io::footerMagic)
            return;
        trace_io::BlockFrame2 f;
        std::memcpy(&f, file.data() + pos, sizeof f);
        pos += sizeof f;
        if (magic != trace_io::blockMagic2 ||
            pos + f.storedBytes > file.size())
            throw std::runtime_error("unexpected trace block layout");
        const auto *stored =
            reinterpret_cast<const uint8_t *>(file.data() + pos);
        pos += f.storedBytes;
        const auto codec = trace_io::Codec(f.codec);
        if (codec == trace_io::Codec::Store)
            continue;

        raw.resize(f.rawBytes);
        auto start = Clock::now();
        const bool ok = trace_io::codecDecompress(
            codec, stored, f.storedBytes, raw.data(), raw.size());
        l.decompress.add(secondsSince(start), f.rawBytes);

        packed.resize(2 * raw.size() + 1024);
        start = Clock::now();
        const size_t n = trace_io::codecCompress(
            codec, raw.data(), raw.size(), packed.data(), packed.size());
        l.compress.add(secondsSince(start), f.rawBytes);

        back.resize(raw.size());
        if (!ok || n == 0 ||
            !trace_io::codecDecompress(codec, packed.data(), n,
                                       back.data(), back.size()) ||
            back != raw)
            throw std::runtime_error("codec round trip failed");
    }
    throw std::runtime_error("trace has no footer");
}

/** Record @p p to a trace, replay it into a no-op, time the codec. */
void
traceLayers(const Bench &bench, const BuiltProgram &p, Ledger &l)
{
    const std::string path = bench.tracePath(p);
    const uint64_t n = bench.skip() + bench.window();
    {
        sim::Machine machine(p.program);
        machine.setInput(p.input);
        trace_io::TraceWriter writer(path, machine, p.input, bench.skip(),
                                     bench.window(), writerOptions());
        machine.addObserver(&writer);
        uint64_t retired = 0;
        const double s = timeRun(machine, n, retired);
        machine.removeObserver(&writer);
        writer.commit();
        l.record.add(s, retired);
        l.rawBytes += writer.rawPayloadBytes();
        l.storedBytes += std::filesystem::file_size(path);
        l.traceInstr += retired;
    }
    {
        sim::Machine machine(p.program);
        machine.setInput(p.input);
        trace_io::TraceReader reader(path);
        reader.bind(machine, p.input);
        NoopObserver noop;
        const auto start = Clock::now();
        const uint64_t replayed = reader.replay(noop, n);
        l.read.add(secondsSince(start), replayed);
    }
    codecBlocks(path, l);
    std::filesystem::remove(path);
}

/** Every configuration on one program, groups in a shuffled order. */
void
measureProgram(const Bench &bench, const BuiltProgram &p,
               std::mt19937_64 &rng, Ledger &l)
{
    const uint64_t n = bench.skip() + bench.window();
    std::array<std::string, numAnalyses> all_but, plus_one;
    for (unsigned a = 0; a < numAnalyses; ++a) {
        all_but[a] = allBut(analysisNames[a]);
        plus_one[a] = std::string("tracker,") + analysisNames[a];
    }

    std::vector<std::function<void()>> steps;
    steps.push_back([&] {
        sim::Machine machine(p.program);
        machine.setInput(p.input);
        uint64_t retired = 0;
        const double s = timeRun(machine, n, retired);
        l.bare.add(s, retired);
    });
    steps.push_back([&] {
        sim::Machine machine(p.program);
        machine.setInput(p.input);
        NoopObserver noop;
        machine.addObserver(&noop);
        uint64_t retired = 0;
        const double s = timeRun(machine, n, retired);
        machine.removeObserver(&noop);
        l.noop.add(s, retired);
    });
    steps.push_back([&] {
        bracketed(bench, p, "all", all_but, -1, l.all, l.marginal);
    });
    steps.push_back([&] {
        bracketed(bench, p, "tracker", plus_one, +1, l.tracker,
                  l.isolated);
    });
    steps.push_back([&] { traceLayers(bench, p, l); });

    std::shuffle(steps.begin(), steps.end(), rng);
    for (const auto &step : steps) {
        const Watchdog::Guard guard(bench.watchdog(), "ledger: " + p.name);
        step();
    }
}

/** Mean duration of the spans named @p name, in microseconds. */
double
spanUs(const Tracer &tracer, const std::string &name)
{
    const auto [seconds, count] = tracer.total(name);
    return count ? seconds * 1e6 / double(count) : 0;
}

} // namespace

Metrics
runLedger(Bench &bench, std::mt19937_64 &rng, double seconds,
          Clock::time_point cutoff, Tracer &tracer)
{
    // The paper programs are written by hand; the generator's row is
    // timed on the population's sources so every ledger has it.
    if (tracer.total("fuzz.generate").second == 0) {
        for (unsigned i = 0; i < popCount; ++i)
            generateSource(popSeed + i, &tracer);
    }

    Ledger l;
    const auto start = Clock::now();
    size_t measured = 0;
    do {
        for (const BuiltProgram &p : bench.programs()) {
            if (measured && Clock::now() > cutoff)
                break;
            measureProgram(bench, p, rng, l);
            ++measured;
        }
    } while (secondsSince(start) < seconds && Clock::now() < cutoff);
    if (measured < bench.programs().size()) {
        std::fprintf(stderr, "perfbench: ledger cut off after %zu of %zu "
                     "programs\n", measured, bench.programs().size());
    }

    Metrics m;
    m.emplace_back("fuzz.generate_us_per_program",
                   spanUs(tracer, "fuzz.generate"));
    m.emplace_back("fuzz.programs",
                   double(tracer.total("fuzz.generate").second));
    m.emplace_back("minicc.compile_us_per_program",
                   spanUs(tracer, "minicc.compile"));
    m.emplace_back("minicc.programs",
                   double(tracer.total("minicc.compile").second));
    m.emplace_back("asm.assemble_us_per_program",
                   spanUs(tracer, "asm.assemble"));
    m.emplace_back("sim.setup_us_per_program",
                   spanUs(tracer, "sim.setup"));
    m.emplace_back("core.setup_us_per_program",
                   spanUs(tracer, "core.setup"));
    m.emplace_back("core.report_us_per_program",
                   spanUs(tracer, "core.report"));
    m.emplace_back("core.pipelines",
                   double(tracer.total("core.setup").second));

    const double sim_run = l.bare.nsPer();
    const double dispatch = l.noop.nsPer() - sim_run;
    m.emplace_back("sim.run_ns_per_instr", sim_run);
    m.emplace_back("sim.dispatch_ns_per_instr", dispatch);
    m.emplace_back("sim.instructions", double(l.bare.count));

    // The tracker-only window holds simulation and dispatch too; the
    // tracker's own share is what it adds over the no-op observer.
    const double whole = l.all.nsPer();
    const double tracker = l.tracker.nsPer() - l.noop.nsPer();
    double predicted = sim_run + dispatch + tracker;
    m.emplace_back("core.window_ns_per_instr", whole);
    m.emplace_back("core.window_instructions", double(l.all.count));
    m.emplace_back("core.tracker_ns_per_instr", tracker);
    for (unsigned a = 0; a < numAnalyses; ++a) {
        const std::string name = std::string("core.") + analysisNames[a];
        predicted += l.marginal[a].nsPer();
        m.emplace_back(name + ".marginal_ns_per_instr",
                       l.marginal[a].nsPer());
        m.emplace_back(name + ".isolated_ns_per_instr",
                       l.isolated[a].nsPer());
    }
    // Positive: the parts miss cost the whole has (interaction, e.g.
    // cache pressure); negative: the marginals overlap. The metric is
    // the size of the miss; stderr keeps the sign.
    const double residual =
        whole > 0 ? 100.0 * (whole - predicted) / whole : 0;
    std::fprintf(stderr, "perfbench: parts residual %+.2f%% (window "
                 "%.2f ns/instr, parts %.2f)\n", residual, whole, predicted);
    m.emplace_back("core.parts_residual_pct", std::fabs(residual));

    m.emplace_back("trace_io.record_ns_per_instr", l.record.nsPer());
    m.emplace_back("trace_io.write_ns_per_instr",
                   l.record.nsPer() - l.noop.nsPer());
    m.emplace_back("trace_io.read_ns_per_instr", l.read.nsPer());
    m.emplace_back("trace_io.instructions", double(l.traceInstr));
    const auto mbPerS = [](const Acc &a) {
        return a.seconds > 0 ? double(a.count) / a.seconds / 1e6 : 0;
    };
    m.emplace_back("trace_io.codec.compress_mb_per_s", mbPerS(l.compress));
    m.emplace_back("trace_io.codec.decompress_mb_per_s",
                   mbPerS(l.decompress));
    m.emplace_back("trace_io.codec.raw_bytes", double(l.compress.count));
    const double instr = double(std::max<uint64_t>(1, l.traceInstr));
    m.emplace_back("trace_io.raw_bytes_per_instr", double(l.rawBytes) / instr);
    m.emplace_back("trace_io.stored_bytes_per_instr",
                   double(l.storedBytes) / instr);
    return m;
}

} // namespace perfbench
