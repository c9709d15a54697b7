/**
 * @file
 * irep_perfbench: the repository's benchmark program.
 *
 *   irep_perfbench --workload <paper-live|trace-roundtrip|population>
 *                  --seed N --seconds S --trace 0|1
 *
 * With --trace 0 it first measures the workload's peak resident set
 * in a child process. It sets up the workload at least five times and
 * for at least a second, and with --trace 0 once more after every pass
 * (setup_s is the median of them all); then with --trace 0 it runs
 * whole timed passes over its programs for S seconds and reports the
 * end-to-end metrics, every time scaled to reference speed by the
 * calibration kernel (calibrate.hh); with --trace 1 it
 * alternates untraced and span-traced passes (the difference is the
 * tracing overhead) and builds the layer ledger. Either way an untimed
 * checking pass then verifies the outputs, and the last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Per-program stats digests are printed before it. Every operation
 * runs under a watchdog: one that hangs ends the run with that line,
 * `correct` false.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "calibrate.hh"
#include "common.hh"
#include "ledger.hh"

extern char **environ;

namespace perfbench
{
namespace
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Traces and span files go here, under the working directory. */
const std::string workDir = ".bench_build/run";

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "irep_perfbench: %s\nusage: irep_perfbench --workload "
                 "<paper-live|trace-roundtrip|population> "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad number for " + flag).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** No IREP_* knob may change what is measured. */
void
clearIrepEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "IREP_", 5) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? size_t(eq - *e) : std::strlen(*e));
        }
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

/** A private directory for traces, removed with everything in it. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent)
    {
        std::filesystem::create_directories(parent);
        std::string templ = parent + "/irep-XXXXXX";
        if (!mkdtemp(templ.data()))
            throw std::runtime_error("mkdtemp failed in " + parent);
        path_ = templ;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<size_t>
shuffled(size_t n, std::mt19937_64 &rng)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** Operations that did not reproduce the checked outputs. */
uint64_t
failedOps(const PassResult &pass, const CheckResult &check)
{
    uint64_t failed = 0;
    for (size_t i = 0; i < check.digests.size(); ++i) {
        failed += !check.ok[i] || pass.digests[i] != check.digests[i] ||
            pass.outputs[i] != check.outputs[i];
    }
    return failed;
}

double
nsPer(double seconds, uint64_t instructions)
{
    return seconds * 1e9 / double(std::max<uint64_t>(1, instructions));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/**
 * Each program's median operation over the passes, summed, from times
 * already at reference speed. The median, not the fastest: each
 * scaled time carries the noise of its kernel sample too, and the
 * fastest of them picks out the kernel's slow outliers. Each pass's
 * own totals go to stderr (its suite_s raw wall clock, the rest
 * scaled).
 */
ProgramTiming
medianOf(const std::vector<PassResult> &passes, size_t n)
{
    for (size_t k = 0; k < passes.size(); ++k) {
        const PassResult &p = passes[k];
        ProgramTiming sum;
        for (const ProgramTiming &t : p.programs) {
            sum.analyzeSeconds += t.analyzeSeconds;
            sum.analyzeInstr += t.analyzeInstr;
            sum.windowSeconds += t.windowSeconds;
            sum.windowInstr += t.windowInstr;
        }
        std::fprintf(stderr,
                     "perfbench: pass %zu suite_s %.4f cpu_s %.4f "
                     "analyze_ns %.2f window_ns %.2f\n",
                     k + 1, p.seconds, p.cpuSeconds,
                     nsPer(sum.analyzeSeconds, sum.analyzeInstr),
                     nsPer(sum.windowSeconds, sum.windowInstr));
    }
    ProgramTiming total;
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> seconds, analyze, window;
        for (const PassResult &p : passes) {
            seconds.push_back(p.programs[i].seconds);
            analyze.push_back(p.programs[i].analyzeSeconds);
            window.push_back(p.programs[i].windowSeconds);
        }
        total.seconds += median(seconds);
        total.analyzeSeconds += median(analyze);
        total.windowSeconds += median(window);
        total.analyzeInstr += passes.front().programs[i].analyzeInstr;
        total.windowInstr += passes.front().programs[i].windowInstr;
    }
    return total;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Unit of a metric, from its name. */
const char *
unitOf(const std::string &name)
{
    const auto ends = [&name](const char *s) {
        const size_t n = std::strlen(s);
        return name.size() >= n &&
            name.compare(name.size() - n, n, s) == 0;
    };
    if (ends("_ns_per_instr"))
        return "ns";
    if (ends("_us_per_program"))
        return "us";
    if (ends("_mb_per_s"))
        return "MB/s";
    if (ends("_bytes_per_instr"))
        return "B";
    if (ends("_ms"))
        return "ms";
    if (ends("_pct"))
        return "%";
    if (ends("_mib"))
        return "MiB";
    if (ends("per_s"))
        return "1/s";
    if (ends("_s"))
        return "s";
    return "count";
}

/**
 * The workload's peak resident set in MiB, apart from the calibration
 * kernel's memory: a child process, forked before any thread starts,
 * sets up and runs one untimed pass, and its peak is read when it
 * ends.
 */
double
peakRssOfOnePass(Kind kind, const std::string &tmp_dir)
{
    std::fflush(nullptr);
    const pid_t child = fork();
    if (child < 0)
        throw std::runtime_error("fork failed");
    if (child == 0) {
        int code = 0;
        try {
            Bench bench(kind, tmp_dir, nullptr, nullptr);
            bench.setup(nullptr);
            std::vector<size_t> order(bench.programs().size());
            std::iota(order.begin(), order.end(), 0);
            bench.pass(order, nullptr);
        } catch (const std::exception &) {
            code = 1;
        }
        _exit(code);
    }
    int status = 0;
    struct rusage usage = {};
    while (wait4(child, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("the peak-RSS pass failed");
    return double(usage.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

int
run(const Options &o)
{
    const auto run_start = Clock::now();
    Kind kind;
    if (!parseKind(o.workload, kind))
        usage(("unknown workload " + o.workload).c_str());

    clearIrepEnvironment();
    const TempDir tmp(workDir);
    // Before the calibration stream exists and any thread starts.
    const double rss = o.trace ? 0 : peakRssOfOnePass(kind, tmp.path());
    Calibrator calibrator;
    Watchdog watchdog(tmp.path());
    Bench bench(kind, tmp.path(), &watchdog, &calibrator);
    Tracer tracer;
    Tracer *traced = o.trace ? &tracer : nullptr;
    std::mt19937_64 rng(o.seed);

    std::vector<double> setups;
    const auto setup = [&] {
        const double scale = calibrator.scale();
        const auto start = Clock::now();
        bench.setup(traced);
        setups.push_back(scale * secondsSince(start));
    };
    const auto setup_start = Clock::now();
    while (setups.size() < setupRepeats ||
           secondsSince(setup_start) < setupSeconds)
        setup();
    const size_t n = bench.programs().size();

    std::vector<PassResult> passes;
    Metrics metrics;
    bool ledger_ok = true;
    if (!o.trace) {
        // One more set-up after every pass spreads the set-up samples
        // over the whole run, so the fastest of them comes from a quiet
        // stretch of the host.
        const auto start = Clock::now();
        while (passes.size() < 3 || secondsSince(start) < o.seconds) {
            passes.push_back(bench.pass(shuffled(n, rng), nullptr));
            setup();
        }
    } else {
        // Untraced and traced passes alternate, so drift hits both.
        std::vector<PassResult> plain, with_spans;
        for (int r = 0; r < 2; ++r) {
            plain.push_back(bench.pass(shuffled(n, rng), nullptr));
            with_spans.push_back(bench.pass(shuffled(n, rng), traced));
        }
        passes = plain;
        passes.insert(passes.end(), with_spans.begin(), with_spans.end());
        try {
            metrics = runLedger(bench, rng, o.seconds,
                                run_start + ledgerCutoff, tracer);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: ledger failed: %s\n",
                         e.what());
            ledger_ok = false;
        }
        metrics.emplace_back("trace.overhead_s",
                             medianOf(with_spans, n).seconds -
                                 medianOf(plain, n).seconds);
        metrics.emplace_back("trace.spans", double(tracer.spans().size()));
        metrics.emplace_back("host.calibration_ms",
                             1e3 * median(calibrator.samples()));
        const std::string spans_path = workDir + "/spans-" + o.workload +
            "-seed" + std::to_string(o.seed) + ".json";
        tracer.writeJson(spans_path);
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     spans_path.c_str());
    }

    const auto check_start = Clock::now();
    const CheckResult check = bench.check();
    std::fprintf(stderr, "perfbench: checking pass %.2f s\n",
                 secondsSince(check_start));
    for (const std::string &p : check.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

    uint64_t attempted = n + passes.size() * n;
    uint64_t failed = std::count(check.ok.begin(), check.ok.end(), false);
    for (const PassResult &p : passes)
        failed += failedOps(p, check);
    if (o.trace) {
        ++attempted;    // the ledger
        failed += !ledger_ok;
    }

    uint64_t all = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        std::printf("stats-digest %s %s %s\n", o.workload.c_str(),
                    bench.programs()[i].name.c_str(),
                    hex64(check.digests[i]).c_str());
        all = (all ^ check.digests[i]) * 0x100000001b3ull;
    }
    std::printf("stats-digest %s all %s\n", o.workload.c_str(),
                hex64(all).c_str());

    std::fprintf(stderr, "perfbench: calibration kernel ms");
    for (double v : calibrator.samples())
        std::fprintf(stderr, " %.2f", 1e3 * v);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr, "perfbench: setup_s samples");
    for (double v : setups)
        std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\n");

    if (!o.trace) {
        const ProgramTiming b = medianOf(passes, n);
        metrics.emplace_back("setup_s", median(setups));
        metrics.emplace_back("suite_s", b.seconds);
        metrics.emplace_back("analyze_ns_per_instr",
                             nsPer(b.analyzeSeconds, b.analyzeInstr));
        metrics.emplace_back("window_ns_per_instr",
                             nsPer(b.windowSeconds, b.windowInstr));
        metrics.emplace_back("programs_per_s", double(n) / b.seconds);
        metrics.emplace_back("peak_rss_mib", rss);
    }

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].first +
            "\": {\"value\": " + number(metrics[i].second) +
            ", \"unit\": \"" + unitOf(metrics[i].first) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "irep_perfbench: %s\n", e.what());
        return 1;
    }
}
