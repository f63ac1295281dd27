/**
 * @file
 * perfbench-driver: one repetition of one benchmark workload, through
 * the library's public entry points only (Machine, Workload::install,
 * Machine::run, Workload::verify, Machine::dumpStatsJson).
 *
 *   perfbench-driver --workload <name> --seed <n> --threads <t>
 *                    --stats-out <file> [--profile]
 *
 * Each repetition runs in its own process, so a panic in verify() fails
 * that repetition alone and the process's peak RSS is the run's own.
 * The driver writes the machine's stats JSON (with its "host" block) to
 * --stats-out and prints one JSON line of host timings, the CPU seconds
 * of a fixed host-speed probe run before set-up and after verify(), and
 * the peak RSS up to the end of verify() on stdout. With
 * --profile the HostProfiler is on for Machine::run and the line also
 * carries its scope snapshot. run.py turns repetitions into metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_common.hh"
#include "obs/host_profiler.hh"
#include "obs/json.hh"
#include "workload/random_stress.hh"

using namespace limitless;

namespace
{

double
seconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** The workloads of BENCHMARK.json; see run.py for why each exists. */
bool
configure(const std::string &name, std::uint64_t seed, unsigned threads,
          MachineConfig &cfg, std::unique_ptr<Workload> &wl)
{
    if (name == "weather64") {
        // The Fig. 8 machine: 8x8 mesh, LimitLESS4 Ts=50.
        cfg = bench::alewife64(protocols::limitlessStall(4, 50));
        wl = std::make_unique<Weather>(bench::weatherFigureParams());
    } else if (name == "stress64") {
        cfg = bench::alewife64(protocols::limitlessEmulated(4));
        cfg.seed = seed;
        RandomStressParams rp;
        rp.opsPerProc = 4000;
        rp.seed = seed;
        wl = std::make_unique<RandomStress>(rp);
    } else if (name == "torus1024") {
        // The perf_sim_throughput parallel-kernel row: 1024-node torus,
        // Weather at figure size cut to 1 iteration.
        cfg = bench::alewife64(protocols::limitlessStall(4, 50));
        cfg.numNodes = 1024;
        cfg.topology.kind = TopologyKind::torus;
        WeatherParams wp = bench::weatherFigureParams();
        wp.iterations = 1;
        wl = std::make_unique<Weather>(wp);
    } else {
        return false;
    }
    cfg.simThreads = threads;
    return true;
}

/**
 * Host-speed probe: a fixed event-queue-like workload (a binary heap of
 * 16384 timestamps, popped and re-pushed) that shares no code with the
 * simulator. Returns the calling thread's CPU seconds for it: how fast
 * the shared host runs this kind of code at that moment. run.py scales
 * the run's and set-up's CPU seconds by it.
 */
double
probeCpuSeconds(std::uint64_t &sink)
{
    const double c0 = seconds(CLOCK_THREAD_CPUTIME_ID);
    std::uint64_t s = 7;
    auto next = [&s]() { // splitmix64
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        q;
    for (int i = 0; i < 16384; ++i)
        q.push(next() >> 20);
    for (int i = 0; i < 600000; ++i) {
        const std::uint64_t x = q.top();
        q.pop();
        q.push(x + (next() & 1023));
        sink += x;
    }
    return seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, statsOut;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    bool profile = false;
    for (int i = 1; i < argc; ++i) {
        const bool more = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && more)
            workload = argv[++i];
        else if (!std::strcmp(argv[i], "--seed") && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--threads") && more)
            threads = static_cast<unsigned>(std::strtoul(argv[++i],
                                                         nullptr, 10));
        else if (!std::strcmp(argv[i], "--stats-out") && more)
            statsOut = argv[++i];
        else if (!std::strcmp(argv[i], "--profile"))
            profile = true;
        else {
            std::fprintf(stderr, "perfbench-driver: bad argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    MachineConfig cfg;
    std::unique_ptr<Workload> wl;
    if (statsOut.empty() || threads == 0 ||
        !configure(workload, seed, threads, cfg, wl)) {
        std::fprintf(stderr, "usage: perfbench-driver --workload "
                             "<weather64|stress64|torus1024> --seed <n> "
                             "--threads <t> --stats-out <file> "
                             "[--profile]\n");
        return 2;
    }

    // The probe brackets set-up and run on this thread; the second pass
    // follows the peak-RSS reading so its heap is not counted.
    std::uint64_t sink = 0;
    double probeCpu = probeCpuSeconds(sink);

    const double setupCpu0 = seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double t0 = seconds(CLOCK_MONOTONIC);
    Machine machine(cfg);
    const double t1 = seconds(CLOCK_MONOTONIC);
    wl->install(machine);
    const double t2 = seconds(CLOCK_MONOTONIC);
    const double setupCpu1 = seconds(CLOCK_PROCESS_CPUTIME_ID);

    if (profile) {
        HostProfiler::reset();
        HostProfiler::enable();
    }
    const double cpu0 = seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double t3 = seconds(CLOCK_MONOTONIC);
    const RunResult run = machine.run();
    const double t4 = seconds(CLOCK_MONOTONIC);
    const double cpu1 = seconds(CLOCK_PROCESS_CPUTIME_ID);
    if (profile)
        HostProfiler::disable();

    if (!run.completed) {
        std::fprintf(stderr, "perfbench-driver: %s did not complete\n",
                     workload.c_str());
        return 1;
    }
    wl->verify(machine); // panics (aborts) on a data error
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    probeCpu += probeCpuSeconds(sink);

    {
        std::ofstream out(statsOut);
        machine.dumpStatsJson(out, run.cycles, &run);
        if (!out) {
            std::fprintf(stderr, "perfbench-driver: cannot write '%s'\n",
                         statsOut.c_str());
            return 1;
        }
    }

    std::ostringstream line;
    line.precision(9);
    line << "{\"construct_s\": " << t1 - t0 << ", \"install_s\": "
         << t2 - t1 << ", \"run_s\": " << t4 - t3 << ", \"cpu_s\": "
         << cpu1 - cpu0 << ", \"setup_cpu_s\": " << setupCpu1 - setupCpu0
         << ", \"probe_cpu_s\": " << probeCpu << ", \"probe_sink\": "
         << (sink & 1) << ", \"peak_rss_kb\": " << usage.ru_maxrss
         << ", \"partitions\": " << machine.numPartitions()
         << ", \"compiler\": ";
    jsonEscape(line, PERFBENCH_COMPILER);
    line << ", \"build_type\": ";
    jsonEscape(line, PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
    line << ", \"asserts\": false";
#else
    line << ", \"asserts\": true";
#endif
    if (profile) {
        line << ", \"scopes\": [";
        bool first = true;
        for (const HostProfiler::Scope &s : HostProfiler::snapshot()) {
            line << (first ? "" : ", ") << "{\"path\": ";
            jsonEscape(line, s.path);
            line << ", \"count\": " << s.count << ", \"wall_ns\": "
                 << s.wallNs << ", \"self_ns\": " << s.selfNs << "}";
            first = false;
        }
        line << "]";
    }
    line << "}";
    std::cout << line.str() << std::endl;
    return 0;
}
