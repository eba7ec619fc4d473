/**
 * @file
 * The NUAT performance benchmark program.
 *
 *   nuat_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--spans-out PATH]
 *
 * Workloads (all single-threaded; see README.md for why each exists):
 *   sim_mix4_ddr5_darp  4 cores libq,comm1,ferret,leslie, DDR5-4800,
 *                       per-bank refresh with DARP, NUAT scheduler
 *   sim_swapt_ddr3      1 core swapt, DDR3-1600, all-bank refresh
 *   serve_det_2x2       runServe, deterministic, 2 shards x 2
 *                       producers streaming comm1,libq, block admission
 *
 * --trace 0 repeats the untraced workload for --seconds and prints the
 * end-to-end metrics (host times are medians over the repetitions, each
 * scaled by a reference kernel timed around it; see HostClock).
 * --trace 1 alternates untraced and traced repetitions and prints the
 * per-layer metrics (medians over the traced repetitions).  Every
 * repetition is checked; the last stdout line is one JSON object with
 * the keys correct, attempted, failed and metrics.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/mpsc_queue.hh"
#include "host_reference.hh"
#include "sim/result_json.hh"
#include "sim/serve_runtime.hh"
#include "sim/system.hh"
#include "trace/request_stream.hh"
#include "traced_system.hh"

using namespace nuat;
using namespace nuat::perfbench;

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Sized so one untraced repetition takes about 0.6-0.9 s on a
 *  2.1 GHz x86 core, giving a run dozens of repetitions to take a
 *  median over. */
constexpr std::uint64_t kMix4OpsPerCore = 10000;
constexpr std::uint64_t kSwaptOps = 200000;
constexpr std::uint64_t kServeRequestsPerProducer = 30000;

/** Set-ups timed before each repetition; their median is that
 *  repetition's set-up time. */
constexpr int kSetupsPerRep = 8;

/** Reads a run must retire so that >= 10 lie beyond its p99. */
constexpr std::uint64_t kMinReads = 1000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered metric set of one repetition or one run. */
using Metrics = std::map<std::string, Metric>;

/** What a run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool ok = true; //!< false once any check failed
    Metrics metrics;
};

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/** Median of @p v, interpolated between the middle order statistics. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/** Median wall time of kSetupsPerRep calls of @p setup. */
double
timeSetups(const std::function<void()> &setup)
{
    std::vector<double> t;
    for (int i = 0; i < kSetupsPerRep; ++i) {
        const auto t0 = SteadyClock::now();
        setup();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

/**
 * Host times of a run at the reference speed.  The reference kernel
 * (host_reference.hh) runs before the first repetition and after each
 * one; a repetition's set-up and run times are divided by the mean of
 * the kernel's two times around it and multiplied by
 * kReferenceNominalSeconds, so a swing in host speed that lasts longer
 * than a repetition cancels.  The run reports medians of these.
 */
class HostClock
{
  public:
    HostClock() : before_(referenceSeconds()) {}

    /** Records one repetition's raw set-up and run seconds. */
    void add(double setup_s, double run_s)
    {
        const double after = referenceSeconds();
        const double scale =
            kReferenceNominalSeconds / (0.5 * (before_ + after));
        setup_.push_back(setup_s * scale);
        run_.push_back(run_s * scale);
        rawRun_.push_back(run_s);
        reference_.push_back(after);
        before_ = after;
    }

    double setupSeconds() const { return median(setup_); }
    double runSeconds() const { return median(run_); }

    /** One stdout line with the raw figures the scaling started from. */
    void print() const
    {
        std::printf("host: repetition median %.4f s raw, %.4f s at "
                    "reference speed; reference kernel median %.4f s "
                    "(nominal %.4f s)\n",
                    median(rawRun_), runSeconds(), median(reference_),
                    kReferenceNominalSeconds);
    }

  private:
    double before_;
    std::vector<double> setup_;
    std::vector<double> run_;
    std::vector<double> rawRun_;
    std::vector<double> reference_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-key median over a list of metric sets with the same keys. */
Metrics
medianOf(const std::vector<Metrics> &sets)
{
    Metrics out;
    if (sets.empty())
        return out;
    for (const auto &[name, m] : sets.front()) {
        std::vector<double> vals;
        for (const Metrics &s : sets)
            vals.push_back(s.at(name).value);
        out[name] = Metric{median(vals), m.unit};
    }
    return out;
}

/** Process peak resident set [MB]: VmHWM.  (getrusage's ru_maxrss is
 *  not used: Linux carries it across exec, so it would report the
 *  launching Python process.) */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/**
 * Read-latency quantile @p q from an 8-cycle histogram.  Inside the
 * histogram's range this is Histogram::percentile.  When more than
 * 1 - q of the samples overflow the last bucket (serve at saturation),
 * percentile() would return the single largest sample; instead the
 * overflow is modelled as an exponential tail whose mean excess is the
 * overflow samples' mean (their sum is the histogram's total minus the
 * buckets' counts at bucket centres) beyond the last edge.  That is an
 * estimate, not the program's figure: on serve it reads 3-8% below the
 * true p99 (README.md, "Serve p99 is an estimate").
 */
double
latencyQuantile(const Histogram &h, double q)
{
    const double total = static_cast<double>(h.summary().count());
    const double over = static_cast<double>(h.overflow());
    if (over <= (1.0 - q) * total || h.underflow() != 0)
        return h.percentile(q);
    double over_sum = h.summary().sum();
    for (unsigned i = 0; i < h.buckets(); ++i)
        over_sum -= static_cast<double>(h.bucketCount(i)) *
                    (h.lo() + (i + 0.5) * h.width());
    const double edge = h.lo() + h.buckets() * h.width();
    const double mean_excess = std::max(over_sum / over - edge, 0.0);
    return edge + mean_excess * std::log(over / ((1.0 - q) * total));
}

void
fail(Outcome &out, std::uint64_t requests, const std::string &why)
{
    out.failed += requests;
    out.ok = false;
    std::fprintf(stderr, "nuat_perfbench: check failed: %s\n",
                 why.c_str());
}

// ------------------------------------------------------------------
// Workload configs
// ------------------------------------------------------------------

bool
simConfig(const Options &opt, ExperimentConfig &cfg)
{
    if (opt.workload == "sim_mix4_ddr5_darp") {
        cfg.applyDramGen(DramGen::kDdr5_4800);
        cfg.controller.refreshPolicy = RefreshPolicy::kDarp;
        cfg.workloads = {"libq", "comm1", "ferret", "leslie"};
        cfg.memOpsPerCore = kMix4OpsPerCore;
    } else if (opt.workload == "sim_swapt_ddr3") {
        cfg.applyDramGen(DramGen::kDdr3_1600);
        cfg.workloads = {"swapt"};
        cfg.memOpsPerCore = kSwaptOps;
    } else {
        return false;
    }
    cfg.scheduler = SchedulerKind::kNuat;
    cfg.seed = opt.seed;
    return true;
}

ServeConfig
serveConfig(const Options &opt)
{
    ServeConfig cfg;
    cfg.experiment.workloads = {"comm1", "libq"};
    cfg.experiment.scheduler = SchedulerKind::kNuat;
    cfg.experiment.seed = opt.seed;
    cfg.shards = 2;
    cfg.producers = 2;
    cfg.admission = AdmissionPolicy::kBlock;
    cfg.deterministic = true;
    cfg.requestsPerProducer = kServeRequestsPerProducer;
    return cfg;
}

// ------------------------------------------------------------------
// Simulator workloads
// ------------------------------------------------------------------

/** Checks one sim result; false (with a reason) on failure. */
bool
checkSim(const RunResult &r, bool cores_done, std::string &why)
{
    if (r.hitCycleCap)
        why = "run hit the cycle cap";
    else if (!cores_done)
        why = "a core did not finish its trace";
    else if (r.ctrl.readsAccepted !=
             r.ctrl.readsCompleted + r.ctrl.readsMerged)
        why = "readsAccepted != readsCompleted + readsMerged";
    else if (r.ctrl.readsCompleted < kMinReads)
        why = "too few reads for a p99";
    return why.empty();
}

std::uint64_t
simRequests(const RunResult &r)
{
    return r.ctrl.readsAccepted + r.ctrl.writesAccepted;
}

/** One checked, untraced System run. */
struct SimRep
{
    double runS = 0.0;
    RunResult result;
    std::string json; //!< runResultToJson(result)
};

SimRep
runSimOnce(const ExperimentConfig &cfg, Outcome &out)
{
    SimRep rep;
    System sys(cfg);
    const auto t0 = SteadyClock::now();
    rep.result = sys.run();
    rep.runS = secondsSince(t0);
    rep.json = runResultToJson(rep.result);

    bool cores_done = true;
    for (const auto &core : sys.cores())
        cores_done = cores_done && core->done();
    std::string why;
    const std::uint64_t reqs = simRequests(rep.result);
    out.attempted += reqs;
    if (!checkSim(rep.result, cores_done, why))
        fail(out, reqs, why);
    return rep;
}

Outcome
simEndToEnd(const Options &opt, const ExperimentConfig &cfg)
{
    Outcome out;
    // Every repetition does the same work (checked below), so rates
    // follow from the reported host time.
    std::string first;
    RunResult ref;
    const auto start = SteadyClock::now();
    HostClock clock;
    int reps = 0;
    while (reps < 2 || secondsSince(start) < opt.seconds) {
        const double setup = timeSetups([&] { System sys(cfg); });
        SimRep rep = runSimOnce(cfg, out);
        clock.add(setup, rep.runS);
        if (reps == 0) {
            first = rep.json;
            ref = rep.result;
        } else if (rep.json != first) {
            fail(out, simRequests(rep.result),
                 "repetition differs from the first (same seed)");
        }
        ++reps;
    }

    std::printf("workload %s seed %llu: %d repetitions, %llu reads "
                "(p99 has >= %llu reads beyond it)\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), reps,
                static_cast<unsigned long long>(ref.ctrl.readsCompleted),
                static_cast<unsigned long long>(
                    ref.ctrl.readsCompleted / 100));
    clock.print();

    const double t = clock.runSeconds();
    Metrics &m = out.metrics;
    m["setup_s"] = {clock.setupSeconds(), "s"};
    m["mcycles_per_s"] = {static_cast<double>(ref.memCycles) / t * 1e-6,
                          "Mcycles/s"};
    m["requests_per_s"] = {static_cast<double>(simRequests(ref)) / t,
                           "1/s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    m["exec_mcycles"] = {static_cast<double>(ref.memCycles) * 1e-6,
                         "Mcycles"};
    m["read_lat_p50_cyc"] = {
        latencyQuantile(ref.ctrl.readLatencyHist, 0.50), "cycles"};
    m["read_lat_p99_cyc"] = {
        latencyQuantile(ref.ctrl.readLatencyHist, 0.99), "cycles"};
    return out;
}

/** Per-layer metrics of every layer at zero (layers a workload does
 *  not exercise keep these values). */
Metrics
zeroLayers()
{
    static const std::vector<std::pair<const char *, const char *>> k{
        {"trace.next_s", "s"},
        {"trace.calls", "count"},
        {"cpu.self_s", "s"},
        {"cpu.ticks", "count"},
        {"mem.port_s", "s"},
        {"mem.port_reject_ratio", "ratio"},
        {"mem.ctrl_s", "s"},
        {"mem.ctrl_ticks", "count"},
        {"mem.ctrl_ns_per_tick", "ns"},
        {"mem.issue_ratio", "ratio"},
        {"mem.rq_occupancy", "requests"},
        {"mem.wq_occupancy", "requests"},
        {"sched.pick_s", "s"},
        {"sched.picks", "count"},
        {"sched.cands_per_pick", "count"},
        {"sched.tick_s", "s"},
        {"sched.on_issue_s", "s"},
        {"dram.act", "count"},
        {"dram.pre", "count"},
        {"dram.rd", "count"},
        {"dram.wr", "count"},
        {"dram.ref", "count"},
        {"verify.audit_s", "s"},
        {"verify.violations", "count"},
        {"sim.ff_s", "s"},
        {"sim.ff_ratio", "ratio"},
        {"sim.loop_s", "s"},
        {"sim.coverage", "ratio"},
        {"sim.trace_overhead", "ratio"},
        {"serve.stream_s", "s"},
        {"serve.ring_s", "s"},
        {"serve.shard_s", "s"},
        {"serve.cycles_per_req", "cycles"},
        {"serve.backpressure_per_req", "yields/req"},
        {"serve.shard_imbalance", "ratio"},
        {"serve.shed_ratio", "ratio"},
    };
    Metrics m;
    for (const auto &[name, unit] : k)
        m[name] = {0.0, unit};
    return m;
}

void
set(Metrics &m, const std::string &name, double value)
{
    m.at(name).value = value; // throws on a name outside zeroLayers()
}

Outcome
simLayers(const Options &opt, const ExperimentConfig &cfg)
{
    Outcome out;
    std::vector<Metrics> layers;
    const auto start = SteadyClock::now();
    while (layers.empty() || secondsSince(start) < opt.seconds) {
        const SimRep plain = runSimOnce(cfg, out);

        SpanTracer tracer;
        TracedSystem traced(cfg, tracer);
        const RunResult r = traced.run();
        const std::uint64_t reqs = simRequests(r);
        out.attempted += reqs;
        std::string why;
        if (runResultToJson(r) != plain.json)
            why = "traced RunResult differs from System::run";
        else if (traced.auditViolations() != 0)
            why = std::to_string(traced.auditViolations()) +
                  " protocol auditor violations";
        else
            checkSim(r, traced.allCoresDone(), why);
        if (!why.empty())
            fail(out, reqs, why);

        if (layers.empty() && !opt.spansOut.empty()) {
            std::ofstream spans(opt.spansOut);
            tracer.writeSpans(spans);
            if (!spans)
                std::fprintf(stderr, "nuat_perfbench: cannot write %s\n",
                             opt.spansOut.c_str());
        }

        const double wall = tracer.totalSeconds();
        const double loop = tracer.selfSeconds(Layer::kRun);
        const auto calls = [&](Layer l) {
            return static_cast<double>(tracer.calls(l));
        };
        const double ctrl_ticks = calls(Layer::kCtrl);
        const double picks = calls(Layer::kSchedPick);

        Metrics m = zeroLayers();
        set(m, "trace.next_s", tracer.selfSeconds(Layer::kTrace));
        set(m, "trace.calls", calls(Layer::kTrace));
        set(m, "cpu.self_s", tracer.selfSeconds(Layer::kCpu));
        // Every non-skipped memory cycle ticks each core cpuPerMem times.
        set(m, "cpu.ticks",
            static_cast<double>(r.memCycles - r.idleCyclesSkipped) *
                cfg.cpuPerMem * cfg.cores());
        set(m, "mem.port_s", tracer.selfSeconds(Layer::kPort));
        set(m, "mem.port_reject_ratio",
            ratio(static_cast<double>(traced.portRejects()),
                  static_cast<double>(traced.portAcceptCalls())));
        set(m, "mem.ctrl_s", tracer.selfSeconds(Layer::kCtrl));
        set(m, "mem.ctrl_ticks", ctrl_ticks);
        set(m, "mem.ctrl_ns_per_tick",
            ratio(tracer.selfSeconds(Layer::kCtrl) * 1e9, ctrl_ticks));
        set(m, "mem.issue_ratio",
            ratio(static_cast<double>(traced.commandsTotal()),
                  ctrl_ticks));
        set(m, "mem.rq_occupancy", r.ctrl.avgReadQOccupancy());
        set(m, "mem.wq_occupancy", r.ctrl.avgWriteQOccupancy());
        set(m, "sched.pick_s", tracer.selfSeconds(Layer::kSchedPick));
        set(m, "sched.picks", picks);
        set(m, "sched.cands_per_pick",
            ratio(static_cast<double>(traced.schedCandidates()), picks));
        set(m, "sched.tick_s", tracer.selfSeconds(Layer::kSchedTick));
        set(m, "sched.on_issue_s",
            tracer.selfSeconds(Layer::kSchedIssue));
        set(m, "dram.act",
            static_cast<double>(traced.commands(CmdType::kAct)));
        set(m, "dram.pre",
            static_cast<double>(traced.commands(CmdType::kPre)));
        set(m, "dram.rd",
            static_cast<double>(traced.commands(CmdType::kRead) +
                                traced.commands(CmdType::kReadAp)));
        set(m, "dram.wr",
            static_cast<double>(traced.commands(CmdType::kWrite) +
                                traced.commands(CmdType::kWriteAp)));
        set(m, "dram.ref",
            static_cast<double>(traced.commands(CmdType::kRef) +
                                traced.commands(CmdType::kRefsb)));
        set(m, "verify.audit_s", tracer.selfSeconds(Layer::kAudit));
        set(m, "verify.violations",
            static_cast<double>(traced.auditViolations()));
        set(m, "sim.ff_s", tracer.selfSeconds(Layer::kFastForward));
        set(m, "sim.ff_ratio",
            ratio(static_cast<double>(r.idleCyclesSkipped),
                  static_cast<double>(r.memCycles)));
        set(m, "sim.loop_s", loop);
        set(m, "sim.coverage", ratio(wall - loop, wall));
        // Each traced repetition is paired with the untraced one just
        // before it, so the host speed mostly cancels in the ratio.
        set(m, "sim.trace_overhead", ratio(wall, plain.runS));
        layers.push_back(std::move(m));
    }
    std::printf("workload %s seed %llu: %zu traced repetitions\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), layers.size());
    out.metrics = medianOf(layers);
    return out;
}

// ------------------------------------------------------------------
// Serve workload
// ------------------------------------------------------------------

bool
checkServe(const ServeConfig &cfg, const ServeResult &r, std::string &why)
{
    if (r.failed)
        why = "serve run failed: " +
              (r.errors.empty() ? std::string("?") : r.errors.front());
    else if (!r.conserves())
        why = "serve conservation broken";
    else if (r.hitCycleCap)
        why = "a shard hit the cycle cap";
    else if (r.requestsProduced !=
             cfg.requestsPerProducer * cfg.producers)
        why = "producers did not stream their full budget";
    else if (r.readsRetired < kMinReads)
        why = "too few reads for a p99";
    return why.empty();
}

Histogram
serveLatency(const ServeResult &r)
{
    Histogram h{0.0, 8.0, 256};
    for (const ServeClassStats &c : r.classes)
        h.merge(c.readLatency);
    return h;
}

/** Every ServeResult counter except the audit fields, as text. */
std::string
serveSignature(const ServeResult &r)
{
    std::ostringstream o;
    o << r.requestsProduced << ' ' << r.requestsIngested << ' '
      << r.readsRetired << ' ' << r.writesRetired << ' '
      << r.requestsRetired << ' ' << r.shedAdmission << ' '
      << r.shedTimeout << ' ' << r.shedPoison << ' '
      << r.poisonedInjected << ' ' << r.backpressureYields << ' '
      << r.backoffRounds << ' ' << r.maxShardCycles << ' '
      << r.totalShardCycles << ' ' << r.watchdogRecoveries << ' '
      << r.watchdogEaseSteps << ' ' << r.hitCycleCap << ' ' << r.failed;
    for (const std::uint64_t v : r.shardRetired)
        o << " r" << v;
    for (const std::uint64_t v : r.shardRecoveries)
        o << " w" << v;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.17g", r.avgReadLatency);
    o << buf;
    for (const ServeClassStats &c : r.classes) {
        o << " c" << c.produced << '/' << c.retired << '/'
          << c.shedTotal() << '/' << c.readLatency.summary().count();
        for (unsigned b = 0; b < c.readLatency.buckets(); ++b)
            o << ',' << c.readLatency.bucketCount(b);
        o << ',' << c.readLatency.overflow();
    }
    return o.str();
}

struct ServeRep
{
    double wallS = 0.0;
    ServeResult result;
};

ServeRep
runServeOnce(const ServeConfig &cfg, Outcome &out)
{
    ServeRep rep;
    const auto t0 = SteadyClock::now();
    rep.result = runServe(cfg);
    rep.wallS = secondsSince(t0);
    std::string why;
    out.attempted += rep.result.requestsProduced;
    if (!checkServe(cfg, rep.result, why))
        fail(out, rep.result.requestsProduced, why);
    return rep;
}

Outcome
serveEndToEnd(const Options &opt, const ServeConfig &cfg)
{
    Outcome out;
    // Serve builds its shard stacks inside runServe: set-up is the
    // wall time of the same config at one request per producer.
    ServeConfig tiny = cfg;
    tiny.requestsPerProducer = 1;
    const auto tiny_serve = [&] {
        const ServeResult r = runServe(tiny);
        if (r.failed || !r.conserves())
            fail(out, 0, "one-request serve run failed");
    };

    std::string first;
    ServeResult ref;
    const auto start = SteadyClock::now();
    HostClock clock;
    int reps = 0;
    while (reps < 2 || secondsSince(start) < opt.seconds) {
        const double setup = timeSetups(tiny_serve);
        ServeRep rep = runServeOnce(cfg, out);
        const ServeResult &r = rep.result;
        clock.add(setup, rep.wallS);
        const std::string sig = serveSignature(r);
        if (reps == 0) {
            first = sig;
            ref = r;
        } else if (sig != first) {
            fail(out, r.requestsProduced,
                 "repetition differs from the first (same seed)");
        }
        ++reps;
    }

    const Histogram lat = serveLatency(ref);
    std::printf("workload %s seed %llu: %d repetitions, %llu reads "
                "(p99 has >= %llu reads beyond it)\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), reps,
                static_cast<unsigned long long>(ref.readsRetired),
                static_cast<unsigned long long>(ref.readsRetired / 100));
    clock.print();

    const double t = clock.runSeconds();
    Metrics &m = out.metrics;
    m["setup_s"] = {clock.setupSeconds(), "s"};
    m["mcycles_per_s"] = {
        static_cast<double>(ref.totalShardCycles) / t * 1e-6, "Mcycles/s"};
    m["requests_per_s"] = {static_cast<double>(ref.requestsRetired) / t,
                           "1/s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    m["exec_mcycles"] = {static_cast<double>(ref.maxShardCycles) * 1e-6,
                         "Mcycles"};
    m["read_lat_p50_cyc"] = {latencyQuantile(lat, 0.50), "cycles"};
    m["read_lat_p99_cyc"] = {latencyQuantile(lat, 0.99), "cycles"};
    return out;
}

/** The serve view of the experiment, as runServe derives it. */
ExperimentConfig
serveExperiment(const ServeConfig &cfg)
{
    ExperimentConfig exp = cfg.experiment;
    exp.geometry.channels = cfg.shards;
    return exp;
}

/**
 * Replays every producer's RequestStream (same profile, seed salt,
 * budget and base row as runServe) into @p out; returns seconds.
 */
double
replayStreams(const ServeConfig &cfg, std::vector<StreamRequest> &out)
{
    const ExperimentConfig exp = serveExperiment(cfg);
    const std::uint32_t stride =
        std::max<std::uint32_t>(exp.geometry.rows / cfg.producers, 1);
    out.clear();
    out.reserve(cfg.requestsPerProducer * cfg.producers);
    const auto t0 = SteadyClock::now();
    for (unsigned i = 0; i < cfg.producers; ++i) {
        RequestStream stream(
            WorkloadProfile::byName(
                exp.workloads[i % exp.workloads.size()]),
            exp.geometry, exp.seed + i * 7919, cfg.requestsPerProducer,
            (i * stride) % exp.geometry.rows);
        StreamRequest r;
        while (stream.next(r))
            out.push_back(r);
    }
    return secondsSince(t0);
}

/**
 * Pushes @p reqs through one ring per shard at the configured
 * capacity, routed as producers route them, popping an ingest batch
 * whenever a ring is full; returns seconds and the pops in @p popped.
 */
double
replayRings(const ServeConfig &cfg, const std::vector<StreamRequest> &reqs,
            std::uint64_t &popped)
{
    const ExperimentConfig exp = serveExperiment(cfg);
    const AddressMapping mapping(exp.controller.mapping, exp.geometry);
    std::vector<std::unique_ptr<MpscQueue<StreamRequest>>> rings;
    for (unsigned s = 0; s < cfg.shards; ++s)
        rings.push_back(
            std::make_unique<MpscQueue<StreamRequest>>(cfg.queueCapacity));
    popped = 0;
    StreamRequest sink;
    const auto t0 = SteadyClock::now();
    for (const StreamRequest &r : reqs) {
        auto &ring = *rings[mapping.decompose(r.addr).channel];
        while (!ring.tryPush(r)) {
            for (unsigned k = 0; k < cfg.ingestBatch && ring.tryPop(sink);
                 ++k)
                ++popped;
        }
    }
    for (auto &ring : rings) {
        while (ring->tryPop(sink))
            ++popped;
    }
    return secondsSince(t0);
}

Outcome
serveLayers(const Options &opt, const ServeConfig &cfg)
{
    Outcome out;
    ServeConfig audited = cfg;
    audited.experiment.audit = true;
    std::vector<double> untraced;
    std::vector<double> audit_s;
    std::vector<double> overhead;
    std::vector<double> stream_s;
    std::vector<double> ring_s;
    std::vector<double> violations;
    ServeResult ref;
    std::vector<StreamRequest> reqs;
    const auto start = SteadyClock::now();
    while (untraced.empty() || secondsSince(start) < opt.seconds) {
        const ServeRep plain = runServeOnce(cfg, out);
        untraced.push_back(plain.wallS);
        const ServeRep aud = runServeOnce(audited, out);
        // Paired with the untraced repetition just before it.
        audit_s.push_back(aud.wallS - plain.wallS);
        overhead.push_back(ratio(aud.wallS, plain.wallS));
        if (serveSignature(aud.result) != serveSignature(plain.result))
            fail(out, aud.result.requestsProduced,
                 "traced ServeResult differs from the untraced run");
        violations.push_back(
            static_cast<double>(aud.result.auditViolations));
        if (aud.result.auditViolations != 0)
            fail(out, aud.result.requestsProduced,
                 std::to_string(aud.result.auditViolations) +
                     " protocol auditor violations");
        ref = plain.result;

        stream_s.push_back(replayStreams(cfg, reqs));
        if (reqs.size() != ref.requestsProduced)
            fail(out, 0, "stream replay produced a different count");
        std::uint64_t popped = 0;
        ring_s.push_back(replayRings(cfg, reqs, popped));
        if (popped != reqs.size())
            fail(out, 0, "ring replay lost requests");
    }
    std::printf("workload %s seed %llu: %zu traced repetitions\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), untraced.size());

    const double wall = median(untraced);
    const double stream = median(stream_s);
    const double ring = median(ring_s);
    const double audit = std::max(0.0, median(audit_s));
    double max_shard = 0.0;
    for (const std::uint64_t v : ref.shardRetired)
        max_shard = std::max(max_shard, static_cast<double>(v));
    const double produced = static_cast<double>(ref.requestsProduced);

    Metrics &m = out.metrics = zeroLayers();
    set(m, "verify.audit_s", audit);
    set(m, "verify.violations", median(violations));
    set(m, "sim.coverage", ratio(stream + ring, wall));
    set(m, "sim.trace_overhead", median(overhead));
    set(m, "serve.stream_s", stream);
    set(m, "serve.ring_s", ring);
    set(m, "serve.shard_s", wall - stream - ring);
    set(m, "serve.cycles_per_req",
        ratio(static_cast<double>(ref.totalShardCycles),
              static_cast<double>(ref.requestsRetired)));
    set(m, "serve.backpressure_per_req",
        ratio(static_cast<double>(ref.backpressureYields), produced));
    set(m, "serve.shard_imbalance",
        ratio(max_shard, static_cast<double>(ref.requestsRetired) /
                             static_cast<double>(cfg.shards)));
    set(m, "serve.shed_ratio",
        ratio(static_cast<double>(ref.shedTotal()), produced));
    return out;
}

// ------------------------------------------------------------------
// Command line and output
// ------------------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "nuat_perfbench: %s\n"
                 "usage: nuat_perfbench --workload sim_mix4_ddr5_darp|"
                 "sim_swapt_ddr3|serve_det_2x2 [--seed N] [--seconds S]"
                 " [--trace 0|1] [--spans-out PATH]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = val == "1";
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
        } else if (arg == "--spans-out") {
            opt.spansOut = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == val.c_str()))
            usage(("bad number for " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

void
printResult(const Outcome &out)
{
    bool finite = true;
    std::string metrics;
    for (const auto &[name, m] : out.metrics) {
        finite = finite && std::isfinite(m.value);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics += (metrics.empty() ? "" : ", ") + ("\"" + name) +
                   "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    const bool correct = out.ok && out.failed == 0 && finite;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Outcome out;
    ExperimentConfig sim;
    if (simConfig(opt, sim)) {
        out = opt.trace ? simLayers(opt, sim) : simEndToEnd(opt, sim);
    } else if (opt.workload == "serve_det_2x2") {
        const ServeConfig cfg = serveConfig(opt);
        out = opt.trace ? serveLayers(opt, cfg) : serveEndToEnd(opt, cfg);
    } else {
        usage(("unknown workload " + opt.workload).c_str());
    }
    std::fflush(stdout);
    printResult(out);
    return 0;
}
