// mqsp_perfbench: the repository benchmark client. It drives the public
// mqsp API (and, for serve_closed_loop, an in-process VerificationService)
// through one of three closed-loop workloads for a fixed wall-clock window,
// checks every output, and prints one JSON object with its raw samples
// (request latencies, set-up time, counts) and per-layer metrics. run.py
// builds this program, runs it in several processes and pools their samples
// into the benchmark's metrics; README.md documents workloads and metrics.
//
//   mqsp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// Layers are timed from the outside: every span wraps one call into one
// library module, so a span never has a child except below the per-request
// root span. Spans stay in memory and are written to --trace-out (JSON
// lines) after the window closes.

#include "mqsp/approx/approximation.hpp"
#include "mqsp/circuit/qasm.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/serve/service.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace mqsp;

// ---------------------------------------------------------------------------
// Clocks

std::int64_t wallNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t processCpuNs() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peakRssMb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

// ---------------------------------------------------------------------------
// Tracing: one Tracer per client, so recording takes no lock.

constexpr std::uint32_t kNoSpan = std::numeric_limits<std::uint32_t>::max();

struct SpanRecord {
    const char* name = "";
    std::uint32_t parent = kNoSpan;
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t cpuNs = -1; ///< process CPU time inside the span (sim, synth)
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    std::uint32_t open(const char* name, std::uint64_t request, bool withCpu) {
        if (!enabled_) {
            return kNoSpan;
        }
        SpanRecord span;
        span.name = name;
        span.parent = stack_.empty() ? kNoSpan : stack_.back();
        span.request = request;
        span.cpuNs = withCpu ? processCpuNs() : -1;
        span.startNs = wallNs();
        spans_.push_back(span);
        const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
        stack_.push_back(index);
        return index;
    }

    void close(std::uint32_t index) {
        if (index == kNoSpan || stack_.empty() || stack_.back() != index) {
            return;
        }
        SpanRecord& span = spans_[index];
        span.endNs = wallNs();
        if (span.cpuNs >= 0) {
            span.cpuNs = processCpuNs() - span.cpuNs;
        }
        stack_.pop_back();
    }

    /// The recorded spans, moved out (the tracer is left empty).
    [[nodiscard]] std::vector<SpanRecord> take() noexcept { return std::move(spans_); }

private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<std::uint32_t> stack_;
};

/// RAII span around one call into a layer.
class Span {
public:
    Span(Tracer& tracer, const char* name, std::uint64_t request, bool withCpu = false)
        : tracer_(tracer), index_(tracer.open(name, request, withCpu)) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { tracer_.close(index_); }

private:
    Tracer& tracer_;
    std::uint32_t index_;
};

// ---------------------------------------------------------------------------
// Small statistics helpers

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least p of the samples at
    // or below it.
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
    return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Seeded generator for the benchmark's inputs; the library never sees the
/// seed, only what is generated from it.
class InputRng {
public:
    InputRng(std::uint64_t seed, std::uint64_t stream)
        : engine_(seed * 0x9E3779B97F4A7C15ULL + stream) {}

    double uniform(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }
    std::uint64_t below(std::uint64_t bound) {
        return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
    }

private:
    std::mt19937_64 engine_;
};

std::string dimsText(const Dimensions& dims) {
    std::string text;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        text += (i == 0 ? "" : ",") + std::to_string(dims[i]);
    }
    return text;
}

/// Dense random state with Re/Im uniform on [-1, 1), scaled per basis state
/// by `decay` raised to the sum of the digits of the `decayQudits` most
/// significant qudits, then normalized.
StateVector seededState(const Dimensions& dims, InputRng& rng, double decay,
                        std::size_t decayQudits) {
    std::uint64_t total = 1;
    for (const Dimension d : dims) {
        total *= d;
    }
    std::uint64_t lowerBlock = total;
    std::vector<std::uint64_t> strides;
    for (std::size_t q = 0; q < decayQudits; ++q) {
        lowerBlock /= dims[q];
        strides.push_back(lowerBlock);
    }
    std::vector<Complex> amplitudes(total);
    double norm = 0.0;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t digitSum = 0;
        for (std::size_t q = 0; q < decayQudits; ++q) {
            digitSum += (i / strides[q]) % dims[q];
        }
        const double scale = std::pow(decay, static_cast<double>(digitSum));
        amplitudes[i] = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * scale;
        norm += std::norm(amplitudes[i]);
    }
    const double inverse = 1.0 / std::sqrt(norm);
    for (Complex& a : amplitudes) {
        a *= inverse;
    }
    return StateVector(dims, std::move(amplitudes));
}

// ---------------------------------------------------------------------------
// Per-run bookkeeping

constexpr double kExactBound = 1.0 - 1e-9;
/// Slack below an approximation threshold that still counts as meeting it:
/// the same 1e-9 the exact bound allows for rounding.
constexpr double kThresholdSlack = 1e-9;

/// Synthesis as mqsp_prep and the serve PREP verb run it by default:
/// identity rotations are left out (the paper's exact operation count is
/// the opt-in --faithful mode).
SynthesisOptions synthesisOptions() {
    SynthesisOptions options;
    options.emitIdentityOperations = false;
    return options;
}

/// Deterministic counts of one pass over a workload's seeded request list.
struct PassCounts {
    std::uint64_t circuitOps = 0;   ///< operations of the delivered circuits
    std::uint64_t synthOps = 0;     ///< operations synthesize() emitted
    std::uint64_t ddNodes = 0;      ///< internal nodes of the synthesized-from diagrams
    std::uint64_t gates = 0;        ///< gates replayed by verification
    std::uint64_t removedNodes = 0; ///< approx: pruned internal nodes + leaf edges
    std::uint64_t mergedNodes = 0;  ///< approx: nodes merged by reduction
    std::uint64_t opsRemoved = 0;   ///< optimizer
    std::uint64_t twoqCost = 0;     ///< transpile estimate
    std::uint64_t qasmBytes = 0;    ///< emitted QASM text

    friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

struct RunState {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencyMs;
    double fidelityMin = std::numeric_limits<double>::infinity();
    std::vector<std::string> errors; ///< first few failure messages
    std::vector<std::string> runErrors; ///< run-level check failures

    void fail(const std::string& message) {
        ++failed;
        if (errors.size() < 8) {
            errors.push_back(message);
        }
    }
};

/// Tracks per-pass counts and checks that every complete pass repeats the
/// first one exactly.
class PassTracker {
public:
    PassCounts current;

    void endPass() {
        if (!first_) {
            first_ = current;
        } else if (!(current == *first_) && mismatch_.empty()) {
            mismatch_ = "pass " + std::to_string(passes_ + 1) +
                        " counts differ from the first pass (circuit_ops " +
                        std::to_string(current.circuitOps) + " vs " +
                        std::to_string(first_->circuitOps) + ", dd.nodes " +
                        std::to_string(current.ddNodes) + " vs " +
                        std::to_string(first_->ddNodes) + ")";
        }
        ++passes_;
        current = PassCounts{};
    }

    [[nodiscard]] std::size_t passes() const noexcept { return passes_; }
    /// Counts of the first complete pass (all zero before one completed).
    [[nodiscard]] PassCounts first() const { return first_.value_or(PassCounts{}); }
    [[nodiscard]] const std::string& mismatch() const noexcept { return mismatch_; }

private:
    std::optional<PassCounts> first_;
    std::size_t passes_ = 0;
    std::string mismatch_;
};

/// Per-request state shared by the single-client loop and a workload.
struct RequestContext {
    Tracer& tracer;
    PassCounts& counts;
    std::uint64_t id = 0;
    std::uint32_t rootSpan = kNoSpan;
    std::int64_t doneNs = 0;

    /// The verified fidelity is out: stop the request clock. Bookkeeping
    /// after this point is not part of the request.
    void done() {
        doneNs = wallNs();
        tracer.close(rootSpan);
        rootSpan = kNoSpan;
    }
};

/// Calls `call` inside a span named `name` and returns its result.
template <typename Call>
auto traced(RequestContext& ctx, const char* name, Call&& call, bool withCpu = false) {
    const Span span(ctx.tracer, name, ctx.id, withCpu);
    return call();
}

struct Verdict {
    double fidelity = 0.0;
    double bound = 1.0;
};

class SingleClientWorkload {
public:
    virtual ~SingleClientWorkload() = default;
    [[nodiscard]] virtual std::size_t passSize() const = 0;
    /// Run request `index` of the pass; throws on a library error.
    virtual Verdict run(std::size_t index, RequestContext& ctx) = 0;
    /// Between passes (outside every request): release session memory.
    virtual void endPass() {}
    [[nodiscard]] virtual std::shared_ptr<dd::DdSession> session() const { return nullptr; }
};

// ---------------------------------------------------------------------------
// table1_random_dense

/// The paper's Table 1 registers (most significant qudit first).
const std::vector<Dimensions>& table1Registers() {
    static const std::vector<Dimensions> registers{
        {3, 6, 2}, {9, 5, 6, 3}, {6, 6, 5, 3, 3}, {5, 4, 2, 5, 5, 2}, {4, 7, 4, 4, 3, 5}};
    return registers;
}

/// Exact synthesis of uniformly random dense states — no sub-tree is shared,
/// so this is the paper's worst case for the DD method — then the whole
/// circuit pipeline: optimized, costed for two-qudit lowering, emitted as
/// QASM and parsed back, and the parsed circuit verified on the dense
/// backend, which is what `auto` picks at these sizes. Dense verification
/// does most of the work, so this is the workload every circuit-level layer
/// runs on.
class Table1RandomDense final : public SingleClientWorkload {
public:
    /// 20 requests a pass in five groups of four equal-size registers, so
    /// p50 and p90 (ranks 10 and 18 of a pass) fall inside one group.
    static constexpr std::size_t kStatesPerRegister = 4;

    explicit Table1RandomDense(std::uint64_t seed) {
        InputRng rng(seed, 1);
        for (std::size_t s = 0; s < kStatesPerRegister; ++s) {
            for (const Dimensions& dims : table1Registers()) {
                targets_.emplace_back(seededState(dims, rng, 1.0, 0));
            }
        }
    }

    [[nodiscard]] std::size_t passSize() const override { return targets_.size(); }

    Verdict run(std::size_t index, RequestContext& ctx) override {
        const EvalState& target = targets_[index];
        const DecisionDiagram diagram = traced(
            ctx, "dd.construct", [&] { return DecisionDiagram::fromStateVector(target.dense()); });
        Circuit circuit =
            traced(ctx, "synth", [&] { return synthesize(diagram, synthesisOptions()); }, true);
        const std::size_t synthOps = circuit.numOperations();
        // The full-operator equivalence probe (mdd layer) runs only on the
        // smallest register, [3,6,2]. On wide registers MatrixDD equivalence
        // does not finish: for the 125-operation GHZ circuit of
        // [9,5,6,3,7,4,8,5,3,6,2,9] it was still inside MatrixDD::addEdges
        // after ten minutes, and GHZ, W, Dicke, cyclic and uniform states on
        // 12-27-qudit registers all run past five seconds. From 10 qubits on
        // its cost grows about threefold per added qubit; on [9,5,6] it
        // already takes 1-13 ms.
        const bool probe = target.dimensions().size() == 3;
        // Only the probe needs the unoptimized circuit kept.
        const std::optional<Circuit> synthesized =
            probe ? std::optional<Circuit>(circuit) : std::nullopt;
        const OptimizerReport optReport =
            traced(ctx, "opt", [&] { return optimizeCircuit(circuit); });
        const std::size_t twoq =
            traced(ctx, "transpile", [&] { return estimateTwoQuditCost(circuit); });
        const std::string qasm = traced(ctx, "circuit.emit", [&] { return toQasm(circuit); });
        const Circuit parsed =
            traced(ctx, "circuit.parse", [&] { return parseQasmString(qasm); });
        const VerifyReport report = traced(
            ctx, "sim", [&] { return backend_.verify(VerifyRequest{&parsed, &target}); }, true);
        const bool equivalent = !synthesized || traced(ctx, "mdd.equiv", [&] {
            return equivalence_.circuitsEquivalent(*synthesized, circuit);
        });
        ctx.done();
        if (report.failed) {
            throw std::runtime_error("verify: " + report.error);
        }
        if (parsed.numOperations() != circuit.numOperations()) {
            throw std::runtime_error("QASM round trip changed the operation count");
        }
        if (!equivalent) {
            throw std::runtime_error("optimized circuit is not equivalent to the synthesized one");
        }
        ctx.counts.circuitOps += circuit.numOperations();
        ctx.counts.synthOps += synthOps;
        ctx.counts.ddNodes += diagram.nodeCount(NodeCountMode::Internal);
        ctx.counts.gates += report.ops;
        ctx.counts.opsRemoved += optReport.opsBefore - optReport.opsAfter;
        ctx.counts.twoqCost += twoq;
        ctx.counts.qasmBytes += qasm.size();
        return {report.fidelity, kExactBound};
    }

private:
    std::vector<EvalState> targets_;
    DenseBackend backend_;
    DdBackend equivalence_; ///< the mdd layer: equivalence on matrix DDs
};

// ---------------------------------------------------------------------------
// skewed_approx_dd

/// Random states whose amplitudes decay geometrically with the digits of
/// the two leading qudits, approximated at three thresholds and verified on
/// the DD backend against the exact tree: the paper's accuracy/size
/// trade-off. Pruning mutates private trees while the replays intern into
/// the backend's session.
class SkewedApproxDd final : public SingleClientWorkload {
public:
    /// 45 requests a pass, so p50 and p90 (ranks 22.5 and 40.5 of a pass)
    /// fall in the middle of one request's samples.
    static constexpr std::size_t kStatesPerCell = 5;
    /// Amplitude scale per unit of leading-digit sum. Fixed, so that the
    /// seed changes the amplitudes but not how much pruning they allow.
    static constexpr double kDecay = 0.5;

    explicit SkewedApproxDd(std::uint64_t seed) {
        const std::vector<Dimensions> registers{{9, 5, 6, 3}, {6, 6, 5, 3, 3}, {5, 4, 2, 5, 5, 2}};
        const std::vector<double> thresholds{0.98, 0.95, 0.90};
        InputRng rng(seed, 2);
        for (std::size_t s = 0; s < kStatesPerCell; ++s) {
            for (const Dimensions& dims : registers) {
                for (const double threshold : thresholds) {
                    items_.push_back({EvalState(seededState(dims, rng, kDecay, 2)), threshold});
                }
            }
        }
    }

    [[nodiscard]] std::size_t passSize() const override { return items_.size(); }

    Verdict run(std::size_t index, RequestContext& ctx) override {
        const Item& item = items_[index];
        DecisionDiagram exact = traced(
            ctx, "dd.construct", [&] { return DecisionDiagram::fromStateVector(item.state.dense()); });
        DecisionDiagram pruned;
        const ApproximationReport approx = traced(ctx, "approx", [&] {
            // The copy is part of the layer's cost: approximate() prunes in
            // place and the exact tree stays the verification target.
            pruned = exact;
            ApproximationOptions options;
            options.fidelityThreshold = item.threshold;
            return approximate(pruned, options);
        });
        const Circuit circuit =
            traced(ctx, "synth", [&] { return synthesize(pruned, synthesisOptions()); }, true);
        const EvalState target(std::move(exact));
        const VerifyReport report = traced(
            ctx, "sim", [&] { return backend_.verify(VerifyRequest{&circuit, &target}); }, true);
        ctx.done();
        if (report.failed) {
            throw std::runtime_error("verify: " + report.error);
        }
        ctx.counts.circuitOps += circuit.numOperations();
        ctx.counts.synthOps += circuit.numOperations();
        ctx.counts.ddNodes += pruned.nodeCount(NodeCountMode::Internal);
        ctx.counts.gates += report.ops;
        ctx.counts.removedNodes += approx.removedInternalNodes + approx.removedLeafEdges;
        ctx.counts.mergedNodes += approx.mergedNodes;
        return {report.fidelity, item.threshold - kThresholdSlack};
    }

    void endPass() override { backend_.ddSession()->garbageCollect({}); }

    [[nodiscard]] std::shared_ptr<dd::DdSession> session() const override {
        return backend_.ddSession();
    }

private:
    struct Item {
        EvalState state;
        double threshold;
    };
    std::vector<Item> items_;
    DdBackend backend_;
};

// ---------------------------------------------------------------------------
// Result assembly

struct Report {
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    unsigned threads = 0;
    double setupS = 0.0;
    double windowS = 0.0;
    std::uint64_t passRequests = 0;
    RunState run;
    PassCounts counts;
    std::map<std::string, double> layers;
    std::vector<std::vector<SpanRecord>> traces;
};

/// Per-layer metrics derived from the spans: per-call medians for the
/// named calls, and per-request total/self time for every layer.
void addSpanMetrics(const std::vector<std::vector<SpanRecord>>& traces,
                    std::uint64_t requests, std::map<std::string, double>& out) {
    static const std::vector<std::string> kLayers{"dd",   "approx", "synth", "opt", "transpile",
                                                  "circuit", "sim", "mdd",   "serve"};
    std::map<std::string, std::vector<double>> callMs;
    std::map<std::string, std::vector<double>> callCpuMs;
    std::map<std::string, double> totalMs;
    std::map<std::string, double> selfMs;
    for (const std::vector<SpanRecord>& spans : traces) {
        std::vector<double> childMs(spans.size(), 0.0);
        for (const SpanRecord& span : spans) {
            if (span.parent != kNoSpan) {
                childMs[span.parent] += static_cast<double>(span.endNs - span.startNs) / 1e6;
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord& span = spans[i];
            const std::string name = span.name;
            const double ms = static_cast<double>(span.endNs - span.startNs) / 1e6;
            callMs[name].push_back(ms);
            if (span.cpuNs >= 0) {
                callCpuMs[name].push_back(static_cast<double>(span.cpuNs) / 1e6);
            }
            const std::string layer = name.substr(0, name.find('.'));
            totalMs[layer] += ms;
            selfMs[layer] += ms - childMs[i];
        }
    }
    const double perRequest = requests == 0 ? 0.0 : 1.0 / static_cast<double>(requests);
    for (const std::string& layer : kLayers) {
        out[layer + ".total_ms"] = totalMs[layer] * perRequest;
        out[layer + ".self_ms"] = selfMs[layer] * perRequest;
    }
    out["bench.self_ms"] = selfMs["request"] * perRequest;
    out["sim.replay_ms"] = median(callMs["sim"]);
    out["sim.cpu_ms"] = median(callCpuMs["sim"]);
    out["synth.ms"] = median(callMs["synth"]);
    out["synth.cpu_ms"] = median(callCpuMs["synth"]);
    out["approx.ms"] = median(callMs["approx"]);
    out["dd.construct_ms"] = median(callMs["dd.construct"]);
    out["circuit.emit_ms"] = median(callMs["circuit.emit"]);
    out["circuit.parse_ms"] = median(callMs["circuit.parse"]);
    out["opt.ms"] = median(callMs["opt"]);
    out["transpile.ms"] = median(callMs["transpile"]);
    out["mdd.equiv_ms"] = median(callMs["mdd.equiv"]);
    for (const char* verb : {"prep", "verify", "batch", "stream", "append", "reverify", "gc"}) {
        const std::vector<double>& ms = callMs[std::string("serve.") + verb];
        out[std::string("serve.") + verb + "_p50_ms"] = percentile(ms, 0.5);
        out[std::string("serve.") + verb + "_p90_ms"] = percentile(ms, 0.9);
    }
}

void addCountMetrics(const PassCounts& counts, std::map<std::string, double>& out) {
    out["synth.ops"] = static_cast<double>(counts.synthOps);
    out["sim.gates"] = static_cast<double>(counts.gates);
    out["dd.nodes"] = static_cast<double>(counts.ddNodes);
    out["approx.removed_nodes"] = static_cast<double>(counts.removedNodes);
    out["approx.merged_nodes"] = static_cast<double>(counts.mergedNodes);
    out["opt.ops_removed"] = static_cast<double>(counts.opsRemoved);
    out["transpile.twoq_cost"] = static_cast<double>(counts.twoqCost);
    out["circuit.bytes"] = static_cast<double>(counts.qasmBytes);
}

/// Session table/cache traffic between two snapshots, scaled to one pass.
void addSessionMetrics(const dd::DdSessionStats& before, const dd::DdSessionStats& after,
                       double passesInWindow, std::uint64_t peakNodes,
                       std::map<std::string, double>& out) {
    const double uniqueLookups = static_cast<double>(after.unique.lookups - before.unique.lookups);
    const double uniqueHits = static_cast<double>(after.unique.hits - before.unique.hits);
    const double cacheLookups = static_cast<double>(after.cache.lookups - before.cache.lookups);
    const double cacheHits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double scale = passesInWindow > 0.0 ? 1.0 / passesInWindow : 0.0;
    out["dd.unique_lookups"] = uniqueLookups * scale;
    out["dd.unique_hit_rate"] = uniqueLookups > 0.0 ? uniqueHits / uniqueLookups : 0.0;
    out["dd.cache_lookups"] = cacheLookups * scale;
    out["dd.cache_hit_rate"] = cacheLookups > 0.0 ? cacheHits / cacheLookups : 0.0;
    out["dd.pool_nodes_peak"] = static_cast<double>(peakNodes);
}

// ---------------------------------------------------------------------------
// Single-client closed loop

void runSingleClient(SingleClientWorkload& workload, double seconds, bool trace, Report& report) {
    Tracer tracer(trace);
    PassTracker passes;
    RunState& run = report.run;
    const auto session = workload.session();
    const dd::DdSessionStats statsBefore = session ? session->stats() : dd::DdSessionStats{};
    std::uint64_t peakNodes = statsBefore.poolNodes;

    const std::int64_t start = wallNs();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t index = 0;
    // The window closes at the deadline, but never before one whole pass:
    // circuit_ops and dd.nodes are per-pass counts.
    while (passes.passes() == 0 || wallNs() < deadline) {
        const std::uint64_t id = run.attempted++;
        RequestContext ctx{tracer, passes.current, id};
        const std::int64_t begin = wallNs();
        ctx.rootSpan = tracer.open("request", id, false);
        try {
            const Verdict verdict = workload.run(index, ctx);
            run.fidelityMin = std::min(run.fidelityMin, verdict.fidelity);
            if (verdict.fidelity < verdict.bound) {
                run.fail("request " + std::to_string(index) + ": fidelity " +
                         std::to_string(verdict.fidelity) + " below bound " +
                         std::to_string(verdict.bound));
            }
        } catch (const std::exception& error) {
            if (ctx.doneNs == 0) {
                ctx.done();
            }
            run.fail("request " + std::to_string(index) + ": " + error.what());
        }
        run.latencyMs.push_back(static_cast<double>(ctx.doneNs - begin) / 1e6);
        if (trace && session) {
            peakNodes = std::max<std::uint64_t>(peakNodes, session->stats().poolNodes);
        }
        if (++index == workload.passSize()) {
            index = 0;
            workload.endPass();
            passes.endPass();
        }
    }
    report.windowS = static_cast<double>(wallNs() - start) / 1e9;
    report.traces.push_back(tracer.take());
    report.passRequests = workload.passSize();
    report.counts = passes.first();
    if (!passes.mismatch().empty()) {
        run.runErrors.push_back(passes.mismatch());
    }
    if (trace) {
        addSpanMetrics(report.traces, run.attempted, report.layers);
        const dd::DdSessionStats statsAfter = session ? session->stats() : dd::DdSessionStats{};
        addSessionMetrics(statsBefore, statsAfter,
                          static_cast<double>(run.attempted) /
                              static_cast<double>(workload.passSize()),
                          peakNodes, report.layers);
        report.layers["serve.errors"] = 0.0; // no serve traffic
    }
}

// ---------------------------------------------------------------------------
// serve_closed_loop

/// One client drives one in-process VerificationService in a closed loop,
/// replaying a seeded script of cycles; one cycle is PREP, VERIFY x2,
/// STREAM + APPEND x6 + REVERIFY, BATCH, and DROP of both ids, with STATS?
/// and GC interleaved periodically. It is the only workload that reaches
/// the serve layer (reader-writer dispatch, registry, GC). A second client
/// would make every writer verb wait on the other client's readers, and
/// the latencies would measure lock hand-off on a shared host (README.md).
class ServeClosedLoop {
public:
    static constexpr std::size_t kCycles = 8;

    explicit ServeClosedLoop(std::uint64_t seed) : script_(buildScript(seed)) {
        // Warm-up: prepare, verify and collect one random and one wide
        // structured target, so lazy set-up (first allocations) is not
        // charged to the first requests.
        InputRng rng(seed, 99);
        const std::vector<std::string> warmUp{
            "PREP:RANDOM --dims 9,5,6,3 --seed " + std::to_string(rng.below(1'000'000'000) + 1),
            "VERIFY --id 1", "PREP:W --dims " + kWide[0], "VERIFY --id 2", "BATCH",
            "DROP --id 1", "DROP --id 2", "GC"};
        for (const std::string& line : warmUp) {
            const serve::Response response = service_.handleLine(line);
            if (response.line.rfind("OK ", 0) != 0) {
                throw std::runtime_error("warm-up '" + line + "': " + response.line);
            }
        }
    }

    void run(double seconds, bool trace, Report& report) {
        const dd::DdSessionStats statsBefore = service_.session()->stats();
        ClientResult result{report.run, {}, 0, 0};
        Tracer tracer(trace);
        const std::int64_t start = wallNs();
        try {
            runClient(start + static_cast<std::int64_t>(seconds * 1e9), tracer, result);
        } catch (const std::exception& error) {
            report.run.runErrors.push_back(std::string("client: ") + error.what());
        }
        report.windowS = static_cast<double>(wallNs() - start) / 1e9;
        report.counts.circuitOps = result.passes.first().circuitOps;
        report.passRequests = script_.size();
        if (!result.passes.mismatch().empty()) {
            report.run.runErrors.push_back(result.passes.mismatch());
        }
        report.traces.push_back(tracer.take());
        if (trace) {
            addSpanMetrics(report.traces, report.run.attempted, report.layers);
            addSessionMetrics(statsBefore, service_.session()->stats(),
                              static_cast<double>(report.run.attempted) /
                                  static_cast<double>(report.passRequests),
                              std::max(statsBefore.poolNodes, result.peakNodes), report.layers);
            report.layers["serve.errors"] = static_cast<double>(result.errReplies);
        }
    }

private:
    enum class Ref { None, Prep, Stream };

    /// One scripted line: prefix [--id <ref>] suffix, plus how to check the
    /// reply. `bound` applies to the reply's fidelity field, when it has one.
    struct Command {
        serve::Verb verb;
        std::string prefix;
        Ref ref;
        std::string suffix;
        double bound;
    };

    /// Span name of a verb, "serve.<verb metric key>".
    static const char* spanName(serve::Verb verb) {
        static const std::vector<std::string> names = [] {
            std::vector<std::string> all;
            for (std::size_t v = 0; v < serve::kVerbCount; ++v) {
                all.push_back(std::string("serve.") +
                              serve::verbMetricKey(static_cast<serve::Verb>(v)));
            }
            return all;
        }();
        return names[static_cast<std::size_t>(verb)].c_str();
    }

    struct ClientResult {
        RunState& run;
        PassTracker passes;
        std::uint64_t peakNodes = 0;
        std::uint64_t errReplies = 0;
    };

    /// Wide registers for the structured families: 12 qudits (9.8e7
    /// amplitudes), 15 qutrits (1.4e7) and 27 qubits (1.3e8), all under the
    /// service's 2^28-amplitude admission limit.
    inline static const std::vector<std::string> kWide{
        "9,5,6,3,7,4,8,5,3,6,2,3", "3,3,3,3,3,3,3,3,3,3,3,3,3,3,3",
        "2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"};

    /// Lowest fidelity a BATCH may report: every resident target is either
    /// exact or approximated at one of these thresholds.
    static constexpr double kLowestThreshold = 0.95;

    /// 115 commands a pass: p50 and p90 are ranks 57.5 and 103.5 of a pass,
    /// so each falls in the middle of one command's samples, not on the edge
    /// between two commands of very different cost.
    static std::vector<Command> buildScript(std::uint64_t seed) {
        InputRng rng(seed, 100);
        const std::vector<Dimensions>& tables = table1Registers();
        const Dimensions streamDims{3, 6, 2};
        std::vector<Command> script;
        std::size_t randomIndex = 0;
        for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
            Command prep{serve::Verb::Prep, "", Ref::None, "", kExactBound};
            const std::string& wideDims = kWide[cycle % kWide.size()];
            const auto randomPrep = [&](const char* approx, double threshold) {
                // The three middle Table 1 registers. A random target's DD
                // replay takes 4-20 ms on them, so the four random cycles
                // and GC make the top 17 commands of a pass and p90 (the
                // 12th from the top) falls inside that group. [3,6,2]
                // replays in 0.2 ms and would put p90 next to the step
                // down to sub-ms commands; the 6720-amplitude register
                // makes a single replay dominate the whole mix.
                const Dimensions& dims = tables[1 + randomIndex++ % 3];
                prep.prefix = "PREP:RANDOM --dims " + dimsText(dims) +
                              " --seed " + std::to_string(rng.below(1'000'000'000) + 1);
                if (approx != nullptr) {
                    prep.prefix += std::string(" --approx ") + approx;
                    prep.bound = threshold - kThresholdSlack;
                }
            };
            switch (cycle) {
            case 0:
            case 5:
                randomPrep(nullptr, 1.0);
                break;
            case 1:
                randomPrep("0.95", 0.95);
                break;
            case 3:
                randomPrep("0.98", 0.98);
                break;
            case 2:
                prep.prefix = "PREP:GHZ --dims " + wideDims;
                break;
            case 4:
                prep.prefix = "PREP:W --dims " + wideDims;
                break;
            case 6:
                prep.prefix = "PREP:DICKE --dims " + wideDims;
                break;
            default:
                prep.prefix = "PREP:CYCLIC --dims " + wideDims;
                break;
            }
            script.push_back(prep);
            const double bound = prep.bound;
            using serve::Verb;
            script.push_back({Verb::Verify, "VERIFY", Ref::Prep, "", bound});
            script.push_back({Verb::Verify, "VERIFY", Ref::Prep, "", bound});
            script.push_back({Verb::Stream, "STREAM --dims " + dimsText(streamDims), Ref::None, "",
                              kExactBound});
            for (int g = 0; g < 6; ++g) {
                script.push_back({Verb::Append, "APPEND", Ref::Stream,
                                  " --gate " + randomGate(streamDims, rng), kExactBound});
            }
            script.push_back({Verb::Reverify, "REVERIFY", Ref::Stream, "", kExactBound});
            script.push_back(
                {Verb::Batch, "BATCH", Ref::None, "", kLowestThreshold - kThresholdSlack});
            if (cycle % 4 == 0) {
                script.push_back({Verb::Stats, "STATS?", Ref::None, "", kExactBound});
            }
            script.push_back({Verb::Drop, "DROP", Ref::Stream, "", kExactBound});
            script.push_back({Verb::Drop, "DROP", Ref::Prep, "", kExactBound});
            if (cycle == kCycles - 1) {
                script.push_back({Verb::Gc, "GC", Ref::None, "", kExactBound});
            }
        }
        return script;
    }

    /// A seeded controlled two-level rotation on the stream register; the
    /// control sits on a more significant site than the target, which both
    /// backends accept. One gate kind, so the APPEND latencies form one
    /// group: p50 falls among them, and a mix of kinds that differ
    /// several-fold in cost would let it slide from one kind to another.
    static std::string randomGate(const Dimensions& dims, InputRng& rng) {
        const std::size_t target = 1 + rng.below(dims.size() - 1);
        const Dimension d = dims[target];
        const auto a = rng.below(d - 1);
        const auto b = a + 1 + rng.below(d - 1 - a);
        char angles[64];
        std::snprintf(angles, sizeof angles, "%.6f, %.6f", rng.uniform(-3.0, 3.0),
                      rng.uniform(-3.0, 3.0));
        return "rxy q[" + std::to_string(target) + "] (" + std::to_string(a) + ", " +
               std::to_string(b) + ", " + angles + ") ctl q[0]=" +
               std::to_string(rng.below(dims[0])) + ";";
    }

    static std::optional<double> field(const std::string& reply, const std::string& key) {
        const std::string needle = " " + key + "=";
        const auto pos = reply.find(needle);
        if (pos == std::string::npos) {
            return std::nullopt;
        }
        return std::stod(reply.substr(pos + needle.size()));
    }

    void runClient(std::int64_t deadline, Tracer& tracer, ClientResult& result) {
        const std::vector<Command>& script = script_;
        RunState& run = result.run;
        std::string prepId;
        std::string streamId;
        std::size_t index = 0;
        // Stop at the deadline, but only at a cycle boundary (no ids left
        // resident) and never before one whole pass of the script.
        while (result.passes.passes() == 0 || wallNs() < deadline ||
               script[index].verb != serve::Verb::Prep) {
            const Command& command = script[index];
            std::string line = command.prefix;
            if (command.ref != Ref::None) {
                line += " --id " + (command.ref == Ref::Prep ? prepId : streamId);
            }
            line += command.suffix;

            const std::uint64_t id = run.attempted++;
            const std::int64_t begin = wallNs();
            serve::Response response;
            {
                Span span(tracer, spanName(command.verb), id);
                response = service_.handleLine(line);
            }
            run.latencyMs.push_back(static_cast<double>(wallNs() - begin) / 1e6);
            check(command, line, response.line, result, prepId, streamId);
            if (++index == script.size()) {
                index = 0;
                result.passes.endPass();
            }
        }
    }

    static void check(const Command& command, const std::string& line, const std::string& reply,
                      ClientResult& result, std::string& prepId, std::string& streamId) {
        RunState& run = result.run;
        if (reply.rfind("OK ", 0) != 0) {
            ++result.errReplies;
            run.fail("'" + line + "' -> " + reply);
            return;
        }
        if (const auto nodes = field(reply, "dd_nodes")) {
            result.peakNodes = std::max(result.peakNodes, static_cast<std::uint64_t>(*nodes));
        }
        const bool prep = command.verb == serve::Verb::Prep;
        if (prep || command.verb == serve::Verb::Stream) {
            const auto id = field(reply, "id");
            if (!id) {
                run.fail("'" + line + "' -> reply without id: " + reply);
                return;
            }
            (prep ? prepId : streamId) = std::to_string(static_cast<std::uint64_t>(*id));
        }
        std::optional<double> fidelity = field(reply, "fidelity");
        if (prep) {
            result.passes.current.circuitOps +=
                static_cast<std::uint64_t>(field(reply, "ops").value_or(0));
            fidelity = field(reply, "approx_fidelity");
        } else if (command.verb == serve::Verb::Batch) {
            if (field(reply, "failures").value_or(1) != 0) {
                run.fail("'" + line + "' -> " + reply);
                return;
            }
            fidelity = field(reply, "min_fidelity");
        }
        if (fidelity) {
            run.fidelityMin = std::min(run.fidelityMin, *fidelity);
            if (*fidelity < command.bound) {
                run.fail("'" + line + "' -> fidelity below " + std::to_string(command.bound) + ": " +
                         reply);
                return;
            }
        }
    }

    serve::VerificationService service_;
    std::vector<Command> script_;
};

// ---------------------------------------------------------------------------
// main

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Options parseOptions(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + key);
        }
        const std::string value = argv[++i];
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::stoull(value);
        } else if (key == "--seconds") {
            options.seconds = std::stod(value);
        } else if (key == "--trace") {
            options.trace = value == "1";
        } else if (key == "--trace-out") {
            options.traceOut = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    return options;
}

/// The library's worker width for every workload. At the default width
/// (one worker per vCPU) every parallel region waits for all vCPUs of a
/// shared host to be scheduled, and the figures measure the host's
/// scheduler: see README.md, "Width".
constexpr unsigned kThreads = 1;

/// Builds the workload (inputs, backends or service, warm-up) and records
/// how long that took; setup_s is the median over the processes of a run.
template <typename Make> auto timedSetup(Report& report, Make make) {
    const std::int64_t begin = wallNs();
    auto workload = make();
    report.setupS = static_cast<double>(wallNs() - begin) / 1e9;
    return workload;
}

/// Warm-up of a single-client workload: its first `count` requests, outside
/// the window, then a fresh pass.
void warmUp(SingleClientWorkload& workload, std::size_t count) {
    Tracer off(false);
    PassCounts scratch;
    for (std::size_t i = 0; i < std::min(count, workload.passSize()); ++i) {
        RequestContext ctx{off, scratch, i};
        (void)workload.run(i, ctx);
    }
    workload.endPass();
}

std::string jsonString(const std::string& text) {
    std::string out = "\"";
    for (const char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string jsonNumber(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void writeTrace(const std::string& path, const Report& report) {
    std::ofstream out(path);
    for (std::size_t client = 0; client < report.traces.size(); ++client) {
        const auto& spans = report.traces[client];
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord& span = spans[i];
            out << "{\"client\":" << client << ",\"span\":" << i << ",\"name\":\"" << span.name
                << "\",\"parent\":"
                << (span.parent == kNoSpan ? std::string("null") : std::to_string(span.parent))
                << ",\"request\":" << span.request << ",\"start_ns\":" << span.startNs
                << ",\"end_ns\":" << span.endNs << "}\n";
        }
    }
}

std::string jsonArray(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i == 0 ? "" : ",") + jsonNumber(values[i]);
    }
    return out + "]";
}

/// Prints the raw samples of this process; run.py pools them over the
/// processes of one benchmark run into the end-to-end metrics.
void printReport(const Report& report) {
    const RunState& run = report.run;
    std::map<std::string, double> layers = report.layers;
    addCountMetrics(report.counts, layers);
    layers["threads"] = static_cast<double>(report.threads);

    std::string out = "{\"workload\":" + jsonString(report.workload) +
                      ",\"seed\":" + std::to_string(report.seed) +
                      ",\"trace\":" + (report.trace ? "true" : "false") +
                      ",\"threads\":" + std::to_string(report.threads) +
                      ",\"attempted\":" + std::to_string(run.attempted) +
                      ",\"failed\":" + std::to_string(run.failed) +
                      ",\"window_s\":" + jsonNumber(report.windowS) +
                      ",\"pass_requests\":" + std::to_string(report.passRequests) +
                      ",\"fidelity_min\":" + jsonNumber(run.fidelityMin) +
                      ",\"peak_rss_mb\":" + jsonNumber(peakRssMb()) +
                      ",\"counts\":{\"circuit_ops\":" + std::to_string(report.counts.circuitOps) +
                      ",\"dd_nodes\":" + std::to_string(report.counts.ddNodes) + "}" +
                      ",\"setup_s\":" + jsonNumber(report.setupS) +
                      ",\"latencies_ms\":" + jsonArray(run.latencyMs);
    out += ",\"errors\":[";
    std::vector<std::string> errors = run.runErrors;
    errors.insert(errors.end(), run.errors.begin(), run.errors.end());
    for (std::size_t i = 0; i < errors.size(); ++i) {
        out += (i == 0 ? "" : ",") + jsonString(errors[i]);
    }
    out += "],\"per_layer\":{";
    bool first = true;
    for (const auto& [name, value] : layers) {
        out += (first ? "" : ",") + jsonString(name) + ":" + jsonNumber(value);
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Options options = parseOptions(argc, argv);
        Report report;
        report.workload = options.workload;
        report.seed = options.seed;
        report.trace = options.trace;
        parallel::setGlobalThreads(kThreads);
        report.threads = parallel::globalThreads();

        if (options.workload == "serve_closed_loop") {
            auto workload = timedSetup(report, [&] {
                return std::make_unique<ServeClosedLoop>(options.seed);
            });
            workload->run(options.seconds, options.trace, report);
        } else {
            const auto make = [&]() -> std::unique_ptr<SingleClientWorkload> {
                std::unique_ptr<SingleClientWorkload> workload;
                if (options.workload == "table1_random_dense") {
                    workload = std::make_unique<Table1RandomDense>(options.seed);
                } else if (options.workload == "skewed_approx_dd") {
                    workload = std::make_unique<SkewedApproxDd>(options.seed);
                } else {
                    throw std::invalid_argument("unknown workload '" + options.workload + "'");
                }
                warmUp(*workload, 6);
                return workload;
            };
            auto workload = timedSetup(report, make);
            runSingleClient(*workload, options.seconds, options.trace, report);
        }
        if (!options.traceOut.empty()) {
            writeTrace(options.traceOut, report);
        }
        printReport(report);
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mqsp_perfbench: %s\n", error.what());
        return 2;
    }
}
