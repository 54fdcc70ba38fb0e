// Thread-count determinism: the parallel execution layer must not change
// results. parallelReduce-based norms and inner products are bit-identical
// at 1 and at N threads (ordered-chunk contract); full prepare + verify
// pipelines produce end states identical to 1e-12 (in fact bit-identical:
// each amplitude's arithmetic is independent of the partition) across
// ghz / w / random targets on mixed-radix registers.

#include "mqsp/circuit/qasm.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/density_simulator.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace mqsp {
namespace {

using ScopedThreads = parallel::ScopedThreadCount;

struct Target {
    std::string family;
    Dimensions dims;
};

std::vector<Target> targets() {
    return {
        {"ghz", {3, 4, 2, 5}},
        {"ghz", {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
        {"w", {3, 6, 2}},
        {"w", {2, 3, 2, 3, 2}},
        {"random", {9, 5, 6, 3}},
        {"random", {4, 4, 4, 4}},
    };
}

StateVector makeTarget(const Target& target) {
    if (target.family == "ghz") {
        return states::ghz(target.dims);
    }
    if (target.family == "w") {
        return states::wState(target.dims);
    }
    Rng rng(12345);
    return states::random(target.dims, rng);
}

TEST(ThreadDeterminism, NormsBitIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        double norm1 = 0.0;
        Complex inner1{0.0, 0.0};
        {
            const ScopedThreads scope(1);
            norm1 = state.normSquared();
            inner1 = state.innerProduct(state);
        }
        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            // Bit-identical, not merely close: EXPECT_EQ on the doubles.
            EXPECT_EQ(norm1, state.normSquared())
                << target.family << " norm at " << threads << " threads";
            const Complex innerN = state.innerProduct(state);
            EXPECT_EQ(inner1.real(), innerN.real())
                << target.family << " inner product at " << threads << " threads";
            EXPECT_EQ(inner1.imag(), innerN.imag());
        }
    }
}

TEST(ThreadDeterminism, PrepVerifyEndStatesIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);

        StateVector out1;
        double fidelity1 = 0.0;
        {
            const ScopedThreads scope(1);
            out1 = Simulator::runFromZero(prep.circuit);
            fidelity1 = state.fidelityWith(out1);
        }
        EXPECT_NEAR(fidelity1, 1.0, 1e-9);

        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            const StateVector outN = Simulator::runFromZero(prep.circuit);
            ASSERT_EQ(out1.size(), outN.size());
            for (std::uint64_t i = 0; i < out1.size(); ++i) {
                EXPECT_NEAR(out1[i].real(), outN[i].real(), 1e-12)
                    << target.family << " amplitude " << i << " at " << threads
                    << " threads";
                EXPECT_NEAR(out1[i].imag(), outN[i].imag(), 1e-12);
            }
            EXPECT_NEAR(state.fidelityWith(outN), fidelity1, 1e-12);
        }
    }
}

TEST(ThreadDeterminism, BackendVerificationIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);
        const EvalState evalTarget(state);

        double fidelity1 = 0.0;
        {
            const ScopedThreads scope(1);
            fidelity1 = DenseBackend().preparationFidelity(prep.circuit, evalTarget);
        }
        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            const double fidelityN =
                DenseBackend().preparationFidelity(prep.circuit, evalTarget);
            EXPECT_NEAR(fidelityN, fidelity1, 1e-12) << target.family;
        }
    }
}

// The density-matrix kernels (sim/density_simulator.cpp) run on the same
// ordered-chunk parallelFor/parallelReduce contract as the dense
// simulator: every (row, col) cell's arithmetic is independent of the
// partition, and the reductions sum fixed per-grain partials in index
// order. Fidelity, trace, and purity must therefore be bit-identical —
// EXPECT_EQ on the doubles — at every thread count.
TEST(ThreadDeterminism, DensityReplayBitIdenticalAcrossThreadCounts) {
    const std::vector<Target> noisyTargets = {
        {"ghz", {3, 4, 2}},
        {"w", {3, 6, 2}},
        {"random", {4, 4, 4}},
    };
    NoiseModel noise;
    noise.singleQuditError = 1e-4;
    noise.twoQuditError = 1e-3;
    for (const auto& target : noisyTargets) {
        const StateVector state = makeTarget(target);
        const auto prep = prepareExact(state);

        double fidelity1 = 0.0;
        double trace1 = 0.0;
        double purity1 = 0.0;
        {
            const ScopedThreads scope(1);
            const DensityMatrix rho =
                NoisySimulator(parallel::ExecutionConfig{1}).run(prep.circuit, noise);
            fidelity1 = rho.fidelityWithPure(state);
            trace1 = rho.trace();
            purity1 = rho.purity();
        }
        EXPECT_NEAR(trace1, 1.0, 1e-9) << target.family;
        EXPECT_GT(fidelity1, 0.9) << target.family;

        for (const unsigned threads : {2U, 4U, 7U}) {
            const ScopedThreads scope(threads);
            const DensityMatrix rho =
                NoisySimulator(parallel::ExecutionConfig{threads}).run(prep.circuit, noise);
            EXPECT_EQ(rho.fidelityWithPure(state), fidelity1)
                << target.family << " fidelity at " << threads << " threads";
            EXPECT_EQ(rho.trace(), trace1)
                << target.family << " trace at " << threads << " threads";
            EXPECT_EQ(rho.purity(), purity1)
                << target.family << " purity at " << threads << " threads";
        }
    }
}

// Synthesis is serial (synth/synthesizer.cpp), so the ambient width must
// not reach it: the circuit — and its QASM text — must be byte-identical
// at every thread count.
TEST(ThreadDeterminism, SynthesisQasmByteIdenticalAcrossThreadCounts) {
    for (const auto& target : targets()) {
        const StateVector state = makeTarget(target);
        const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);

        std::string qasm1;
        {
            const ScopedThreads scope(1);
            qasm1 = toQasm(synthesize(dd));
        }
        EXPECT_FALSE(qasm1.empty());

        for (const unsigned threads : {2U, 4U}) {
            const ScopedThreads scope(threads);
            EXPECT_EQ(toQasm(synthesize(dd)), qasm1)
                << target.family << " QASM at " << threads << " threads";
        }
    }
}

/// Reference semantics of Simulator::apply, one flat index at a time through
/// MixedRadix::digitAt — it shares no code with the kernel's control
/// lattice. A two-level gate tests its controls on the index whose target
/// digit is levelA; a Hadamard/Shift tests them on the base (target digit 0).
StateVector applyByDigitWalk(const StateVector& in, const Operation& op) {
    const MixedRadix& radix = in.radix();
    const Dimension dim = radix.dimensionAt(op.target);
    const DenseMatrix local = op.localMatrix(dim);
    const std::uint64_t stride = radix.strideAt(op.target);
    const bool twoLevel = op.kind != GateKind::Hadamard && op.kind != GateKind::Shift;
    std::vector<Complex> next(in.amplitudes());
    for (std::uint64_t base = 0; base < radix.totalDimension(); ++base) {
        if (radix.digitAt(base, op.target) != 0) {
            continue;
        }
        const std::uint64_t probe =
            twoLevel ? base + static_cast<std::uint64_t>(op.levelA) * stride : base;
        const bool satisfied =
            std::all_of(op.controls.begin(), op.controls.end(), [&](const Control& ctrl) {
                return radix.digitAt(probe, ctrl.qudit) == ctrl.level;
            });
        if (!satisfied) {
            continue;
        }
        if (twoLevel) {
            const std::uint64_t idxA = base + static_cast<std::uint64_t>(op.levelA) * stride;
            const std::uint64_t idxB = base + static_cast<std::uint64_t>(op.levelB) * stride;
            const Complex va = in[idxA];
            const Complex vb = in[idxB];
            next[idxA] = local(op.levelA, op.levelA) * va + local(op.levelA, op.levelB) * vb;
            next[idxB] = local(op.levelB, op.levelA) * va + local(op.levelB, op.levelB) * vb;
            continue;
        }
        for (Dimension r = 0; r < dim; ++r) {
            Complex acc{0.0, 0.0};
            for (Dimension c = 0; c < dim; ++c) {
                acc += local(r, c) * in[base + static_cast<std::uint64_t>(c) * stride];
            }
            next[base + static_cast<std::uint64_t>(r) * stride] = acc;
        }
    }
    return StateVector(in.dimensions(), std::move(next));
}

/// Every control placement the kernel resolves differently.
enum class ControlShape {
    None,
    Above,
    Below,
    BothSides,
    EveryOtherQudit,
    DuplicateSameLevel,
    Conflicting,
    OutOfRangeLevel,
    OnTargetWalkedLevel,
    OnTargetOtherLevel,
};
constexpr int kNumShapes = 10;

/// A seeded random gate of `kind` on `target` with controls of `shape`.
Operation randomGate(const MixedRadix& radix, std::size_t target, int kind, ControlShape shape,
                     Rng& rng) {
    const std::size_t n = radix.numQudits();
    const Dimension dim = radix.dimensionAt(target);
    auto randomLevel = [&](std::size_t site) {
        return static_cast<Level>(rng.uniformIndex(radix.dimensionAt(site)));
    };
    const Level levelA = randomLevel(target);
    const Level levelB = static_cast<Level>((levelA + 1 + rng.uniformIndex(dim - 1)) % dim);
    const bool twoLevel = kind < 3;
    const Level walked = twoLevel ? levelA : 0;

    std::vector<Control> controls;
    const std::size_t other = (target + 1 + rng.uniformIndex(n - 1)) % n; // any non-target site
    switch (shape) {
    case ControlShape::None:
        break;
    case ControlShape::Above:
    case ControlShape::Below:
    case ControlShape::BothSides: {
        const bool above = target > 0 && shape != ControlShape::Below;
        const bool below = target + 1 < n && shape != ControlShape::Above;
        if (above) {
            const std::size_t site = rng.uniformIndex(target);
            controls.push_back({site, randomLevel(site)});
        }
        if (below) {
            const std::size_t site = target + 1 + rng.uniformIndex(n - target - 1);
            controls.push_back({site, randomLevel(site)});
        }
        break;
    }
    case ControlShape::EveryOtherQudit:
        for (std::size_t site = 0; site < n; ++site) {
            if (site != target) {
                controls.push_back({site, randomLevel(site)});
            }
        }
        break;
    case ControlShape::DuplicateSameLevel: {
        const Level level = randomLevel(other);
        controls = {{other, level}, {other, level}};
        break;
    }
    case ControlShape::Conflicting: {
        const Level level = randomLevel(other);
        const Level otherLevel =
            static_cast<Level>((level + 1) % radix.dimensionAt(other));
        controls = {{other, level}, {other, otherLevel}};
        break;
    }
    case ControlShape::OutOfRangeLevel:
        controls = {{other, static_cast<Level>(radix.dimensionAt(other) + rng.uniformIndex(3))}};
        break;
    case ControlShape::OnTargetWalkedLevel:
        controls = {{target, walked}, {other, randomLevel(other)}};
        break;
    case ControlShape::OnTargetOtherLevel:
        controls = {{target, static_cast<Level>((walked + 1) % dim)}};
        break;
    }
    std::shuffle(controls.begin(), controls.end(), rng.engine());

    const double theta = rng.uniform(-3.0, 3.0);
    switch (kind) {
    case 0:
        return Operation::givens(target, levelA, levelB, theta, rng.uniform(-3.0, 3.0),
                                 controls);
    case 1:
        return Operation::phase(target, levelA, levelB, theta, controls);
    case 2:
        return Operation::levelSwap(target, levelA, levelB, controls);
    case 3:
        return Operation::hadamard(target, controls);
    default:
        return Operation::shift(target, static_cast<Level>(1 + rng.uniformIndex(dim - 1)),
                                controls);
    }
}

/// The control-lattice kernel must reproduce the digit-walk reference bit
/// for bit — on random mixed-dimensional registers, for every target, every
/// control placement and all five gate kinds — at width 1 and at width 4.
/// The fixed first register is wide enough that uncontrolled gates fan out
/// over several chunks at width 4.
TEST(ThreadDeterminism, ControlLatticeMatchesDigitWalkOracle) {
    Rng rng(777);
    std::vector<Dimensions> registers = {{7, 6, 7, 5, 6, 4}};
    for (int trial = 0; trial < 12; ++trial) {
        Dimensions dims(2 + rng.uniformIndex(5));
        for (auto& dim : dims) {
            dim = static_cast<Dimension>(2 + rng.uniformIndex(6));
        }
        registers.push_back(dims);
    }
    for (const auto& dims : registers) {
        const MixedRadix radix(dims);
        StateVector expected = states::random(dims, rng);
        StateVector serial = expected;
        StateVector wide = expected;
        for (std::size_t target = 0; target < dims.size(); ++target) {
            for (int shape = 0; shape < kNumShapes; ++shape) {
                // On the six-qudit register every shape meets all five kinds.
                const int kind = static_cast<int>((target + static_cast<std::size_t>(shape)) % 5);
                const Operation op =
                    randomGate(radix, target, kind, static_cast<ControlShape>(shape), rng);
                expected = applyByDigitWalk(expected, op);
                {
                    const ScopedThreads one(1);
                    Simulator::apply(serial, op);
                }
                {
                    const ScopedThreads four(4);
                    Simulator::apply(wide, op);
                }
                ASSERT_TRUE(serial.amplitudes() == expected.amplitudes())
                    << formatDimensionSpec(dims) << ' ' << op.toString();
                ASSERT_TRUE(wide.amplitudes() == expected.amplitudes())
                    << formatDimensionSpec(dims) << ' ' << op.toString();
            }
        }
    }
}

// --- shared-session batch determinism ---------------------------------------
//
// `DdBackend::verifyBatch` fans items out across the pool; every item
// replays on a scratch session of its own and only reads the backend's
// shared DdSession, which holds targets built on it. So the shared
// `dd_nodes` is exactly what the targets built, each item's report
// (fidelity, scratch `dd_nodes`, cache counters) is a function of that
// item alone, and none of it depends on the thread count, the
// interleaving or the item order — bit for bit.
//
// The families are the ones that, when every item interned into one
// shared session, were curated so no two distinct targets produce
// bucketed-equal-but-bit-different weights on a shared key.

struct SharedSessionFixture {
    std::vector<StateVector> denseTargets;
    std::vector<Circuit> circuits;
    std::vector<EvalState> evalTargets;
    std::vector<VerifyRequest> items;

    SharedSessionFixture() {
        denseTargets.push_back(states::ghz({3, 4, 2, 3}));
        denseTargets.push_back(states::wState({2, 3, 2, 3}));
        denseTargets.push_back(states::cyclic({3, 4, 2, 3}, {1, 0, 1, 0}, 4));
        denseTargets.push_back(states::dicke({2, 3, 2}, 2));
        evalTargets.reserve(denseTargets.size());
        for (const auto& target : denseTargets) {
            circuits.push_back(prepareExact(target).circuit);
            evalTargets.emplace_back(target);
        }
        for (std::size_t i = 0; i < denseTargets.size(); ++i) {
            items.push_back({&circuits[i], &evalTargets[i]});
        }
    }
};

/// Run the fixture's batch on a fresh backend pinned to `threads`; also
/// build the cyclic and dicke targets as session diagrams first, so the
/// memoized session builders contribute to the session's node population
/// at every thread count. Reports are re-indexed to the fixture order.
struct SharedSessionRun {
    std::vector<double> fidelities;
    std::vector<VerifyReport> reports;
    std::uint64_t poolNodesBeforeBatch = 0;
    std::uint64_t poolNodes = 0;

    SharedSessionRun(const SharedSessionFixture& fixture, unsigned threads,
                     bool reverseItems = false) {
        const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{threads});
        const auto session = backend.ddSession();
        const DecisionDiagram cyclicDd = session->cyclicState({3, 4, 2, 3}, {1, 0, 1, 0}, 4);
        const DecisionDiagram dickeDd = session->dickeState({2, 3, 2}, 2);
        EXPECT_NEAR(cyclicDd.normSquared(), 1.0, 1e-9);
        EXPECT_NEAR(dickeDd.normSquared(), 1.0, 1e-9);

        std::vector<VerifyRequest> items = fixture.items;
        if (reverseItems) {
            std::reverse(items.begin(), items.end());
        }
        poolNodesBeforeBatch = session->stats().poolNodes;
        reports = backend.verifyBatch(items);
        if (reverseItems) {
            std::reverse(reports.begin(), reports.end());
        }
        for (const auto& report : reports) {
            EXPECT_FALSE(report.failed) << report.error;
            fidelities.push_back(report.fidelity);
        }
        poolNodes = session->stats().poolNodes;
    }
};

TEST(SharedSessionDeterminism, BatchFidelitiesBitIdenticalAcrossThreadCounts) {
    const SharedSessionFixture fixture;
    const SharedSessionRun baseline(fixture, 1);
    ASSERT_EQ(baseline.fidelities.size(), fixture.items.size());
    for (const double fidelity : baseline.fidelities) {
        EXPECT_NEAR(fidelity, 1.0, 1e-9);
    }
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SharedSessionRun run(fixture, threads);
        ASSERT_EQ(run.fidelities.size(), baseline.fidelities.size());
        for (std::size_t i = 0; i < run.fidelities.size(); ++i) {
            // Bit-identical, not merely close.
            EXPECT_EQ(run.fidelities[i], baseline.fidelities[i])
                << "item " << i << " at " << threads << " threads";
        }
    }
}

/// Every item's scratch-session figures match between two runs.
void expectSameItemFigures(const SharedSessionRun& run, const SharedSessionRun& baseline,
                           const std::string& label) {
    ASSERT_EQ(run.reports.size(), baseline.reports.size());
    for (std::size_t i = 0; i < run.reports.size(); ++i) {
        EXPECT_EQ(run.reports[i].ddNodes, baseline.reports[i].ddNodes)
            << "item " << i << " " << label;
        EXPECT_EQ(run.reports[i].cacheLookups, baseline.reports[i].cacheLookups)
            << "item " << i << " " << label;
        EXPECT_EQ(run.reports[i].cacheHits, baseline.reports[i].cacheHits)
            << "item " << i << " " << label;
    }
}

TEST(SharedSessionDeterminism, SessionNodeCountInvariantAcrossThreadCounts) {
    const SharedSessionFixture fixture;
    const SharedSessionRun baseline(fixture, 1);
    EXPECT_GT(baseline.poolNodes, 1U);
    // The batch writes nothing into the shared session.
    EXPECT_EQ(baseline.poolNodes, baseline.poolNodesBeforeBatch);
    for (const auto& report : baseline.reports) {
        EXPECT_GT(report.ddNodes, 1U);
    }
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SharedSessionRun run(fixture, threads);
        EXPECT_EQ(run.poolNodes, baseline.poolNodes) << threads << " threads";
        expectSameItemFigures(run, baseline, "at " + std::to_string(threads) + " threads");
    }
}

TEST(SharedSessionDeterminism, ItemOrderDoesNotChangeFidelitiesOrNodeCount) {
    const SharedSessionFixture fixture;
    const SharedSessionRun forward(fixture, 4);
    const SharedSessionRun reversed(fixture, 4, /*reverseItems=*/true);
    ASSERT_EQ(reversed.fidelities.size(), forward.fidelities.size());
    for (std::size_t i = 0; i < forward.fidelities.size(); ++i) {
        EXPECT_EQ(reversed.fidelities[i], forward.fidelities[i]) << "item " << i;
    }
    EXPECT_EQ(reversed.poolNodes, forward.poolNodes);
    expectSameItemFigures(reversed, forward, "in reverse order");
}

// --- session-backed intra-apply determinism ----------------------------------
//
// Single-item DdBackend calls replay one diagram serially on the
// backend's shared session, and verify it serially on a scratch session,
// whatever width the backend is configured with. The session's `dd_nodes` and every fidelity are functions of the
// work alone — invariant across thread counts and item order, bit-for-bit.
// A backend configured wider must not change a single bit of either.

struct SessionApplyFixture {
    std::vector<StateVector> denseTargets;
    std::vector<Circuit> circuits;

    SessionApplyFixture() {
        Rng rng(424242);
        denseTargets.push_back(states::random({9, 5, 6, 3}, rng));
        denseTargets.push_back(states::ghz({3, 4, 2, 5}));
        denseTargets.push_back(states::wState({2, 3, 2, 3, 2}));
        for (const auto& target : denseTargets) {
            circuits.push_back(prepareExact(target).circuit);
        }
    }
};

/// Replay and verify every fixture item on a fresh backend pinned to
/// `threads`, optionally in reverse item order (results are re-indexed to
/// the fixture order either way, so runs compare element-wise).
struct SessionApplyRun {
    std::vector<double> replayFidelities;
    std::vector<double> verifyFidelities;
    std::uint64_t poolNodes = 0;

    SessionApplyRun(const SessionApplyFixture& fixture, unsigned threads,
                    bool reverseItems = false) {
        const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{threads});
        std::vector<std::size_t> order(fixture.circuits.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        if (reverseItems) {
            std::reverse(order.begin(), order.end());
        }
        replayFidelities.resize(order.size(), 0.0);
        verifyFidelities.resize(order.size(), 0.0);
        for (const std::size_t i : order) {
            const EvalState out = backend.runFromZero(fixture.circuits[i]);
            replayFidelities[i] =
                fixture.denseTargets[i].fidelityWith(out.toStateVector(4096));
            verifyFidelities[i] = backend.preparationFidelity(
                fixture.circuits[i], EvalState(fixture.denseTargets[i]));
        }
        poolNodes = backend.ddSession()->stats().poolNodes;
    }
};

TEST(SessionApplyDeterminism, FidelitiesBitIdenticalAcrossThreadCounts) {
    const SessionApplyFixture fixture;
    const SessionApplyRun baseline(fixture, 1);
    for (std::size_t i = 0; i < baseline.replayFidelities.size(); ++i) {
        EXPECT_NEAR(baseline.replayFidelities[i], 1.0, 1e-9) << "item " << i;
        EXPECT_NEAR(baseline.verifyFidelities[i], 1.0, 1e-9) << "item " << i;
    }
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SessionApplyRun run(fixture, threads);
        for (std::size_t i = 0; i < run.replayFidelities.size(); ++i) {
            // Bit-identical, not merely close.
            EXPECT_EQ(run.replayFidelities[i], baseline.replayFidelities[i])
                << "replay item " << i << " at " << threads << " threads";
            EXPECT_EQ(run.verifyFidelities[i], baseline.verifyFidelities[i])
                << "verify item " << i << " at " << threads << " threads";
        }
    }
}

TEST(SessionApplyDeterminism, SessionNodeCountInvariantAcrossThreadCounts) {
    const SessionApplyFixture fixture;
    const SessionApplyRun baseline(fixture, 1);
    EXPECT_GT(baseline.poolNodes, 1U);
    for (const unsigned threads : {2U, 4U, 7U}) {
        const SessionApplyRun run(fixture, threads);
        EXPECT_EQ(run.poolNodes, baseline.poolNodes) << threads << " threads";
    }
}

TEST(SessionApplyDeterminism, ItemOrderDoesNotChangeFidelitiesOrNodeCount) {
    const SessionApplyFixture fixture;
    const SessionApplyRun forward(fixture, 4);
    const SessionApplyRun reversed(fixture, 4, /*reverseItems=*/true);
    ASSERT_EQ(reversed.replayFidelities.size(), forward.replayFidelities.size());
    for (std::size_t i = 0; i < forward.replayFidelities.size(); ++i) {
        EXPECT_EQ(reversed.replayFidelities[i], forward.replayFidelities[i])
            << "replay item " << i;
        EXPECT_EQ(reversed.verifyFidelities[i], forward.verifyFidelities[i])
            << "verify item " << i;
    }
    EXPECT_EQ(reversed.poolNodes, forward.poolNodes);
}

// --- pool regions --------------------------------------------------------
//
// A DD diagram is tens to hundreds of nodes, far too small to repay a pool
// dispatch, so every single-item dd path — replay, verification,
// equivalence, synthesis and the session's structured builders — runs on
// the calling thread at any width. The pool-region counter pins that
// without a timing gate: a fan-out reintroduced inside one item opens a
// region here and fails. The dense replay check proves the counter live.

/// Pool regions opened while running `body`.
template <typename Body>
std::uint64_t poolRegionsDuring(Body&& body) {
    const std::uint64_t before = parallel::poolRegionCount();
    body();
    return parallel::poolRegionCount() - before;
}

TEST(PoolRegions, SingleItemDdPathsOpenNoRegionAtWidthFour) {
    const ScopedThreads scope(4);
    const Dimensions dims{9, 5, 6, 3};
    Rng rng(2024);
    const StateVector target = states::random(dims, rng);
    const DecisionDiagram diagram = DecisionDiagram::fromStateVector(target);
    const DdBackend backend(Tolerance::kDefault, parallel::ExecutionConfig{4});
    const auto session = backend.ddSession();

    Circuit circuit(dims);
    double replayNorm = 0.0;
    double fidelity = 0.0;
    bool equivalent = false;
    double cyclicNorm = 0.0;
    double dickeNorm = 0.0;
    EXPECT_EQ(poolRegionsDuring([&] { circuit = synthesize(diagram); }), 0U) << "synthesize";
    EXPECT_EQ(poolRegionsDuring(
                  [&] { replayNorm = backend.runFromZero(circuit).normSquared(); }),
              0U)
        << "runFromZero";
    EXPECT_EQ(poolRegionsDuring(
                  [&] { fidelity = backend.preparationFidelity(circuit, EvalState(target)); }),
              0U)
        << "preparationFidelity";
    EXPECT_EQ(poolRegionsDuring(
                  [&] { equivalent = backend.circuitsEquivalent(circuit, circuit); }),
              0U)
        << "circuitsEquivalent";
    EXPECT_EQ(poolRegionsDuring([&] {
                  cyclicNorm = session->cyclicState(dims, {1, 0, 2, 0}, 30).normSquared();
              }),
              0U)
        << "cyclicState";
    EXPECT_EQ(poolRegionsDuring(
                  [&] { dickeNorm = session->dickeState(dims, 6).normSquared(); }),
              0U)
        << "dickeState";

    EXPECT_NEAR(replayNorm, 1.0, 1e-9);
    EXPECT_NEAR(fidelity, 1.0, 1e-9);
    EXPECT_TRUE(equivalent);
    EXPECT_NEAR(cyclicNorm, 1.0, 1e-9);
    EXPECT_NEAR(dickeNorm, 1.0, 1e-9);
}

TEST(PoolRegions, DenseReplayOfAMillionAmplitudesOpensRegions) {
    const ScopedThreads scope(4);
    Circuit circuit(Dimensions(20, 2));
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::hadamard(19));
    double norm = 0.0;
    EXPECT_GE(poolRegionsDuring([&] { norm = Simulator::runFromZero(circuit).normSquared(); }),
              1U);
    EXPECT_NEAR(norm, 1.0, 1e-9);
}

} // namespace
} // namespace mqsp
