#include "mqsp/opt/optimizer.hpp"

#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mqsp {
namespace {

constexpr double kPi = std::numbers::pi;

/// Exhaustive process equivalence on every basis state of the register.
void expectSameProcess(const Circuit& a, const Circuit& b, double tol = 1e-9) {
    ASSERT_EQ(a.dimensions(), b.dimensions());
    const MixedRadix& radix = a.radix();
    for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
        StateVector input(a.dimensions());
        input[0] = Complex{0.0, 0.0};
        input[index] = Complex{1.0, 0.0};
        const StateVector wantState = Simulator::run(a, input);
        const StateVector gotState = Simulator::run(b, input);
        for (std::uint64_t i = 0; i < wantState.size(); ++i) {
            EXPECT_NEAR(std::abs(gotState[i] - wantState[i]), 0.0, tol)
                << "input " << index << " amplitude " << i;
        }
    }
}

TEST(Optimizer, MergesAdjacentSameAxisRotations) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.4, 0.7));
    circuit.append(Operation::givens(0, 0, 1, 0.6, 0.7));
    const Circuit original = circuit;
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.mergedRotations, 1U);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_DOUBLE_EQ(circuit[0].theta, 1.0);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, CancelsOpFollowedByInverse) {
    Circuit circuit({4, 2});
    circuit.append(Operation::givens(0, 1, 3, 1.1, -0.2, {{1, 1}}));
    circuit.append(Operation::givens(0, 1, 3, -1.1, -0.2, {{1, 1}}));
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 0U);
    EXPECT_EQ(report.droppedIdentities, 1U);
}

TEST(Optimizer, MergesAcrossCommutingOps) {
    // The middle op acts on a disjoint site, so the outer rotations merge.
    Circuit circuit({3, 2});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(1, 0, 1, 0.9, 0.4));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, DoesNotMergeAcrossBlockingOps) {
    // The middle op shares the target site: merging would be wrong.
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(0, 1, 2, 0.9, 0.4));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 3U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, DoesNotMergeDifferentAxes) {
    Circuit circuit({3});
    circuit.append(Operation::givens(0, 0, 1, 0.3, 0.0));
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.1)); // different phi
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
}

TEST(Optimizer, ControlOrderIsNotSemantic) {
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(2, 0, 1, 0.3, 0.0, {{0, 1}, {1, 0}}));
    circuit.append(Operation::givens(2, 0, 1, 0.4, 0.0, {{1, 0}, {0, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 1U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, MergesFullControlFanIntoUncontrolledOp) {
    // The same rotation fired for every level of the control equals the
    // uncontrolled rotation.
    Circuit circuit({3, 2});
    for (Level k = 0; k < 3; ++k) {
        circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, k}}));
    }
    const Circuit original = circuit;
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.mergedControlFans, 2U);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_TRUE(circuit[0].controls.empty());
    expectSameProcess(original, circuit);
}

TEST(Optimizer, PartialFanIsLeftAlone) {
    Circuit circuit({3, 2});
    circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, 0}}));
    circuit.append(Operation::givens(1, 0, 1, 0.8, 0.2, {{0, 2}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 2U);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, FanMergePeelsOneControlOfMany) {
    // Fan over q1's two levels with a shared control on q0: the q1 control
    // disappears, the q0 control stays.
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(2, 0, 1, 1.2, 0.0, {{0, 1}, {1, 0}}));
    circuit.append(Operation::givens(2, 0, 1, 1.2, 0.0, {{0, 1}, {1, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    ASSERT_EQ(circuit.numOperations(), 1U);
    EXPECT_EQ(circuit[0].controls, (std::vector<Control>{{0, 1}}));
    expectSameProcess(original, circuit);
}

TEST(Optimizer, FanPlusRotationMergeComposes) {
    // After the fan merge the op can further merge with a neighbouring
    // uncontrolled rotation on the same axis.
    Circuit circuit({2, 3});
    circuit.append(Operation::givens(1, 0, 2, 0.3, 0.1));
    circuit.append(Operation::givens(1, 0, 2, 0.5, 0.1, {{0, 0}}));
    circuit.append(Operation::givens(1, 0, 2, 0.5, 0.1, {{0, 1}}));
    const Circuit original = circuit;
    (void)optimizeCircuit(circuit);
    EXPECT_EQ(circuit.numOperations(), 1U);
    EXPECT_DOUBLE_EQ(circuit[0].theta, 0.8);
    expectSameProcess(original, circuit);
}

TEST(Optimizer, ShortensFaithfulSynthesisOutput) {
    // Paper-faithful circuits carry identity ops; the optimizer must strip
    // them without touching semantics (same effect as the elision mode).
    const StateVector target = states::ghz({3, 6, 2});
    auto prep = prepareExact(target);
    const std::size_t before = prep.circuit.numOperations();
    const auto report = optimizeCircuit(prep.circuit);
    EXPECT_LT(prep.circuit.numOperations(), before);
    EXPECT_GT(report.droppedIdentities, 0U);
    EXPECT_NEAR(Simulator::preparationFidelity(prep.circuit, target), 1.0, 1e-9);
}

TEST(Optimizer, ReportsRoundsAndCounts) {
    Circuit circuit({2});
    circuit.append(Operation::givens(0, 0, 1, 0.5, 0.0));
    circuit.append(Operation::givens(0, 0, 1, -0.5, 0.0));
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.opsBefore, 2U);
    EXPECT_EQ(report.opsAfter, 0U);
    EXPECT_GE(report.rounds, 1U);
}

TEST(Optimizer, LongMergeableRunCollapsesToOneOp) {
    // Each pass compacts once, so a run this long stays linear (the
    // erase-per-merge passes took seconds here).
    constexpr std::size_t kOps = 40000;
    Circuit circuit({3, 2});
    double sum = 0.0;
    for (std::size_t i = 0; i < kOps; ++i) {
        const double theta = 1e-3 * static_cast<double>(1 + i % 7);
        circuit.append(Operation::givens(0, 0, 1, theta, 0.25, {{1, 1}}));
        sum += theta;
    }
    const auto report = optimizeCircuit(circuit);
    EXPECT_EQ(report.opsBefore, kOps);
    EXPECT_EQ(report.opsAfter, 1U);
    EXPECT_EQ(report.mergedRotations, kOps - 1);
    EXPECT_EQ(report.droppedIdentities, 0U);
    EXPECT_EQ(report.rounds, 1U);
    ASSERT_EQ(circuit.numOperations(), 1U);
    EXPECT_EQ(circuit[0].kind, GateKind::GivensRotation);
    EXPECT_EQ(circuit[0].phi, 0.25);
    EXPECT_EQ(circuit[0].controls, (std::vector<Control>{{1, 1}}));
    EXPECT_EQ(circuit[0].theta, sum); // summed in circuit order, bit for bit
}

/// Report counts the optimizer gives a circuit; pinned where the passes
/// must keep their exact merge order, not just the semantics.
struct PinnedReport {
    std::size_t opsAfter;
    std::size_t mergedRotations;
    std::size_t droppedIdentities;
    std::size_t mergedControlFans;
    std::size_t rounds;
};

void expectReport(const OptimizerReport& report, const PinnedReport& pinned) {
    EXPECT_EQ(report.opsAfter, pinned.opsAfter);
    EXPECT_EQ(report.mergedRotations, pinned.mergedRotations);
    EXPECT_EQ(report.droppedIdentities, pinned.droppedIdentities);
    EXPECT_EQ(report.mergedControlFans, pinned.mergedControlFans);
    EXPECT_EQ(report.rounds, pinned.rounds);
}

TEST(Optimizer, FanRichCircuitsKeepSemanticsAndCounts) {
    // Blocks of one payload fanned over every level of a control qudit, in
    // mixed control order, with levels dropped or repeated and disjoint
    // shifts interleaved: full fans collapse, partial ones stay.
    constexpr PinnedReport kPinned[] = {{77, 7, 0, 26, 1}, {97, 8, 0, 25, 1}, {91, 5, 0, 19, 1}};
    const Dimensions dims{3, 2, 4, 3};
    const MixedRadix radix(dims);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 131);
        Circuit circuit(dims);
        for (int block = 0; block < 30; ++block) {
            const auto target = static_cast<std::size_t>(rng.uniformIndex(4));
            const std::size_t fan = (target + 1 + rng.uniformIndex(3)) % 4;
            std::vector<Control> base;
            for (std::size_t q = 0; q < 4; ++q) {
                if (q != target && q != fan && rng.uniform01() < 0.4) {
                    base.push_back({q, static_cast<Level>(rng.uniformIndex(radix.dimensionAt(q)))});
                }
            }
            const double theta = rng.uniform01() < 0.5 ? kPi / 4 : -kPi / 3;
            const auto kind = rng.uniformIndex(3);
            const Dimension fanDim = radix.dimensionAt(fan);
            for (Level l = 0; l < fanDim; ++l) {
                if (rng.uniform01() < 0.1) {
                    continue;
                }
                const int reps = rng.uniform01() < 0.15 ? 2 : 1;
                for (int r = 0; r < reps; ++r) {
                    auto controls = base;
                    controls.push_back({fan, (l * 7 + static_cast<Level>(block)) % fanDim});
                    if (rng.uniform01() < 0.5) {
                        std::reverse(controls.begin(), controls.end());
                    }
                    if (kind == 0) {
                        circuit.append(Operation::givens(target, 0, 1, theta, 0.3, controls));
                    } else if (kind == 1) {
                        circuit.append(Operation::hadamard(target, controls));
                    } else {
                        circuit.append(Operation::phase(target, 0, 1, theta, controls));
                    }
                    if (rng.uniform01() < 0.3) {
                        const std::size_t other = rng.uniformIndex(4);
                        if (other != target) {
                            circuit.append(Operation::shift(other, 1));
                        }
                    }
                }
            }
        }
        Circuit optimized = circuit;
        expectReport(optimizeCircuit(optimized), kPinned[seed - 1]);
        expectSameProcess(circuit, optimized, 1e-8);
    }
}

class OptimizerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerFuzz, RandomCircuitsKeepTheirSemantics) {
    Rng rng(GetParam());
    const Dimensions dims{3, 2, 4};
    const MixedRadix radix(dims);
    Circuit circuit(dims);
    for (int i = 0; i < 60; ++i) {
        const auto target = static_cast<std::size_t>(rng.uniformIndex(3));
        const Dimension dim = radix.dimensionAt(target);
        auto a = static_cast<Level>(rng.uniformIndex(dim));
        auto b = static_cast<Level>(rng.uniformIndex(dim));
        if (a == b) {
            b = (b + 1) % dim;
        }
        std::vector<Control> controls;
        if (rng.uniform01() < 0.5) {
            std::size_t ctrl = (target + 1 + rng.uniformIndex(2)) % 3;
            controls.push_back(
                {ctrl, static_cast<Level>(rng.uniformIndex(radix.dimensionAt(ctrl)))});
        }
        // Small discrete angle set to provoke merges and cancellations.
        const double angles[] = {0.0, kPi / 4, -kPi / 4, kPi / 2};
        const double phis[] = {0.0, kPi / 2};
        if (rng.uniform01() < 0.7) {
            circuit.append(Operation::givens(target, std::min(a, b), std::max(a, b),
                                             angles[rng.uniformIndex(4)],
                                             phis[rng.uniformIndex(2)], controls));
        } else {
            circuit.append(Operation::phase(target, std::min(a, b), std::max(a, b),
                                            angles[rng.uniformIndex(4)], controls));
        }
    }
    Circuit optimized = circuit;
    const auto report = optimizeCircuit(optimized);
    EXPECT_LE(report.opsAfter, report.opsBefore);
    constexpr PinnedReport kPinned[] = {{45, 1, 14, 0, 2}, {47, 2, 11, 0, 1}, {33, 6, 21, 0, 1},
                                        {43, 1, 16, 0, 1}, {45, 1, 14, 0, 1}, {45, 2, 13, 0, 2},
                                        {40, 4, 16, 0, 2}, {40, 0, 20, 0, 1}, {43, 1, 16, 0, 1},
                                        {48, 0, 12, 0, 1}};
    expectReport(report, kPinned[GetParam() - 1]);
    expectSameProcess(circuit, optimized, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzz,
                         ::testing::Values(1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 9U, 10U));

} // namespace
} // namespace mqsp
