#include "mqsp/sim/simulator.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace mqsp {
namespace {

constexpr double kPi = std::numbers::pi;

StateVector randomState(const Dimensions& dims, std::uint64_t seed) {
    Rng rng(seed);
    const MixedRadix radix(dims);
    std::vector<Complex> amps(radix.totalDimension());
    for (auto& a : amps) {
        a = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    }
    StateVector state(dims, std::move(amps));
    state.normalize();
    return state;
}

TEST(Simulator, HadamardOnQutritZeroGivesUniform) {
    Circuit circuit({3});
    circuit.append(Operation::hadamard(0));
    const StateVector out = Simulator::runFromZero(circuit);
    const double amp = 1.0 / std::sqrt(3.0);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(out[i].real(), amp, 1e-12);
        EXPECT_NEAR(out[i].imag(), 0.0, 1e-12);
    }
}

TEST(Simulator, GhzFromPaperFigure1) {
    // Figure 1 of the paper: qutrit Hadamard, then +1 controlled on level 1
    // and +2 controlled on level 2 prepare the two-qutrit GHZ state.
    Circuit circuit({3, 3});
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::shift(1, 1, {{0, 1}}));
    circuit.append(Operation::shift(1, 2, {{0, 2}}));
    const StateVector out = Simulator::runFromZero(circuit);
    const double amp = 1.0 / std::sqrt(3.0);
    EXPECT_NEAR(out.at({0, 0}).real(), amp, 1e-12);
    EXPECT_NEAR(out.at({1, 1}).real(), amp, 1e-12);
    EXPECT_NEAR(out.at({2, 2}).real(), amp, 1e-12);
    EXPECT_EQ(out.countNonZero(1e-9), 3U);
}

TEST(Simulator, GivensMovesAmplitudeBetweenChosenLevels) {
    Circuit circuit({4});
    circuit.append(Operation::givens(0, 0, 3, kPi, 0.0));
    const StateVector out = Simulator::runFromZero(circuit);
    // R(pi, 0): |0> -> -i |3>.
    EXPECT_NEAR(std::abs(out[3]), 1.0, 1e-12);
    EXPECT_NEAR(out[3].imag(), -1.0, 1e-12);
    EXPECT_NEAR(std::abs(out[0]), 0.0, 1e-12);
}

TEST(Simulator, ControlGatesFireOnlyOnMatchingLevel) {
    Circuit circuit({3, 2});
    // Put the control qutrit into level 2, then apply a controlled flip.
    circuit.append(Operation::givens(0, 0, 2, kPi, 0.0));
    circuit.append(Operation::givens(1, 0, 1, kPi, 0.0, {{0, 2}}));
    const StateVector out = Simulator::runFromZero(circuit);
    EXPECT_NEAR(std::abs(out.at({2, 1})), 1.0, 1e-12);

    Circuit miss({3, 2});
    miss.append(Operation::givens(0, 0, 2, kPi, 0.0));
    miss.append(Operation::givens(1, 0, 1, kPi, 0.0, {{0, 1}})); // wrong level
    const StateVector outMiss = Simulator::runFromZero(miss);
    EXPECT_NEAR(std::abs(outMiss.at({2, 0})), 1.0, 1e-12);
}

TEST(Simulator, MultiControlRequiresAllLevels) {
    Circuit circuit({2, 2, 2});
    circuit.append(Operation::givens(0, 0, 1, kPi, 0.0));
    // Control on q0=1 and q1=0: satisfied after the first flip.
    circuit.append(Operation::givens(2, 0, 1, kPi, 0.0, {{0, 1}, {1, 0}}));
    const StateVector out = Simulator::runFromZero(circuit);
    EXPECT_NEAR(std::abs(out.at({1, 0, 1})), 1.0, 1e-12);

    Circuit blocked({2, 2, 2});
    blocked.append(Operation::givens(0, 0, 1, kPi, 0.0));
    blocked.append(Operation::givens(2, 0, 1, kPi, 0.0, {{0, 1}, {1, 1}}));
    const StateVector outBlocked = Simulator::runFromZero(blocked);
    EXPECT_NEAR(std::abs(outBlocked.at({1, 0, 0})), 1.0, 1e-12);
}

TEST(Simulator, ApplyMatchesDenseMatrixOnRandomStates) {
    // Property: for every gate kind, applying via the simulator equals
    // multiplying the single-qudit dense matrix into the right slot.
    const Dimensions dims{3, 4, 2};
    const StateVector input = randomState(dims, 99);
    const MixedRadix radix(dims);

    const std::vector<Operation> ops = {
        Operation::givens(1, 1, 3, 0.77, -0.4), Operation::phase(1, 0, 2, 1.1),
        Operation::hadamard(1), Operation::shift(1, 3)};
    for (const auto& op : ops) {
        StateVector viaSim = input;
        Simulator::apply(viaSim, op);

        // Reference: gather each fiber along site 1 and multiply.
        const DenseMatrix m = op.localMatrix(4);
        StateVector reference = input;
        for (std::uint64_t base = 0; base < radix.totalDimension(); ++base) {
            if (radix.digitAt(base, 1) != 0) {
                continue;
            }
            std::vector<Complex> fiber(4);
            for (Level k = 0; k < 4; ++k) {
                fiber[k] = input[base + k * radix.strideAt(1)];
            }
            const auto transformed = m.apply(fiber);
            for (Level k = 0; k < 4; ++k) {
                reference[base + k * radix.strideAt(1)] = transformed[k];
            }
        }
        EXPECT_NEAR(viaSim.fidelityWith(reference), 1.0, 1e-10)
            << "op: " << op.toString();
        // Fidelity hides per-amplitude phase mistakes; compare directly too.
        for (std::uint64_t i = 0; i < viaSim.size(); ++i) {
            EXPECT_NEAR(std::abs(viaSim[i] - reference[i]), 0.0, 1e-10);
        }
    }
}

TEST(Simulator, LevelSwapPermutesWithoutPhases) {
    Circuit circuit({4, 2});
    circuit.append(Operation::givens(0, 0, 2, 1.1, 0.7)); // populate levels 0 and 2
    circuit.append(Operation::levelSwap(0, 0, 2));
    const StateVector withSwap = Simulator::runFromZero(circuit);

    Circuit reference({4, 2});
    reference.append(Operation::givens(0, 0, 2, 1.1, 0.7));
    const StateVector plain = Simulator::runFromZero(reference);

    // The swap exchanges the level-0 and level-2 amplitudes exactly.
    EXPECT_NEAR(std::abs(withSwap.at({0, 0}) - plain.at({2, 0})), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(withSwap.at({2, 0}) - plain.at({0, 0})), 0.0, 1e-12);
}

TEST(Simulator, ControlledLevelSwap) {
    Circuit circuit({2, 3});
    circuit.append(Operation::givens(0, 0, 1, kPi, 0.0)); // control to |1>
    circuit.append(Operation::levelSwap(1, 0, 2, {{0, 1}}));
    const StateVector out = Simulator::runFromZero(circuit);
    EXPECT_NEAR(std::abs(out.at({1, 2})), 1.0, 1e-12);
}

TEST(Simulator, UnitarityPreservesNorm) {
    Rng rng(7);
    const Dimensions dims{3, 6, 2};
    StateVector state = randomState(dims, 3);
    Circuit circuit(dims);
    for (int i = 0; i < 50; ++i) {
        const auto site = static_cast<std::size_t>(rng.uniformIndex(3));
        const Dimension dim = MixedRadix(dims).dimensionAt(site);
        const auto a = static_cast<Level>(rng.uniformIndex(dim));
        auto b = static_cast<Level>(rng.uniformIndex(dim));
        if (a == b) {
            b = (b + 1) % dim;
        }
        circuit.append(Operation::givens(site, std::min(a, b), std::max(a, b),
                                         rng.uniform(-kPi, kPi), rng.uniform(-kPi, kPi)));
    }
    const StateVector out = Simulator::run(circuit, state);
    EXPECT_NEAR(out.norm(), 1.0, 1e-10);
}

TEST(Simulator, InverseCircuitRestoresState) {
    const Dimensions dims{4, 3};
    const StateVector input = randomState(dims, 21);
    Circuit circuit(dims);
    circuit.append(Operation::givens(0, 0, 2, 0.9, 0.3));
    circuit.append(Operation::phase(1, 0, 1, -1.2, {{0, 2}}));
    circuit.append(Operation::givens(1, 1, 2, 2.2, -0.8, {{0, 1}}));
    const StateVector forward = Simulator::run(circuit, input);
    const StateVector back = Simulator::run(circuit.inverted(), forward);
    for (std::uint64_t i = 0; i < input.size(); ++i) {
        EXPECT_NEAR(std::abs(back[i] - input[i]), 0.0, 1e-10);
    }
}

TEST(Simulator, RunRejectsMismatchedRegisters) {
    const Circuit circuit({2, 2});
    const StateVector state({3});
    EXPECT_THROW((void)Simulator::run(circuit, state), InvalidArgumentError);
}

TEST(Simulator, OutOfRangeControlQuditThrowsAfterNeverFiringControl) {
    // Each list first holds a control that rules the gate out (out-of-range
    // level, conflicting levels, target-site level mismatch) and then one on
    // a qudit the register does not have: the bad qudit must still throw, and
    // the state must be left as it was.
    const Dimensions dims{3, 2, 4};
    const std::vector<std::vector<Control>> controlLists = {
        {{1, 5}, {3, 0}},
        {{0, 1}, {0, 2}, {7, 1}},
        {{2, 3}, {3, 1}},
    };
    for (const auto& controls : controlLists) {
        for (const Operation& op : {Operation::givens(2, 0, 1, 0.4, 0.2, controls),
                                    Operation::shift(2, 1, controls)}) {
            StateVector state = randomState(dims, 5);
            const StateVector before = state;
            EXPECT_THROW(Simulator::apply(state, op), InvalidArgumentError) << op.toString();
            EXPECT_TRUE(state.amplitudes() == before.amplitudes()) << op.toString();
        }
    }
}

TEST(Simulator, PreparationFidelityOfEmptyCircuit) {
    const Circuit circuit({3, 2});
    const StateVector zero({3, 2});
    EXPECT_NEAR(Simulator::preparationFidelity(circuit, zero), 1.0, 1e-12);
}

} // namespace
} // namespace mqsp
