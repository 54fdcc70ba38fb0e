#include "mqsp/sim/simulator.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"

#include <algorithm>
#include <vector>

namespace mqsp {

namespace {

/// Minimum lattice bases per chunk when the gate kernels fan out over the
/// pool. Gates whose control lattice fits one grain run inline with zero
/// dispatch overhead — for the synthesizer's path-controlled gates that is
/// every gate short of the widest subtrees.
constexpr std::uint64_t kKernelGrain = 4096;

/// The base indices one controlled gate acts on: `fixed` (the offsets of
/// the digits the controls pin) plus every combination of the free digits,
/// the non-target qudits no control mentions. The kernel walks the target
/// digit itself, so a base is a flat index whose target digit is 0.
struct ControlLattice {
    struct FreeDigit {
        std::uint64_t stride;
        std::uint64_t dim;
    };
    std::uint64_t fixed = 0;
    /// Least significant first; adjacent free qudits merge into one digit,
    /// and there is always at least one (dim 1 when every qudit is pinned).
    std::vector<FreeDigit> free;
    std::uint64_t count = 0; ///< number of bases; 0 when the gate never fires
};

/// Resolve the controls of a gate on `target` whose walked index has target
/// digit `walkedLevel`. An out-of-range control qudit throws (checked for
/// every control, even after one that already rules the gate out); an
/// out-of-range level, two different levels on one qudit, or a target-site
/// control other than `walkedLevel` is a condition no index satisfies — a
/// silent no-op gate.
[[nodiscard]] ControlLattice buildLattice(const MixedRadix& radix, std::size_t target,
                                          Level walkedLevel,
                                          const std::vector<Control>& controls) {
    constexpr std::uint64_t kFree = ~std::uint64_t{0};
    std::vector<std::uint64_t> pinned(radix.numQudits(), kFree);
    bool neverFires = false;
    for (const auto& ctrl : controls) {
        requireThat(ctrl.qudit < radix.numQudits(), "Simulator: control qudit out of range");
        const std::uint64_t level = ctrl.level;
        if (ctrl.qudit == target) {
            neverFires = neverFires || ctrl.level != walkedLevel;
        } else if (level >= radix.dimensionAt(ctrl.qudit) ||
                   (pinned[ctrl.qudit] != kFree && pinned[ctrl.qudit] != level)) {
            neverFires = true;
        } else {
            pinned[ctrl.qudit] = level;
        }
    }
    ControlLattice lattice;
    if (neverFires) {
        return lattice;
    }
    lattice.count = 1;
    for (std::size_t site = radix.numQudits(); site-- > 0;) {
        const std::uint64_t stride = radix.strideAt(site);
        const std::uint64_t dim = radix.dimensionAt(site);
        if (site == target) {
            continue;
        }
        if (pinned[site] != kFree) {
            lattice.fixed += pinned[site] * stride;
            continue;
        }
        lattice.count *= dim;
        auto& free = lattice.free;
        if (!free.empty() && free.back().stride * free.back().dim == stride) {
            free.back().dim *= dim; // contiguous with the previous free digit
        } else {
            free.push_back({stride, dim});
        }
    }
    if (lattice.free.empty()) {
        lattice.free.push_back({1, 1});
    }
    return lattice;
}

/// Call `body(base)` for lattice bases [begin, end) in order: decode `begin`
/// once, then run the innermost free digit as a plain stride loop and carry
/// into the outer digits odometer-style — no division per base.
template <typename Body>
void forEachBase(const ControlLattice& lattice, std::uint64_t begin, std::uint64_t end,
                 Body&& body) {
    const auto& free = lattice.free;
    std::vector<std::uint64_t> digits(free.size());
    std::uint64_t base = lattice.fixed;
    std::uint64_t rest = begin;
    for (std::size_t k = 0; k < free.size(); ++k) {
        digits[k] = rest % free[k].dim;
        rest /= free[k].dim;
        base += digits[k] * free[k].stride;
    }
    std::uint64_t item = begin;
    while (item < end) {
        const std::uint64_t run = std::min(end - item, free[0].dim - digits[0]);
        for (std::uint64_t i = 0; i < run; ++i, base += free[0].stride) {
            body(base);
        }
        item += run;
        digits[0] += run;
        for (std::size_t k = 0; k + 1 < free.size() && digits[k] == free[k].dim; ++k) {
            base += free[k + 1].stride - free[k].dim * free[k].stride;
            digits[k] = 0;
            ++digits[k + 1];
        }
    }
}

/// Apply a two-level update (rows/cols a,b of a 2x2 block) on every base of
/// the control lattice. `m00..m11` is the block in the (a, b) basis. The
/// bases are independent, so they fan out over the thread pool.
void applyTwoLevel(StateVector& state, std::size_t target, Level a, Level b, Complex m00,
                   Complex m01, Complex m10, Complex m11,
                   const std::vector<Control>& controls) {
    const auto stride = state.radix().strideAt(target);
    // Controls are tested on the index whose target digit is `a`; the
    // partner index differs only in the target digit (a -> b).
    const ControlLattice lattice = buildLattice(state.radix(), target, a, controls);
    const std::uint64_t offsetA = static_cast<std::uint64_t>(a) * stride;
    const std::uint64_t offsetB = static_cast<std::uint64_t>(b) * stride;
    Complex* const data = state.amplitudes().data();
    parallel::parallelFor(0, lattice.count, kKernelGrain, [&](std::uint64_t chunkBegin,
                                                              std::uint64_t chunkEnd) {
        // By-value capture: the 2x2 block then cannot alias the amplitudes,
        // so it stays in registers instead of being reloaded per base.
        forEachBase(lattice, chunkBegin, chunkEnd, [=](std::uint64_t base) {
            const std::uint64_t idxA = base + offsetA;
            const std::uint64_t idxB = base + offsetB;
            const Complex va = data[idxA];
            const Complex vb = data[idxB];
            data[idxA] = m00 * va + m01 * vb;
            data[idxB] = m10 * va + m11 * vb;
        });
    });
}

/// Apply a full dxd single-qudit matrix (Hadamard, Shift) on every base of
/// the control lattice. Each base owns its d-entry column, so bases fan out
/// over the pool with a per-chunk scratch column.
void applyDense(StateVector& state, std::size_t target, const DenseMatrix& matrix,
                const std::vector<Control>& controls) {
    const auto stride = state.radix().strideAt(target);
    const auto dim = state.radix().dimensionAt(target);
    auto& amps = state.amplitudes();
    // Controls are tested on the base index, whose target digit is 0.
    const ControlLattice lattice = buildLattice(state.radix(), target, 0, controls);
    parallel::parallelFor(0, lattice.count, kKernelGrain, [&](std::uint64_t chunkBegin,
                                                              std::uint64_t chunkEnd) {
        std::vector<Complex> scratch(dim);
        forEachBase(lattice, chunkBegin, chunkEnd, [&](std::uint64_t base) {
            for (Dimension k = 0; k < dim; ++k) {
                scratch[k] = amps[base + static_cast<std::uint64_t>(k) * stride];
            }
            for (Dimension r = 0; r < dim; ++r) {
                Complex acc{0.0, 0.0};
                for (Dimension c = 0; c < dim; ++c) {
                    acc += matrix(r, c) * scratch[c];
                }
                amps[base + static_cast<std::uint64_t>(r) * stride] = acc;
            }
        });
    });
}

} // namespace

void Simulator::apply(StateVector& state, const Operation& op) {
    const auto& radix = state.radix();
    requireThat(op.target < radix.numQudits(), "Simulator: operation target out of range");
    const Dimension dim = radix.dimensionAt(op.target);
    switch (op.kind) {
    case GateKind::GivensRotation: {
        requireThat(op.levelA < dim && op.levelB < dim, "Simulator: rotation level out of range");
        const DenseMatrix m = givensMatrix(2, 0, 1, op.theta, op.phi);
        applyTwoLevel(state, op.target, op.levelA, op.levelB, m(0, 0), m(0, 1), m(1, 0), m(1, 1),
                      op.controls);
        return;
    }
    case GateKind::PhaseRotation: {
        requireThat(op.levelA < dim && op.levelB < dim, "Simulator: phase level out of range");
        const DenseMatrix m = phaseMatrix(2, 0, 1, op.theta);
        applyTwoLevel(state, op.target, op.levelA, op.levelB, m(0, 0), m(0, 1), m(1, 0), m(1, 1),
                      op.controls);
        return;
    }
    case GateKind::LevelSwap: {
        requireThat(op.levelA < dim && op.levelB < dim, "Simulator: swap level out of range");
        applyTwoLevel(state, op.target, op.levelA, op.levelB, Complex{0.0, 0.0},
                      Complex{1.0, 0.0}, Complex{1.0, 0.0}, Complex{0.0, 0.0}, op.controls);
        return;
    }
    case GateKind::Hadamard:
    case GateKind::Shift:
        applyDense(state, op.target, op.localMatrix(dim), op.controls);
        return;
    }
    detail::throwInternal("Simulator::apply: unknown gate kind");
}

StateVector Simulator::run(const Circuit& circuit, StateVector state) {
    requireThat(circuit.radix() == state.radix(),
                "Simulator::run: circuit and state registers differ");
    // Gates are sequential (each reads the previous one's output); the
    // parallelism lives inside each application's amplitude walk.
    for (const auto& op : circuit.operations()) {
        apply(state, op);
    }
    return state;
}

StateVector Simulator::runFromZero(const Circuit& circuit) {
    return run(circuit, StateVector(circuit.dimensions()));
}

double Simulator::preparationFidelity(const Circuit& circuit, const StateVector& target) {
    return target.fidelityWith(runFromZero(circuit));
}

} // namespace mqsp
