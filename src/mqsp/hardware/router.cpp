#include "mqsp/hardware/router.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>

namespace mqsp {

namespace {

/// CX(a->b): |x, y> -> |x, (y + x) mod d> as d-1 controlled shifts.
void appendControlledAdd(Circuit& circuit, std::size_t a, std::size_t b, bool inverse) {
    const Dimension dim = circuit.radix().dimensionAt(b);
    for (Level x = 1; x < circuit.radix().dimensionAt(a); ++x) {
        // Shift amount on b: +x (or its inverse d - x), reduced mod dim(b).
        const Level amount = static_cast<Level>(
            (inverse ? dim - (x % dim) : x) % dim);
        if (amount == 0) {
            continue;
        }
        circuit.append(Operation::shift(b, amount, {{a, x}}));
    }
}

/// NEG(a): |z> -> |-z mod d| as floor((d-1)/2) level transpositions.
void appendNegation(Circuit& circuit, std::size_t a) {
    const Dimension dim = circuit.radix().dimensionAt(a);
    for (Level z = 1; 2 * z < dim; ++z) {
        circuit.append(Operation::levelSwap(a, z, static_cast<Level>(dim - z)));
    }
}

} // namespace

void appendSwap(Circuit& circuit, std::size_t a, std::size_t b) {
    const Dimension dimA = circuit.radix().dimensionAt(a);
    const Dimension dimB = circuit.radix().dimensionAt(b);
    if (dimA != dimB) {
        detail::throwInvalidArgument(
            "appendSwap: cannot exchange qudits of different dimensionality (" +
            std::to_string(dimA) + " vs " + std::to_string(dimB) + ")");
    }
    // |x,y> -> |x, x+y> -> |x-(x+y), x+y> = |-y, x+y> -> |-y, x> -> |y, x>.
    appendControlledAdd(circuit, a, b, /*inverse=*/false);
    appendControlledAdd(circuit, b, a, /*inverse=*/true);
    appendControlledAdd(circuit, a, b, /*inverse=*/false);
    appendNegation(circuit, a);
}

RoutingResult routeCircuit(const Circuit& circuit, const Architecture& arch) {
    requireThat(circuit.dimensions() == arch.dimensions(),
                "routeCircuit: circuit register and architecture disagree");
    RoutingResult result;
    result.circuit = Circuit(circuit.dimensions(), circuit.name() + "_routed");

    for (const auto& op : circuit.operations()) {
        requireThat(op.numControls() <= 1,
                    "routeCircuit: lower multi-controlled ops with transpileToTwoQudit "
                    "before routing");
        if (op.numControls() == 0) {
            result.circuit.append(op);
            continue;
        }
        const std::size_t control = op.controls[0].qudit;
        const std::size_t target = op.target;
        if (arch.connected(control, target)) {
            result.circuit.append(op);
            ++result.twoQuditOps;
            continue;
        }
        // Move the control qudit adjacent to the target along the shortest
        // coupling path, apply, and move it back.
        const auto path = arch.shortestPath(control, target);
        ensureThat(path.size() >= 3, "routeCircuit: unexpected short path");
        const std::size_t hops = path.size() - 2; // swaps one way
        for (std::size_t i = 0; i < hops; ++i) {
            appendSwap(result.circuit, path[i], path[i + 1]);
        }
        Operation moved = op;
        moved.controls[0].qudit = path[path.size() - 2];
        // If the op's target happened to be relocated... it cannot be: the
        // path endpoints are control and target, interior sites differ from
        // the target, and only path[0..k-1] were swapped.
        result.circuit.append(std::move(moved));
        for (std::size_t i = hops; i-- > 0;) {
            appendSwap(result.circuit, path[i], path[i + 1]);
        }
        result.swapsInserted += 2 * hops;
        ++result.twoQuditOps;
    }

    // Recount two-qudit ops over the final circuit (SWAP ladders included).
    result.twoQuditOps = 0;
    for (const auto& op : result.circuit.operations()) {
        if (op.numControls() > 0) {
            ++result.twoQuditOps;
        }
    }
    return result;
}

double estimateCircuitFidelity(const Circuit& circuit, const NoiseModel& noise) {
    double fidelity = 1.0;
    for (const auto& op : circuit.operations()) {
        const std::size_t k = op.numControls();
        if (k == 0) {
            fidelity *= 1.0 - noise.singleQuditError;
        } else {
            fidelity *= std::pow(1.0 - noise.twoQuditError, static_cast<double>(k));
        }
    }
    return fidelity;
}

} // namespace mqsp
