#pragma once

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/statevec/state_vector.hpp"

#include <cstdint>

namespace mqsp {

/// Dense state-vector simulator for mixed-dimensional qudit circuits.
///
/// This is the verification substrate of the repository: every synthesized
/// circuit is replayed here and its output compared against the target state
/// (Table 1's "Fidelity" column). A gate never materializes its operator and
/// walks only the amplitudes its controls select, in O(d_target * product of
/// the uncontrolled non-target dimensions): a synthesized rotation on site k,
/// controlled on the path above it, touches just its subtree's
/// d_k * prod_{j>k} d_j amplitudes — O(d) on the least significant qudit —
/// not the whole register.
class Simulator {
public:
    /// Apply a single (possibly multi-controlled) operation in place.
    /// The state's register must match the operation's targets.
    static void apply(StateVector& state, const Operation& op);

    /// Run the whole circuit on a caller-provided initial state, taken by
    /// value: pass a temporary (or std::move) to replay without a copy.
    [[nodiscard]] static StateVector run(const Circuit& circuit, StateVector state);

    /// Run the circuit on |0...0> — the state-preparation setting.
    [[nodiscard]] static StateVector runFromZero(const Circuit& circuit);

    /// Fidelity |<target|circuit(|0...0>)>|^2 — the verification metric.
    [[nodiscard]] static double preparationFidelity(const Circuit& circuit,
                                                    const StateVector& target);
};

} // namespace mqsp
