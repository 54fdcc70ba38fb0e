#include "mqsp/opt/optimizer.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace mqsp {

namespace {

/// True when `site` is the target or a control of `op`.
bool touches(const Operation& op, std::size_t site) {
    return op.target == site ||
           std::any_of(op.controls.begin(), op.controls.end(),
                       [site](const Control& ctrl) { return ctrl.qudit == site; });
}

/// True when the two operations share no site (target or control). Both
/// control lists must be sorted by qudit, as optimizeCircuit keeps them.
bool disjointSites(const Operation& a, const Operation& b) {
    if (touches(b, a.target) || touches(a, b.target)) {
        return false;
    }
    auto ia = a.controls.begin();
    auto ib = b.controls.begin();
    while (ia != a.controls.end() && ib != b.controls.end()) {
        if (ia->qudit == ib->qudit) {
            return false;
        }
        if (ia->qudit < ib->qudit) {
            ++ia;
        } else {
            ++ib;
        }
    }
    return true;
}

/// Same rotation axis: merging candidates must agree in everything except
/// the angle. Controls are compared as sorted sets (their order is not
/// semantic).
bool sameAxis(const Operation& a, const Operation& b, double tol) {
    if (a.kind != b.kind || a.target != b.target) {
        return false;
    }
    if (a.kind != GateKind::GivensRotation && a.kind != GateKind::PhaseRotation) {
        return false;
    }
    if (a.levelA != b.levelA || a.levelB != b.levelB) {
        return false;
    }
    if (a.kind == GateKind::GivensRotation && std::abs(a.phi - b.phi) > tol) {
        return false;
    }
    return a.controls == b.controls;
}

/// Identical payload (kind, target, levels, angles, shift) — everything but
/// the controls.
bool samePayload(const Operation& a, const Operation& b, double tol) {
    if (a.kind != b.kind || a.target != b.target) {
        return false;
    }
    switch (a.kind) {
    case GateKind::GivensRotation:
        return a.levelA == b.levelA && a.levelB == b.levelB &&
               std::abs(a.theta - b.theta) <= tol && std::abs(a.phi - b.phi) <= tol;
    case GateKind::PhaseRotation:
        return a.levelA == b.levelA && a.levelB == b.levelB &&
               std::abs(a.theta - b.theta) <= tol;
    case GateKind::Hadamard:
        return true;
    case GateKind::Shift:
        return a.shiftAmount == b.shiftAmount;
    case GateKind::LevelSwap:
        return a.levelA == b.levelA && a.levelB == b.levelB;
    }
    detail::throwInternal("samePayload: unknown gate kind");
}

/// The op list of one optimizer run plus its removal marks. A pass marks
/// the ops it merges away and compacts once at its end, so a pass is one
/// sweep however many ops it removes.
struct OpList {
    std::vector<Operation> ops;
    std::vector<char> removed; ///< per op; all false between passes

    /// Drop the marked ops in one sweep; returns how many were dropped.
    std::size_t compact() {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (removed[i] == 0) {
                if (kept != i) {
                    ops[kept] = std::move(ops[i]);
                }
                ++kept;
            }
            removed[i] = 0;
        }
        const std::size_t dropped = ops.size() - kept;
        ops.resize(kept);
        removed.resize(kept);
        return dropped;
    }
};

/// One pass of neighbouring-rotation merging over the op list. Returns the
/// number of merges performed.
std::size_t mergeRotationsPass(OpList& list, double tol) {
    auto& ops = list.ops;
    auto& removed = list.removed;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Operation& current = ops[i];
        if (removed[i] != 0 || (current.kind != GateKind::GivensRotation &&
                                current.kind != GateKind::PhaseRotation)) {
            continue;
        }
        for (std::size_t j = i + 1; j < ops.size(); ++j) {
            if (removed[j] != 0) {
                continue;
            }
            if (sameAxis(current, ops[j], tol)) {
                current.theta += ops[j].theta;
                removed[j] = 1;
                continue; // the window keeps extending past the merged slot
            }
            if (!disjointSites(current, ops[j])) {
                break;
            }
        }
    }
    return list.compact();
}

std::size_t dropIdentitiesPass(OpList& list, double tol) {
    const std::size_t before = list.ops.size();
    std::erase_if(list.ops, [tol](const Operation& op) { return op.isIdentity(tol); });
    list.removed.resize(list.ops.size());
    return before - list.ops.size();
}

/// Reverse multiplexing: ops identical up to the level of one shared control
/// and jointly covering all of that control's levels collapse into one
/// uncontrolled (on that qudit) op.
std::size_t mergeControlFansPass(OpList& list, const MixedRadix& radix, double tol) {
    auto& ops = list.ops;
    auto& removed = list.removed;
    // Scratch reused across seeds: which levels of the fan qudit are
    // covered (sized for the widest qudit), and the partner indices.
    Dimension widest = 0;
    for (const Dimension dim : radix.dimensions()) {
        widest = std::max(widest, dim);
    }
    std::vector<char> covered(widest, 0);
    std::vector<std::size_t> partners;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation& seed = ops[i];
        if (removed[i] != 0 || seed.controls.empty()) {
            continue;
        }
        for (std::size_t ctrlIndex = 0; ctrlIndex < seed.controls.size(); ++ctrlIndex) {
            const std::size_t fanQudit = seed.controls[ctrlIndex].qudit;
            const Dimension fanDim = radix.dimensionAt(fanQudit);

            // A candidate matches seed in payload and in all other controls.
            const auto isCandidate = [&](const Operation& other,
                                         Level& levelOut) -> bool {
                if (!samePayload(seed, other, tol) ||
                    other.controls.size() != seed.controls.size()) {
                    return false;
                }
                std::optional<Level> level;
                for (std::size_t c = 0; c < seed.controls.size(); ++c) {
                    if (c == ctrlIndex) {
                        if (other.controls[c].qudit != fanQudit) {
                            return false;
                        }
                        level = other.controls[c].level;
                    } else if (other.controls[c] != seed.controls[c]) {
                        return false;
                    }
                }
                levelOut = level.value();
                return true;
            };

            const Level seedLevel = seed.controls[ctrlIndex].level;
            covered[seedLevel] = 1;
            std::size_t numCovered = 1;
            partners.clear();
            for (std::size_t j = i + 1; j < ops.size(); ++j) {
                if (removed[j] != 0) {
                    continue;
                }
                Level level = 0;
                if (isCandidate(ops[j], level)) {
                    if (covered[level] == 0) {
                        covered[level] = 1;
                        ++numCovered;
                        partners.push_back(j);
                        if (numCovered == fanDim) {
                            break;
                        }
                    }
                    continue; // duplicate level: leave it for a later round
                }
                if (!disjointSites(seed, ops[j])) {
                    break;
                }
            }
            covered[seedLevel] = 0;
            for (const std::size_t j : partners) {
                covered[ops[j].controls[ctrlIndex].level] = 0;
            }
            if (numCovered != fanDim) {
                continue;
            }
            // Collapse: remove the fan control from the seed, drop partners.
            ops[i].controls.erase(ops[i].controls.begin() +
                                  static_cast<std::ptrdiff_t>(ctrlIndex));
            for (const std::size_t j : partners) {
                removed[j] = 1;
            }
            break; // seed changed; restart its control scan on a later round
        }
    }
    return list.compact();
}

} // namespace

OptimizerReport optimizeCircuit(Circuit& circuit, const OptimizerOptions& options) {
    OptimizerReport report;
    report.opsBefore = circuit.numOperations();

    OpList list{circuit.takeOperations(), {}};
    list.removed.assign(list.ops.size(), 0);
    // Control order is not semantic; canonicalize so comparisons work.
    for (auto& op : list.ops) {
        std::sort(op.controls.begin(), op.controls.end());
    }

    const MixedRadix& radix = circuit.radix();
    for (report.rounds = 0; report.rounds < options.maxRounds; ++report.rounds) {
        std::size_t changes = 0;
        if (options.mergeRotations) {
            const std::size_t merged = mergeRotationsPass(list, options.tolerance);
            report.mergedRotations += merged;
            changes += merged;
        }
        if (options.mergeFullControlFans) {
            const std::size_t merged = mergeControlFansPass(list, radix, options.tolerance);
            report.mergedControlFans += merged;
            changes += merged;
        }
        if (options.dropIdentities) {
            const std::size_t dropped = dropIdentitiesPass(list, options.tolerance);
            report.droppedIdentities += dropped;
            changes += dropped;
        }
        if (changes == 0) {
            break;
        }
    }

    circuit.assignOperations(std::move(list.ops));
    report.opsAfter = circuit.numOperations();
    return report;
}

} // namespace mqsp
