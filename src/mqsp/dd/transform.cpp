#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
#include <functional>
#include <unordered_map>
#include <vector>

namespace mqsp {

void DecisionDiagram::cutEdge(NodeRef parent, std::size_t edgeIndex) {
    DDNode& n = mutableNode(parent);
    requireThat(!n.isTerminal(), "DecisionDiagram::cutEdge: cannot cut terminal edges");
    requireThat(edgeIndex < n.edges.size(), "DecisionDiagram::cutEdge: edge index out of range");
    n.edges[edgeIndex] = DDEdge{kNoNode, Complex{0.0, 0.0}, /*pruned=*/true};
}

void DecisionDiagram::cutRoot() {
    root_ = kNoNode;
    rootWeight_ = Complex{0.0, 0.0};
}

void DecisionDiagram::renormalize(double tol) {
    if (root_ == kNoNode) {
        return;
    }
    // Post-order renormalization: after cuts the out-weights of a node no
    // longer sum to one, so the residual norm is pushed upward exactly like
    // during construction. `visit` returns the factor to multiply into
    // in-edge weights of a node, or a negative value when the node died
    // (all children cut). Memoized so shared (reduced) nodes renormalize once.
    std::unordered_map<NodeRef, double> factor;
    const std::function<double(NodeRef)> visit = [&](NodeRef ref) -> double {
        if (node(ref).isTerminal()) {
            return 1.0;
        }
        if (const auto it = factor.find(ref); it != factor.end()) {
            return it->second;
        }
        auto& n = mutableNode(ref);
        double sumSquares = 0.0;
        bool any = false;
        for (auto& edge : n.edges) {
            if (edge.isZeroStub()) {
                continue;
            }
            const double childFactor = visit(edge.node);
            if (childFactor < 0.0 || approxZero(edge.weight * childFactor, tol)) {
                // The child died because pruning emptied it; mark the slot
                // as pruned so the approximated node count drops with it.
                edge = DDEdge{kNoNode, Complex{0.0, 0.0}, /*pruned=*/true};
                continue;
            }
            edge.weight *= childFactor;
            sumSquares += squaredMagnitude(edge.weight);
            any = true;
        }
        double result = -1.0;
        if (any) {
            const double norm = std::sqrt(sumSquares);
            for (auto& edge : n.edges) {
                if (!edge.isZeroStub()) {
                    edge.weight /= norm;
                }
            }
            result = norm;
        }
        factor.emplace(ref, result);
        return result;
    };
    const double rootFactor = visit(root_);
    if (rootFactor < 0.0) {
        cutRoot();
        return;
    }
    rootWeight_ *= rootFactor;
}

void DecisionDiagram::normalizeRoot() {
    if (root_ == kNoNode) {
        return;
    }
    const double magnitude = std::abs(rootWeight_);
    requireThat(magnitude > 0.0, "DecisionDiagram::normalizeRoot: zero root weight");
    rootWeight_ /= magnitude;
}

std::size_t DecisionDiagram::reduce(double tol) {
    if (root_ == kNoNode || sessionBacked()) {
        // Session-backed diagrams are hash-consed at allocation time: every
        // node is already canonical.
        return 0;
    }
    // The reduction rule is hash-consing, and interning is the one place
    // that does it: rebuild the tree bottom-up through a fresh session.
    // Because weights were normalized by a fixed scheme during construction
    // (§4.2: "normalized by a fixed scheme to ensure canonicity"),
    // structurally identical sub-trees have identical weights and merge
    // exactly; the tolerance only absorbs rounding. The rebuild allocates
    // in post-order and keeps the first-seen twin, so the result holds
    // exactly the reachable nodes, numbered in depth-first post-order.
    const std::size_t reachableBefore = nodeCount(NodeCountMode::Internal);
    *this = dd::DdSession(tol).intern(*this);
    return reachableBefore - nodeCount(NodeCountMode::Internal);
}

} // namespace mqsp
