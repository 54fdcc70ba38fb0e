#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mqsp {

namespace {

/// A weighted reference to a sub-tree; the building block of DD addition.
struct WeightedEdge {
    NodeRef node = kNoNode;
    Complex weight{0.0, 0.0};

    [[nodiscard]] bool isZero(double tol) const {
        return node == kNoNode || approxZero(weight, tol);
    }
};

} // namespace

DecisionDiagram DecisionDiagram::zeroState(const Dimensions& dims) {
    // Built natively as a weight-1 chain (structured.cpp), NOT via a dense
    // round trip: this is the starting point of DD simulation, which must
    // work on registers whose total dimension exceeds memory.
    return basisState(dims, Digits(MixedRadix(dims).numQudits(), 0));
}

void DecisionDiagram::applyOperation(const Operation& op, double tol) {
    requireThat(op.target < radix_.numQudits(), "applyOperation: target out of range");
    for (const auto& ctrl : op.controls) {
        requireThat(ctrl.qudit < radix_.numQudits(),
                    "applyOperation: control out of range");
        requireThat(ctrl.qudit < op.target,
                    "applyOperation: controls must be more significant than the target "
                    "(true for all synthesized preparation circuits)");
        requireThat(ctrl.level < radix_.dimensionAt(ctrl.qudit),
                    "applyOperation: control level out of range");
    }
    if (root_ == kNoNode) {
        return; // the zero vector is fixed by every linear map
    }

    const Dimension targetDim = radix_.dimensionAt(op.target);
    const DenseMatrix local = op.localMatrix(targetDim);

    // Session compute cache: addition results keyed on the *canonical* call
    // (x's weight factored out). Entries persist across
    // gates and diagrams of the owning session — private diagrams carry no
    // cache and always recompute. Cached results embed the tolerance they
    // were pruned at, so a call at a tolerance other than the session's
    // bypasses the cache instead of consuming entries computed under a
    // different pruning regime.
    dd::ComputeCache* cache = (store_ != nullptr && store_->interning() &&
                               tol == store_->tolerance())
                                  ? &store_->computeCache()
                                  : nullptr;

    // Normalized addition of weighted sub-trees (the classic DD add). The
    // result edge's weight carries the norm; the node below is normalized.
    // The recursion is evaluated in the canonical frame (in-weights (1,
    // y/x)): addition is linear, so the absolute result is the canonical
    // result scaled by x.weight — which makes one cache entry serve every
    // scaled recurrence of the same structural addition.
    const std::function<WeightedEdge(WeightedEdge, WeightedEdge)> add =
        [&](WeightedEdge x, WeightedEdge y) -> WeightedEdge {
        const bool xZero = x.isZero(tol);
        const bool yZero = y.isZero(tol);
        if (xZero && yZero) {
            return {};
        }
        if (xZero) {
            return y;
        }
        if (yZero) {
            return x;
        }
        if (node(x.node).isTerminal()) {
            ensureThat(node(y.node).isTerminal(),
                       "applyOperation: level mismatch in addition");
            const Complex sum = x.weight + y.weight;
            if (approxZero(sum, tol)) {
                return {};
            }
            return {/*terminal=*/0, sum};
        }
        ensureThat(node(x.node).site == node(y.node).site,
                   "applyOperation: site mismatch in addition");
        // No operand reordering: addition commutes mathematically, but
        // NodeRef order is allocation order — scheduling-dependent in a
        // concurrent session — and swapping changes the floating-point
        // evaluation order, which would break bit-identical results across
        // thread counts. The cache simply keys (x, y) as called.
        const Complex scale = x.weight;
        const Complex ratio = y.weight / scale;
        if (cache != nullptr) {
            if (const auto hit =
                    cache->lookup(dd::ComputeCache::Op::Add, x.node, y.node, ratio)) {
                if (hit->node == kNoNode) {
                    return {};
                }
                return {hit->node, scale * hit->value};
            }
        }
        // Node addresses are stable (chunked pool), so holding references
        // across the allocating recursion below would be safe; per-edge
        // re-fetches through the NodeRefs are kept for uniformity.
        const std::uint32_t site = node(x.node).site;
        const std::size_t arity = node(x.node).edges.size();
        std::vector<DDEdge> edges(arity);
        double sumSquares = 0.0;
        bool any = false;
        for (std::size_t k = 0; k < arity; ++k) {
            const DDEdge ex = node(x.node).edges[k];
            const DDEdge ey = node(y.node).edges[k];
            const WeightedEdge xk{ex.node, ex.weight};
            const WeightedEdge yk{ey.node, ratio * ey.weight};
            const WeightedEdge sum = add(xk, yk);
            if (sum.isZero(tol)) {
                edges[k] = DDEdge{};
                continue;
            }
            edges[k] = DDEdge{sum.node, sum.weight};
            sumSquares += squaredMagnitude(sum.weight);
            any = true;
        }
        if (!any) {
            if (cache != nullptr) {
                cache->store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                             dd::ComputeCache::Result{});
            }
            return {};
        }
        const double norm = std::sqrt(sumSquares);
        for (auto& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.weight /= norm;
            }
        }
        const NodeRef ref = allocate(site, std::move(edges));
        const Complex relativeWeight{norm, 0.0};
        if (cache != nullptr) {
            cache->store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                         dd::ComputeCache::Result{ref, relativeWeight});
        }
        return {ref, scale * relativeWeight};
    };

    // Rebuild the diagram along affected paths (copy-on-write: shared nodes
    // on unaffected paths are reused). Returns the replacement edge for a
    // sub-tree rooted at `ref` whose in-edge weight was `weight`. The
    // rebuild of a sub-tree is independent of the path that reached it (the
    // in-weight only scales the returned edge linearly), so results are
    // memoized per node for in-weight 1 — on a reduced (shared) diagram a
    // node is rebuilt once, not once per root-to-node path, which keeps
    // gate application polynomial on DAG-shaped states like the uniform
    // superposition.
    std::unordered_map<NodeRef, WeightedEdge> visitMemo;
    const std::function<WeightedEdge(NodeRef, Complex)> visit =
        [&](NodeRef ref, Complex weight) -> WeightedEdge {
        if (const auto it = visitMemo.find(ref); it != visitMemo.end()) {
            const WeightedEdge& base = it->second;
            if (base.node == kNoNode) {
                return {};
            }
            return {base.node, weight * base.weight};
        }
        ensureThat(!node(ref).isTerminal(),
                   "applyOperation: traversal reached the terminal");
        // Copy this node's shape up front (keeps the loops independent of
        // the allocating add()/visit() recursion below).
        const std::uint32_t site = node(ref).site;
        const std::vector<DDEdge> sourceEdges = node(ref).edges;

        if (site == op.target) {
            // Mix the out-edges by the local matrix:
            // new_edge_r = sum_c local(r, c) * edge_c.
            const std::size_t arity = sourceEdges.size();
            std::vector<DDEdge> edges(arity);
            double sumSquares = 0.0;
            bool any = false;
            for (std::size_t r = 0; r < arity; ++r) {
                WeightedEdge acc;
                for (std::size_t c = 0; c < arity; ++c) {
                    const Complex coefficient = local(r, c);
                    if (coefficient == Complex{0.0, 0.0} || sourceEdges[c].isZeroStub()) {
                        continue;
                    }
                    acc = add(acc, WeightedEdge{sourceEdges[c].node,
                                                coefficient * sourceEdges[c].weight});
                }
                if (acc.isZero(tol)) {
                    edges[r] = DDEdge{};
                    continue;
                }
                edges[r] = DDEdge{acc.node, acc.weight};
                sumSquares += squaredMagnitude(acc.weight);
                any = true;
            }
            if (!any) {
                visitMemo.emplace(ref, WeightedEdge{});
                return {};
            }
            const double norm = std::sqrt(sumSquares);
            for (auto& edge : edges) {
                if (!edge.isZeroStub()) {
                    edge.weight /= norm;
                }
            }
            const NodeRef newRef = allocate(site, std::move(edges));
            visitMemo.emplace(ref, WeightedEdge{newRef, Complex{norm, 0.0}});
            return {newRef, weight * norm};
        }

        // Above the target: check whether this site carries a control.
        const Control* control = nullptr;
        for (const auto& ctrl : op.controls) {
            if (ctrl.qudit == site) {
                control = &ctrl;
                break;
            }
        }
        std::vector<DDEdge> edges = sourceEdges;
        double sumSquares = 0.0;
        bool any = false;
        for (std::size_t k = 0; k < edges.size(); ++k) {
            if (edges[k].isZeroStub()) {
                continue;
            }
            if (control == nullptr || control->level == k) {
                const WeightedEdge replaced = visit(edges[k].node, edges[k].weight);
                if (replaced.isZero(tol)) {
                    edges[k] = DDEdge{};
                    continue;
                }
                edges[k] = DDEdge{replaced.node, replaced.weight};
            }
            sumSquares += squaredMagnitude(edges[k].weight);
            any = true;
        }
        if (!any) {
            visitMemo.emplace(ref, WeightedEdge{});
            return {};
        }
        const double norm = std::sqrt(sumSquares);
        for (auto& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.weight /= norm;
            }
        }
        const NodeRef newRef = allocate(site, std::move(edges));
        visitMemo.emplace(ref, WeightedEdge{newRef, Complex{norm, 0.0}});
        return {newRef, weight * norm};
    };

    const WeightedEdge newRoot = visit(root_, rootWeight_);
    if (newRoot.isZero(tol)) {
        cutRoot();
        return;
    }
    root_ = newRoot.node;
    rootWeight_ = newRoot.weight;
}

DecisionDiagram DecisionDiagram::simulateCircuit(const Circuit& circuit, double tol) {
    return dd::DdSession(tol).simulate(circuit);
}

DecisionDiagram DecisionDiagram::simulateCircuitOn(
    const std::shared_ptr<dd::DdNodeStore>& store, const Circuit& circuit) {
    const double tol = store->tolerance();
    DecisionDiagram dd =
        basisStateOn(store, circuit.dimensions(),
                     Digits(MixedRadix(circuit.dimensions()).numQudits(), 0));
    for (const auto& op : circuit.operations()) {
        // Interning keeps every allocation canonical, so no per-gate
        // reduction is needed, and intermediates stay in the session pool
        // for later gates (and later diagrams) to hit.
        dd.applyOperation(op, tol);
    }
    return dd;
}

} // namespace mqsp
