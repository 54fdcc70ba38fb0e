#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <cmath>
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

/// Per-thread memo of GateApplication::visit (source ref -> rebuilt edge
/// at in-weight 1); one pass per applied gate, and gate application never
/// nests on a thread.
thread_local dd::detail::NodeMemo<WeightedEdge> tlsVisitMemo;

/// One gate applied to one diagram. Nodes are read in place while the
/// recursion allocates: the chunked pool never moves a node and never
/// rewrites one that exists.
class GateApplication {
public:
    GateApplication(dd::DdNodeStore& store, const Operation& op, const DenseMatrix& local,
                    double tol)
        : store_(store),
          op_(op),
          local_(local),
          tol_(tol),
          // Session compute cache: addition results keyed on the
          // *canonical* call (x's weight factored out). Entries persist
          // across gates and diagrams of the owning session — private
          // diagrams carry no cache and always recompute. Cached results
          // embed the tolerance they were pruned at, so a call at a
          // tolerance other than the session's bypasses the cache instead
          // of consuming entries computed under a different pruning regime.
          cache_(store.interning() && tol == store.tolerance() ? &store.computeCache()
                                                                 : nullptr),
          memo_(tlsVisitMemo) {
        memo_.beginPass(store.size());
    }

    /// Normalized addition of weighted sub-trees (the classic DD add). The
    /// result edge's weight carries the norm; the node below is
    /// normalized. The recursion is evaluated in the canonical frame
    /// (in-weights (1, y/x)): addition is linear, so the absolute result
    /// is the canonical result scaled by x.weight — which makes one cache
    /// entry serve every scaled recurrence of the same structural addition.
    WeightedEdge add(const WeightedEdge& x, const WeightedEdge& y) {
        const bool xZero = x.isZero(tol_);
        const bool yZero = y.isZero(tol_);
        if (xZero && yZero) {
            return {};
        }
        if (xZero) {
            return y;
        }
        if (yZero) {
            return x;
        }
        const DDNode& nx = store_.node(x.node);
        const DDNode& ny = store_.node(y.node);
        if (nx.isTerminal()) {
            ensureThat(ny.isTerminal(), "applyOperation: level mismatch in addition");
            const Complex sum = x.weight + y.weight;
            if (approxZero(sum, tol_)) {
                return {};
            }
            return {/*terminal=*/0, sum};
        }
        ensureThat(nx.site == ny.site, "applyOperation: site mismatch in addition");
        // No operand reordering: addition commutes mathematically, but
        // NodeRef order is allocation order, and swapping changes the
        // floating-point evaluation order, which would break bit-identical
        // results. The cache simply keys (x, y) as called.
        const Complex scale = x.weight;
        const Complex ratio = y.weight / scale;
        if (cache_ != nullptr) {
            if (const auto hit =
                    cache_->lookup(dd::ComputeCache::Op::Add, x.node, y.node, ratio)) {
                if (hit->node == kNoNode) {
                    return {};
                }
                return {hit->node, scale * hit->value};
            }
        }
        const std::size_t arity = nx.edges.size();
        std::vector<DDEdge> edges(arity);
        double sumSquares = 0.0;
        bool any = false;
        for (std::size_t k = 0; k < arity; ++k) {
            const DDEdge& ex = nx.edges[k];
            const DDEdge& ey = ny.edges[k];
            const WeightedEdge sum =
                add(WeightedEdge{ex.node, ex.weight}, WeightedEdge{ey.node, ratio * ey.weight});
            if (sum.isZero(tol_)) {
                edges[k] = DDEdge{};
                continue;
            }
            edges[k] = DDEdge{sum.node, sum.weight};
            sumSquares += squaredMagnitude(sum.weight);
            any = true;
        }
        if (!any) {
            if (cache_ != nullptr) {
                cache_->store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                              dd::ComputeCache::Result{});
            }
            return {};
        }
        const Complex relativeWeight{normalize(edges, sumSquares), 0.0};
        const NodeRef ref = store_.allocate(nx.site, std::move(edges));
        if (cache_ != nullptr) {
            cache_->store(dd::ComputeCache::Op::Add, x.node, y.node, ratio,
                          dd::ComputeCache::Result{ref, relativeWeight});
        }
        return {ref, scale * relativeWeight};
    }

    /// Rebuild the diagram along affected paths (copy-on-write: shared
    /// nodes on unaffected paths are reused). Returns the replacement edge
    /// for a sub-tree rooted at `ref` whose in-edge weight was `weight`.
    /// The rebuild of a sub-tree is independent of the path that reached
    /// it (the in-weight only scales the returned edge linearly), so
    /// results are memoized per node for in-weight 1 — on a reduced
    /// (shared) diagram a node is rebuilt once, not once per root-to-node
    /// path, which keeps gate application polynomial on DAG-shaped states
    /// like the uniform superposition.
    WeightedEdge visit(NodeRef ref, const Complex& weight) {
        if (const WeightedEdge* base = memo_.find(ref)) {
            if (base->node == kNoNode) {
                return {};
            }
            return {base->node, weight * base->weight};
        }
        const DDNode& source = store_.node(ref);
        ensureThat(!source.isTerminal(), "applyOperation: traversal reached the terminal");
        const std::vector<DDEdge>& sourceEdges = source.edges;
        const std::size_t arity = sourceEdges.size();

        std::vector<DDEdge> edges;
        double sumSquares = 0.0;
        bool any = false;
        if (source.site == op_.target) {
            // Mix the out-edges by the local matrix:
            // new_edge_r = sum_c local(r, c) * edge_c.
            edges.resize(arity);
            for (std::size_t r = 0; r < arity; ++r) {
                WeightedEdge acc;
                for (std::size_t c = 0; c < arity; ++c) {
                    const Complex coefficient = local_(r, c);
                    if (coefficient == Complex{0.0, 0.0} || sourceEdges[c].isZeroStub()) {
                        continue;
                    }
                    acc = add(acc, WeightedEdge{sourceEdges[c].node,
                                                coefficient * sourceEdges[c].weight});
                }
                if (acc.isZero(tol_)) {
                    continue;
                }
                edges[r] = DDEdge{acc.node, acc.weight};
                sumSquares += squaredMagnitude(acc.weight);
                any = true;
            }
        } else {
            // Above the target: check whether this site carries a control.
            const Control* control = nullptr;
            for (const auto& ctrl : op_.controls) {
                if (ctrl.qudit == source.site) {
                    control = &ctrl;
                    break;
                }
            }
            edges = sourceEdges;
            for (std::size_t k = 0; k < arity; ++k) {
                if (edges[k].isZeroStub()) {
                    continue;
                }
                if (control == nullptr || control->level == k) {
                    const WeightedEdge replaced = visit(sourceEdges[k].node, sourceEdges[k].weight);
                    if (replaced.isZero(tol_)) {
                        edges[k] = DDEdge{};
                        continue;
                    }
                    edges[k] = DDEdge{replaced.node, replaced.weight};
                }
                sumSquares += squaredMagnitude(edges[k].weight);
                any = true;
            }
        }
        if (!any) {
            memo_.insert(ref, WeightedEdge{});
            return {};
        }
        const double norm = normalize(edges, sumSquares);
        const NodeRef newRef = store_.allocate(source.site, std::move(edges));
        memo_.insert(ref, WeightedEdge{newRef, Complex{norm, 0.0}});
        return {newRef, weight * norm};
    }

private:
    /// Divide the non-stub weights by sqrt(sumSquares); returns that norm.
    static double normalize(std::vector<DDEdge>& edges, double sumSquares) {
        const double norm = std::sqrt(sumSquares);
        for (auto& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.weight /= norm;
            }
        }
        return norm;
    }

    dd::DdNodeStore& store_;
    const Operation& op_;
    const DenseMatrix& local_;
    double tol_;
    dd::ComputeCache* cache_;
    dd::detail::NodeMemo<WeightedEdge>& memo_;
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

    const DenseMatrix local = op.localMatrix(radix_.dimensionAt(op.target));
    GateApplication gate(*store_, op, local, tol);
    const WeightedEdge newRoot = gate.visit(root_, rootWeight_);
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
