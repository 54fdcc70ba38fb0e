// Fuzzing the decision-diagram transform surface: random sequences of
// cuts, renormalizations and reductions must keep the structural invariants
// intact and the represented state consistent with a shadow dense vector
// maintained alongside. A reduced diagram is session-backed and immutable,
// so reductions are checked on a copy while the mutable tree keeps going.

#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mqsp {
namespace {

class DDTransformFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DDTransformFuzz, RandomTransformSequencesKeepInvariants) {
    Rng rng(GetParam());
    const Dimensions dims{3, 4, 2};
    StateVector shadow = states::random(dims, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(shadow);

    for (int step = 0; step < 30; ++step) {
        const auto action = rng.uniformIndex(4);
        if (action == 0) {
            // Cut a random edge of a random reachable internal node and
            // zero the corresponding block of the shadow vector.
            if (dd.rootNode() == kNoNode) {
                continue;
            }
            // Walk a random path to pick a node.
            NodeRef current = dd.rootNode();
            std::vector<NodeRef> pathNodes{current};
            while (true) {
                const DDNode& n = dd.node(current);
                if (n.isTerminal()) {
                    break;
                }
                std::vector<std::size_t> nonZero;
                for (std::size_t k = 0; k < n.edges.size(); ++k) {
                    if (!n.edges[k].isZeroStub()) {
                        nonZero.push_back(k);
                    }
                }
                if (nonZero.empty()) {
                    break;
                }
                current = n.edges[nonZero[rng.uniformIndex(nonZero.size())]].node;
                if (!dd.node(current).isTerminal()) {
                    pathNodes.push_back(current);
                }
            }
            const NodeRef victim = pathNodes[rng.uniformIndex(pathNodes.size())];
            const DDNode& node = dd.node(victim);
            const auto edgeIndex = rng.uniformIndex(node.edges.size());
            // Zero the shadow block: all basis states whose digits route
            // through (victim, edgeIndex). Recompute the shadow from the
            // diagram instead — cutting is easier to mirror that way.
            dd.cutEdge(victim, edgeIndex);
            dd.renormalize();
            if (dd.rootNode() == kNoNode) {
                break; // everything pruned; done with this round
            }
            dd.normalizeRoot();
            shadow = dd.toStateVector();
            if (shadow.norm() > 0.0) {
                shadow.normalize();
            }
        } else if (action == 1) {
            dd.renormalize();
        } else if (action == 2) {
            DecisionDiagram reduced = dd;
            (void)reduced.reduce();
            EXPECT_EQ(reduced.checkInvariants(), "") << "seed " << GetParam() << " step " << step;
            EXPECT_TRUE(reduced.rootNode() == kNoNode || reduced.sessionBacked());
            EXPECT_LE(reduced.nodeCount(NodeCountMode::Internal),
                      dd.nodeCount(NodeCountMode::Internal));
            if (reduced.rootNode() != kNoNode && shadow.norm() > 0.0) {
                EXPECT_NEAR(reduced.fidelityWith(shadow), 1.0, 1e-7)
                    << "seed " << GetParam() << " step " << step;
            }
        } else {
            if (dd.rootNode() != kNoNode) {
                dd.normalizeRoot();
            }
        }
        // Invariants after every step.
        EXPECT_EQ(dd.checkInvariants(), "") << "seed " << GetParam() << " step " << step;
        if (dd.rootNode() != kNoNode && shadow.norm() > 0.0) {
            EXPECT_NEAR(dd.fidelityWith(shadow), 1.0, 1e-7)
                << "seed " << GetParam() << " step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDTransformFuzz,
                         ::testing::Values(101U, 102U, 103U, 104U, 105U, 106U, 107U,
                                           108U, 109U, 110U));

} // namespace
} // namespace mqsp
