#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace mqsp {
namespace {

TEST(DDTransform, CutLeafEdgeRemovesAmplitude) {
    Rng rng;
    const StateVector state = states::random({2, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // Cut |0 0>: the leaf edge 0 of the root's child 0.
    const DDNode& root = dd.node(dd.rootNode());
    const NodeRef child = root.edges[0].node;
    dd.cutEdge(child, 0);
    dd.renormalize();
    EXPECT_NEAR(std::abs(dd.amplitudeOf({0, 0})), 0.0, 1e-12);
    // Remaining amplitudes keep their relative values.
    const Complex a01 = dd.amplitudeOf({0, 1});
    const Complex a11 = dd.amplitudeOf({1, 1});
    const Complex ratioBefore = state.at({0, 1}) / state.at({1, 1});
    EXPECT_NEAR(std::abs(a01 / a11 - ratioBefore), 0.0, 1e-10);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, RenormalizeTracksRemovedMassInRootWeight) {
    // Equal four-amplitude state: cutting one amplitude leaves norm sqrt(3/4).
    const StateVector state = states::uniform({2, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const NodeRef child = dd.node(dd.rootNode()).edges[0].node;
    dd.cutEdge(child, 0);
    dd.renormalize();
    EXPECT_NEAR(std::abs(dd.rootWeight()), std::sqrt(0.75), 1e-12);
    dd.normalizeRoot();
    EXPECT_NEAR(std::abs(dd.rootWeight()), 1.0, 1e-12);
    EXPECT_NEAR(dd.normSquared(), 1.0, 1e-10);
}

TEST(DDTransform, CuttingWholeNodeDropsSubtree) {
    const StateVector state = states::uniform({3, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    dd.cutEdge(dd.rootNode(), 2);
    dd.renormalize();
    EXPECT_NEAR(std::abs(dd.amplitudeOf({2, 0})), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(dd.amplitudeOf({2, 1})), 0.0, 1e-12);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, NodesDyingFromCutsAreDropped) {
    const StateVector state = states::uniform({2, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    // Cut both leaf edges of the root's child 0: the child dies and the
    // root's edge 0 must become a stub after renormalization.
    const NodeRef child = dd.node(dd.rootNode()).edges[0].node;
    dd.cutEdge(child, 0);
    dd.cutEdge(child, 1);
    dd.renormalize();
    EXPECT_TRUE(dd.node(dd.rootNode()).edges[0].isZeroStub());
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, CuttingEverythingYieldsEmptyDiagram) {
    const StateVector state = StateVector::basis({2, 2}, {0, 0});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const NodeRef child = dd.node(dd.rootNode()).edges[0].node;
    dd.cutEdge(child, 0);
    dd.renormalize();
    EXPECT_EQ(dd.rootNode(), kNoNode);
    EXPECT_NEAR(dd.normSquared(), 0.0, 1e-12);
}

TEST(DDTransform, ReduceMergesIdenticalSubtrees) {
    // Uniform product state: every node at one level is identical.
    const StateVector state = states::uniform({3, 4, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const auto before = dd.nodeCount(NodeCountMode::Internal);
    EXPECT_EQ(before, 1U + 3U + 12U);
    const std::size_t merged = dd.reduce();
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 3U);
    EXPECT_EQ(merged, before - 3U);
    // Reduction must preserve semantics exactly.
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, ReducePreservesRandomStates) {
    Rng rng(23);
    const StateVector state = states::random({3, 6, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    dd.reduce();
    // A continuous random state has no identical sub-trees; nothing merges,
    // and the amplitudes stay exact either way.
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), 22U);
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
}

TEST(DDTransform, ReduceIsIdempotent) {
    const StateVector state = states::ghz({3, 6, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    dd.reduce();
    const auto afterFirst = dd.nodeCount(NodeCountMode::Internal);
    EXPECT_EQ(dd.reduce(), 0U);
    EXPECT_EQ(dd.nodeCount(NodeCountMode::Internal), afterFirst);
}

TEST(DDTransform, ReduceRebuildsOntoACompactSession) {
    const StateVector state = states::uniform({3, 4, 2});
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_FALSE(dd.sessionBacked());
    dd.reduce();
    // The reduced diagram is interned on its own fresh session: immutable,
    // and its pool holds exactly the reachable nodes.
    EXPECT_TRUE(dd.sessionBacked());
    EXPECT_EQ(dd.poolSize(), dd.nodeCount(NodeCountMode::Internal) + 1U); // + the terminal
    EXPECT_THROW(dd.cutEdge(dd.rootNode(), 0), InvalidArgumentError);
    EXPECT_NEAR(dd.fidelityWith(state), 1.0, 1e-10);
    EXPECT_EQ(dd.checkInvariants(), "");
}

TEST(DDTransform, ReduceNumbersNodesInPostOrder) {
    // Post-order numbering: every child precedes its parent, so the root
    // is the last node of the compact pool. A serialize round trip keeps
    // the same numbering.
    Rng rng(5);
    const StateVector state = states::random({3, 2, 2}, rng);
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    dd.reduce();
    EXPECT_EQ(dd.rootNode() + 1U, dd.poolSize());
    for (NodeRef ref = 1; ref < dd.poolSize(); ++ref) {
        for (const DDEdge& edge : dd.node(ref).edges) {
            EXPECT_TRUE(edge.isZeroStub() || edge.node < ref);
        }
    }
    std::stringstream stream;
    dd.serialize(stream);
    const DecisionDiagram parsed = DecisionDiagram::deserialize(stream);
    EXPECT_EQ(parsed.rootNode(), dd.rootNode());
    EXPECT_EQ(parsed.poolSize(), dd.poolSize());
}

TEST(DDTransform, ReduceOnEmptyDiagram) {
    const StateVector state({2, 2}, std::vector<Complex>(4, Complex{0.0, 0.0}));
    DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    EXPECT_EQ(dd.reduce(), 0U);
    EXPECT_EQ(dd.rootNode(), kNoNode);
}

TEST(DDTransform, DotExportMentionsAllLevels) {
    const StateVector state = states::ghz({3, 2});
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
    const std::string dot = dd.toDot();
    EXPECT_NE(dot.find("digraph DD"), std::string::npos);
    EXPECT_NE(dot.find("q1"), std::string::npos);
    EXPECT_NE(dot.find("q0"), std::string::npos);
    EXPECT_NE(dot.find("root"), std::string::npos);
}

} // namespace
} // namespace mqsp
