// Allocation guard: the success path of a check, a node access, a register
// lookup and an operation validation must not touch the heap, and QASM text
// must cost no allocation per operation. This suite is its own executable:
// the counting global operator new below replaces the allocator for this
// binary only. Counts are deterministic, so the guard needs no timing.

#include "mqsp/circuit/qasm.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

namespace {

/// Allocations made by the calling thread.
thread_local std::size_t tAllocations = 0;

void* countedAllocation(std::size_t size) {
    ++tAllocations;
    if (void* block = std::malloc(size == 0 ? 1 : size)) {
        return block;
    }
    throw std::bad_alloc();
}

void* countedAlignedAllocation(std::size_t size, std::align_val_t align) {
    ++tAllocations;
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (void* block = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
        return block;
    }
    throw std::bad_alloc();
}

} // namespace

// The array and nothrow forms forward to these by default.
void* operator new(std::size_t size) { return countedAllocation(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return countedAlignedAllocation(size, align);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete(void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }

namespace mqsp {
namespace {

/// Allocations the calling thread makes while running `body`.
template <typename Body>
std::size_t allocationsIn(Body body) {
    const std::size_t before = tAllocations;
    body();
    return tAllocations - before;
}

/// Longer than any small-string buffer, so a std::string built from it
/// would allocate.
constexpr const char* kLongMessage =
    "a check message far longer than the small-string buffer of std::string";

TEST(AllocFree, CountingAllocatorSeesStringAllocations) {
    // The guard guards: building a long std::string is counted.
    EXPECT_GE(allocationsIn([] { const std::string text(kLongMessage); }), 1U);
}

TEST(AllocFree, PassingChecksDoNotAllocate) {
    volatile int runtime = 1; // keeps the conditions out of constant folding
    EXPECT_EQ(allocationsIn([&] {
                  for (int i = 0; i < 1000; ++i) {
                      requireThat(runtime + i > 0, kLongMessage);
                      ensureThat(runtime + i > 0,
                                 "an internal invariant with a long literal message attached");
                  }
              }),
              0U);
}

TEST(AllocFree, NodeAccessDoesNotAllocate) {
    const DecisionDiagram diagram =
        DecisionDiagram::fromStateVector(states::wState(Dimensions{3, 6, 2, 4}));
    const std::size_t nodes = diagram.poolSize();
    ASSERT_GT(nodes, 1U);
    dd::DdNodeStore store(dd::DdNodeStore::Mode::Private);
    std::size_t sites = 0;
    EXPECT_EQ(allocationsIn([&] {
                  for (NodeRef ref = 0; ref < nodes; ++ref) {
                      sites += diagram.node(ref).site;
                  }
                  for (int i = 0; i < 1000; ++i) {
                      sites += store.node(0).site;
                  }
              }),
              0U);
    EXPECT_GT(sites, 0U);
}

TEST(AllocFree, RegisterLookupsDoNotAllocate) {
    const MixedRadix radix(Dimensions{3, 6, 2, 4, 5});
    std::uint64_t sum = 0;
    EXPECT_EQ(allocationsIn([&] {
                  for (std::uint64_t index = 0; index < radix.totalDimension(); ++index) {
                      for (std::size_t site = 0; site < radix.numQudits(); ++site) {
                          sum += radix.dimensionAt(site) + radix.digitAt(index, site);
                      }
                  }
              }),
              0U);
    EXPECT_GT(sum, 0U);
}

TEST(AllocFree, ValidatingAFiveControlOperationDoesNotAllocate) {
    const MixedRadix radix(Dimensions{3, 6, 2, 4, 5, 3});
    const Operation op =
        Operation::givens(0, 0, 2, 0.5, -0.25, {{1, 5}, {2, 1}, {3, 3}, {4, 4}, {5, 2}});
    EXPECT_EQ(allocationsIn([&] {
                  for (int i = 0; i < 1000; ++i) {
                      validateOperation(op, radix);
                  }
              }),
              0U);
}

/// `count` operations over [3,6,2,4]; every other one carries controls.
Circuit mixedCircuit(std::size_t count) {
    Circuit circuit({3, 6, 2, 4}, "alloc");
    for (std::size_t i = 0; i < count; ++i) {
        const double theta = 0.001 * static_cast<double>(i) - 1.7;
        if (i % 2 == 0) {
            circuit.append(Operation::givens(1, i % 5, 5, theta, theta / 3.0));
        } else {
            const auto level = static_cast<Level>(i % 3);
            circuit.append(Operation::phase(3, 0, level + 1, theta, {{0, level}, {2, 1}}));
        }
    }
    return circuit;
}

TEST(AllocFree, QasmTextAllocatesOnlyToGrowItsString) {
    const Circuit circuit = mixedCircuit(8192);
    std::string text;
    const std::size_t allocations = allocationsIn([&] { text = toQasm(circuit); });
    // A string grown by doubling reallocates about log2(size) times.
    EXPECT_LE(allocations, static_cast<std::size_t>(std::bit_width(text.size())))
        << text.size() << " bytes";
}

TEST(AllocFree, GateStreamAllocatesOnlyEachControlList) {
    constexpr std::size_t kOps = 4096;
    const std::string text = toQasm(mixedCircuit(kOps));
    std::istringstream in(text);
    GateStream stream(in);
    std::size_t parsed = 0;
    const std::size_t allocations = allocationsIn([&] {
        while (const auto op = stream.next()) {
            ++parsed;
        }
    });
    ASSERT_EQ(parsed, kOps);
    // One exact-size control list per controlled statement, plus the
    // line and scratch buffers growing to their longest line once.
    EXPECT_LE(allocations, kOps / 2 + 8);
}

} // namespace
} // namespace mqsp
