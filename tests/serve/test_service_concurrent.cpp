// Concurrency contract of the reader-writer dispatcher: read-path verbs
// genuinely overlap, write-path verbs exclude, a fixed command storm
// yields thread-count- and order-invariant deterministic outcomes, and
// the high-water-mark GC fires exactly when the pool crosses the trigger.

#include "mqsp/serve/service.hpp"

#include "mqsp/support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace mqsp::serve {
namespace {

/// Run one line and require an "OK ..." reply; returns the reply line.
std::string ok(VerificationService& service, const std::string& line) {
    const Response response = service.handleLine(line);
    EXPECT_EQ(response.line.rfind("OK ", 0), 0U)
        << "line '" << line << "' replied: " << response.line;
    return response.line;
}

/// Value of `key=` in a reply line ("OK id=1 fidelity=1.000 ..."), or "".
std::string field(const std::string& reply, const std::string& key) {
    const std::string needle = " " + key + "=";
    const auto pos = reply.find(needle);
    if (pos == std::string::npos) {
        return "";
    }
    const auto start = pos + needle.size();
    const auto end = reply.find(' ', start);
    return reply.substr(start, end == std::string::npos ? std::string::npos : end - start);
}

std::uint64_t uintField(const std::string& reply, const std::string& key) {
    return std::stoull(field(reply, key));
}

/// Spin until `predicate` holds; returns false on timeout (never hangs).
template <typename Predicate>
bool awaitFor(const Predicate& predicate) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

// The pin for the overlapping-readers contract: reader A blocks *inside*
// the shared section (via the test hook) until reader B has fully
// completed another read command. Under the old single-mutex dispatch B
// could never finish while A held the lock — the await below would time
// out; under reader-writer dispatch B sails through.
TEST(ServeServiceConcurrent, TwoReadCommandsOverlap) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");

    std::atomic<bool> readerAInside{false};
    std::atomic<bool> readerBDone{false};
    std::atomic<bool> overlapped{false};
    service.setReadPathHookForTests([&](Verb verb) {
        if (verb != Verb::Stats) {
            return; // only reader A (STATS?) blocks
        }
        readerAInside.store(true);
        overlapped.store(awaitFor([&] { return readerBDone.load(); }));
    });

    std::thread readerA([&] { ok(service, "STATS?"); });
    std::thread readerB([&] {
        ASSERT_TRUE(awaitFor([&] { return readerAInside.load(); }));
        ok(service, "VERIFY --id 1"); // completes while A holds shared ownership
        readerBDone.store(true);
    });
    readerA.join();
    readerB.join();
    EXPECT_TRUE(overlapped.load())
        << "a second read command could not complete while the first held the read path";
}

// The inverse pin: a writer (PREP) issued while a reader sits inside the
// shared section must NOT complete until the reader leaves.
TEST(ServeServiceConcurrent, WriteCommandWaitsForActiveReaders) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");

    std::atomic<bool> readerInside{false};
    std::atomic<bool> releaseReader{false};
    std::atomic<bool> writerDone{false};
    service.setReadPathHookForTests([&](Verb) {
        readerInside.store(true);
        awaitFor([&] { return releaseReader.load(); });
    });

    std::thread reader([&] { ok(service, "VERIFY --id 1"); });
    ASSERT_TRUE(awaitFor([&] { return readerInside.load(); }));
    std::thread writer([&] {
        ok(service, "PREP:W --dims 3,6,2");
        writerDone.store(true);
    });
    // The writer cannot finish while the reader is parked in the shared
    // section. A short real-time window is the best negative check
    // available; the positive half (it completes after release) is exact.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(writerDone.load());
    releaseReader.store(true);
    reader.join();
    writer.join();
    EXPECT_TRUE(writerDone.load());
}

// One fixed command list, dealt round-robin to T threads: every
// deterministic outcome — per-verb counts, prepared/verified/error
// totals, and the post-GC pool size — is identical for every T and every
// interleaving. This is the serving-layer restatement of the session
// contract that dd_nodes depends only on WHAT was interned, never on who
// interned it first.
TEST(ServeServiceConcurrent, CommandStormOutcomesAreThreadCountInvariant) {
    // The storm references ids 1 and 2, prepared serially up front; storm
    // PREPs allocate fresh ids and are never referenced.
    std::vector<std::string> storm;
    for (int i = 0; i < 12; ++i) {
        storm.emplace_back("VERIFY --id 1");
        storm.emplace_back("STATS?");
        storm.emplace_back("VERIFY --id 2 --repeat 2");
        storm.emplace_back("LIMITS?");
        storm.emplace_back("PREP:UNIFORM --dims 2,2");
        storm.emplace_back("GC");
        storm.emplace_back("HELP");
        storm.emplace_back("VERIFY --id 9999"); // deterministic ERR
        storm.emplace_back("BATCH");
    }

    std::map<std::string, std::uint64_t> firstVerbCounts;
    std::uint64_t firstPoolAfterGc = 0;
    bool haveBaseline = false;
    for (const unsigned threads : {1U, 2U, 4U, 7U}) {
        VerificationService service;
        ok(service, "PREP:GHZ --dims 3,6,2");
        ok(service, "PREP:W --dims 3,6,2");
        parallel::runOnThreads(threads, [&](unsigned index) {
            for (std::size_t i = index; i < storm.size(); i += threads) {
                // ERR replies are expected for the bad-id probes; the
                // contract here is "exactly one reply, service survives".
                const Response response = service.handleLine(storm[i]);
                ASSERT_FALSE(response.line.empty());
                ASSERT_TRUE(response.line.rfind("OK ", 0) == 0 ||
                            response.line.rfind("ERR ", 0) == 0)
                    << response.line;
            }
        });

        // Serial epilogue: compact to the live set and snapshot.
        const std::string gc = ok(service, "GC");
        const std::uint64_t poolAfterGc = uintField(gc, "nodes_after");
        const std::string stats = ok(service, "STATS?");

        EXPECT_EQ(uintField(stats, "prepared"), 2U + 12U) << "threads=" << threads;
        EXPECT_EQ(uintField(stats, "errors"), 12U) << "threads=" << threads;
        // verified = 12 VERIFYs x1 + 12 VERIFYs x2 + 12 BATCHes over a
        // registry that only ever grows during the storm: BATCH item
        // counts vary with interleaving, so assert bounds, not equality.
        const std::uint64_t verified = uintField(stats, "verified");
        EXPECT_GE(verified, 12U + 24U + 12U * 2U) << "threads=" << threads;
        EXPECT_LE(verified, 12U + 24U + 12U * 14U) << "threads=" << threads;

        std::map<std::string, std::uint64_t> verbCounts;
        for (const char* key : {"prep", "verify", "batch", "stats", "limits", "help", "gc"}) {
            verbCounts[key] = uintField(stats, std::string(key) + ".count");
        }
        EXPECT_EQ(verbCounts["verify"], 2U * 12U + 12U); // incl. the ERR probes
        EXPECT_EQ(verbCounts["prep"], 2U + 12U);
        EXPECT_EQ(verbCounts["gc"], 12U + 1U); // storm GCs + the epilogue GC
        // The epilogue STATS? records its own latency only after its
        // reply is formatted, so it reports just the 12 in-storm ones.
        EXPECT_EQ(verbCounts["stats"], 12U);

        if (!haveBaseline) {
            haveBaseline = true;
            firstVerbCounts = verbCounts;
            firstPoolAfterGc = poolAfterGc;
        } else {
            EXPECT_EQ(verbCounts, firstVerbCounts) << "threads=" << threads;
            EXPECT_EQ(poolAfterGc, firstPoolAfterGc) << "threads=" << threads;
        }
    }
}

// The watermark policy fires exactly at the crossing, not before: a PREP
// landing the pool exactly ON the trigger does not collect, the next
// growth past it does — and the ratchet keeps a saturated live set from
// re-collecting on every subsequent command.
TEST(ServeServiceConcurrent, WatermarkGcFiresExactlyOnCrossing) {
    // Probe run: measure the deterministic pool sizes this test pivots on.
    std::uint64_t poolAfterGhz = 0;
    std::uint64_t poolAfterBoth = 0;
    {
        VerificationService probe;
        ok(probe, "PREP:GHZ --dims 3,6,2");
        poolAfterGhz = probe.session()->stats().poolNodes;
        ok(probe, "PREP:W --dims 3,6,2");
        poolAfterBoth = probe.session()->stats().poolNodes;
    }
    ASSERT_GT(poolAfterBoth, poolAfterGhz);

    ServiceLimits limits;
    limits.gcWatermarkNodes = poolAfterGhz; // first PREP lands exactly on it
    VerificationService service(limits);
    EXPECT_EQ(service.gcWatermark(), poolAfterGhz);

    ok(service, "PREP:GHZ --dims 3,6,2"); // pool == watermark: no fire
    EXPECT_EQ(uintField(ok(service, "STATS?"), "auto_gc_runs"), 0U);

    ok(service, "PREP:W --dims 3,6,2"); // pool > watermark: fires once
    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(uintField(stats, "auto_gc_runs"), 1U);
    EXPECT_EQ(uintField(stats, "gc_runs"), 0U); // no explicit GC involved

    // Both targets are live, so the collection could not get back under
    // the watermark — the ratchet must stop pool-neutral reads (STATS?,
    // LIMITS?, HELP intern nothing) from running futile collections.
    ok(service, "STATS?");
    ok(service, "LIMITS?");
    EXPECT_EQ(uintField(ok(service, "STATS?"), "auto_gc_runs"), 1U);

    // Reads never cross it either: VERIFY and BATCH replay on scratch
    // sessions, so the shared pool is exactly unchanged and nothing fires.
    const std::uint64_t poolBeforeReads = service.session()->stats().poolNodes;
    ok(service, "VERIFY --id 1");
    ok(service, "VERIFY --id 2 --repeat 3");
    ok(service, "BATCH");
    EXPECT_EQ(service.session()->stats().poolNodes, poolBeforeReads);
    EXPECT_EQ(uintField(ok(service, "STATS?"), "auto_gc_runs"), 1U);

    // Dropping the W target shrinks the live set; the explicit GC resets
    // the trigger to the watermark, and growth past it fires again.
    ok(service, "DROP --id 2");
    ok(service, "GC");
    EXPECT_EQ(uintField(ok(service, "STATS?"), "gc_runs"), 1U);
    ok(service, "PREP:W --dims 3,6,2"); // crosses the watermark again
    EXPECT_EQ(uintField(ok(service, "STATS?"), "auto_gc_runs"), 2U);
}

// Acceptance pin: a 100-cycle prep/verify/drop session against a small
// node budget stays under --max-nodes throughout WITHOUT any client ever
// issuing GC — the watermark policy alone keeps the pool bounded.
TEST(ServeServiceConcurrent, WatermarkKeepsHundredCycleSessionUnderBudget) {
    ServiceLimits limits;
    limits.maxSessionNodes = 512; // watermark defaults to 80%: 409
    VerificationService service(limits);
    EXPECT_EQ(service.gcWatermark(), 409U);

    std::uint64_t previousId = 0;
    for (int cycle = 1; cycle <= 100; ++cycle) {
        // A fresh random state every cycle: genuinely new nodes each time,
        // so the pool grows until the watermark reclaims the dropped ones.
        const std::string prep = ok(service, "PREP:RANDOM --dims 2,2,2 --seed " +
                                                 std::to_string(cycle));
        const std::uint64_t id = uintField(prep, "id");
        ok(service, "VERIFY --id " + std::to_string(id));
        if (previousId != 0) {
            ok(service, "DROP --id " + std::to_string(previousId));
        }
        previousId = id;
        EXPECT_LE(service.session()->stats().poolNodes, limits.maxSessionNodes)
            << "cycle " << cycle;
    }

    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(uintField(stats, "gc_runs"), 0U); // no explicit GC ever ran
    EXPECT_GT(uintField(stats, "auto_gc_runs"), 0U);
    EXPECT_EQ(uintField(stats, "prepared"), 100U);
    EXPECT_EQ(uintField(stats, "resident"), 1U);
}

// STATS? surfaces per-verb latency: exact deterministic counts plus
// parseable (non-deterministic) microsecond quantiles, and only for verbs
// actually seen.
TEST(ServeServiceConcurrent, StatsReportsPerVerbLatency) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");
    ok(service, "VERIFY");
    ok(service, "VERIFY");
    ok(service, "STATS?");

    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(uintField(stats, "prep.count"), 1U);
    EXPECT_EQ(uintField(stats, "verify.count"), 2U);
    // A command records its latency after its reply is built, so the
    // first STATS? reported no stats latency and this one reports one.
    EXPECT_EQ(uintField(stats, "stats.count"), 1U);
    for (const char* key : {"prep", "verify", "stats"}) {
        for (const char* metric : {".p50_us", ".p99_us", ".max_us"}) {
            const std::string value = field(stats, std::string(key) + metric);
            ASSERT_NE(value, "") << key << metric;
            EXPECT_GE(std::stod(value), 0.0) << key << metric;
        }
    }
    // Verbs never dispatched report nothing.
    EXPECT_EQ(field(stats, "drop.count"), "");
    EXPECT_EQ(field(stats, "gc.count"), "");
    EXPECT_EQ(field(stats, "quit.count"), "");
}

} // namespace
} // namespace mqsp::serve
