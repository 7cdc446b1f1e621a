/** @file End-to-end tests of trace emission through a live PoeSystem. */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>

#include "core/experiment.hh"
#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    return c;
}

SystemConfig
triLevelConfig()
{
    SystemConfig c = smallConfig();
    c.opticalMode = OpticalMode::kTriLevel;
    // Compress the optical plant so VOA traffic fits a short test run.
    c.laser.responseCycles = 300;
    c.laser.decisionEpochCycles = 600;
    return c;
}

std::unique_ptr<TrafficSource>
uniform(double rate, const SystemConfig &cfg, std::uint64_t seed = 1)
{
    return makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg);
}

} // namespace

TEST(TraceSystem, BeginRunAnnouncesTheLinkTable)
{
    RecordingTraceSink sink;
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 0);
    ASSERT_EQ(sink.links().size(), sys.network().numLinks());
    std::set<int> ids;
    for (const TraceLinkInfo &l : sink.links()) {
        ids.insert(l.id);
        EXPECT_FALSE(l.name.empty());
        EXPECT_GT(std::strlen(l.kind), 0u);
    }
    EXPECT_EQ(ids.size(), sink.links().size()); // dense, unique
}

TEST(TraceSystem, RecordsTransitionsDecisionsAndRetires)
{
    RecordingTraceSink sink;
    SystemConfig cfg = smallConfig();
    {
        PoeSystem sys(cfg);
        sys.setTraceSink(&sink, 500);
        sys.setTraffic(uniform(0.4, cfg));
        sys.run(3000);
    } // destructor ends the run

    ASSERT_FALSE(sink.transitions().empty());
    int num_links = static_cast<int>(sink.links().size());
    for (const LinkTransitionEvent &t : sink.transitions()) {
        EXPECT_LE(t.startedAt, t.completedAt);
        EXPECT_GE(t.linkId, 0);
        EXPECT_LT(t.linkId, num_links);
        EXPECT_NE(t.fromLevel, t.toLevel);
        EXPECT_STREQ(t.type, "level"); // no gating in this config
    }

    ASSERT_FALSE(sink.decisions().empty());
    for (const DvsDecisionEvent &d : sink.decisions()) {
        EXPECT_EQ(d.at % cfg.windowCycles, 0u);
        EXPECT_GE(d.lu, 0.0);
        EXPECT_LE(d.lu, 1.0 + 1e-9);
        EXPECT_LT(d.thLow, d.thHigh);
    }

    ASSERT_FALSE(sink.packets().empty());
    for (const PacketRetireEvent &p : sink.packets())
        EXPECT_EQ(p.latency, p.at - p.createdAt);

    // metrics_interval 500 over 3000 cycles: snapshots at 500..2500.
    ASSERT_EQ(sink.snapshots().size(), 5u);
    Cycle expect_at = 500;
    for (const PowerSnapshotEvent &s : sink.snapshots()) {
        EXPECT_EQ(s.at, expect_at);
        expect_at += 500;
        EXPECT_GT(s.baselinePowerMw, 0.0);
        EXPECT_GT(s.normalizedPower, 0.0);
        EXPECT_LE(s.normalizedPower, 1.0 + 1e-9);
        EXPECT_EQ(s.numKinds, 3);
    }
    EXPECT_EQ(sink.endedAt(), 3000u);
}

TEST(TraceSystem, TriLevelRunEmitsLaserEvents)
{
    RecordingTraceSink sink;
    SystemConfig cfg = triLevelConfig();
    {
        PoeSystem sys(cfg);
        sys.setTraceSink(&sink, 0);
        sys.setTraffic(uniform(0.3, cfg));
        sys.run(6000);
    }
    ASSERT_FALSE(sink.laser().empty());
    const std::set<std::string> known = {"request_up", "request_down",
                                         "commit", "preempt_down",
                                         "drop"};
    bool saw_commit = false;
    for (const LaserTraceEvent &e : sink.laser()) {
        EXPECT_TRUE(known.count(e.action)) << e.action;
        if (std::strcmp(e.action, "commit") == 0) {
            saw_commit = true;
            EXPECT_NE(e.fromLevel, e.toLevel);
        }
    }
    EXPECT_TRUE(saw_commit);
}

TEST(TraceSystem, DetachStopsEmission)
{
    RecordingTraceSink sink;
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 500);
    sys.setTraffic(uniform(0.4, cfg));
    sys.run(1000);
    std::size_t transitions = sink.transitions().size();
    std::size_t snapshots = sink.snapshots().size();
    sys.setTraceSink(nullptr);
    sys.run(2000);
    EXPECT_EQ(sink.transitions().size(), transitions);
    EXPECT_EQ(sink.snapshots().size(), snapshots);
}

TEST(TraceSystem, ReattachReplacesTheSnapshotHook)
{
    // Regression: re-attaching a sink used to leave the previous epoch
    // hook installed, so the old cadence kept firing into the new
    // sink — and re-attaching with snapshots disabled (interval 0)
    // didn't disable anything.
    SystemConfig cfg = smallConfig();
    // Every sink outlives the system: its destructor ends the run on
    // the one still attached.
    RecordingTraceSink first;
    RecordingTraceSink second;
    RecordingTraceSink third;
    PoeSystem sys(cfg);

    sys.setTraceSink(&first, 250);
    sys.run(1000);
    std::size_t firstCount = first.snapshots().size();
    EXPECT_GE(firstCount, 3u);

    // Re-attach at a coarser cadence: only the new interval fires.
    sys.setTraceSink(&second, 1000);
    sys.run(3000); // now 1000 -> 4000: hook due at 2000 and 3000
    EXPECT_EQ(first.snapshots().size(), firstCount);
    ASSERT_EQ(second.snapshots().size(), 2u);
    for (const PowerSnapshotEvent &e : second.snapshots())
        EXPECT_EQ(e.at % 1000, 0u) << "stale 250-cycle hook fired";

    // Re-attach with snapshots disabled: nothing may fire at all.
    sys.setTraceSink(&third, 0);
    sys.run(2000);
    EXPECT_EQ(third.snapshots().size(), 0u);
    EXPECT_EQ(second.snapshots().size(), 2u);
}

TEST(TraceSystem, JsonlOutputIsRunToRunDeterministic)
{
    auto capture = []() {
        std::ostringstream os;
        JsonlTraceSink sink(os);
        SystemConfig cfg = smallConfig();
        {
            PoeSystem sys(cfg);
            sys.setTraceSink(&sink, 500);
            sys.setTraffic(uniform(0.4, cfg));
            sys.run(2000);
        }
        return os.str();
    };
    std::string a = capture();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, capture());
}

TEST(TraceSystem, UntracedRunMatchesTracedMetrics)
{
    // Attaching a sink must observe, never perturb: metrics of a traced
    // and an untraced run of the same (config, seed) are identical.
    auto metricsOf = [](bool traced) {
        RecordingTraceSink sink;
        SystemConfig cfg = smallConfig();
        PoeSystem sys(cfg);
        if (traced)
            sys.setTraceSink(&sink, 250);
        sys.setTraffic(uniform(0.4, cfg));
        sys.run(1000);
        sys.startMeasurement();
        sys.run(2000);
        sys.stopMeasurement();
        sys.awaitDrain(5000);
        return sys.metrics();
    };
    RunMetrics t = metricsOf(true);
    RunMetrics u = metricsOf(false);
    EXPECT_EQ(t.packetsMeasured, u.packetsMeasured);
    EXPECT_DOUBLE_EQ(t.avgLatency, u.avgLatency);
    EXPECT_DOUBLE_EQ(t.avgPowerMw, u.avgPowerMw);
    EXPECT_EQ(t.transitions, u.transitions);
}
