/** @file Unit tests for the trace sinks (JSONL / Chrome / recording). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

std::vector<TraceLinkInfo>
twoLinks()
{
    return {{0, "inj0", "injection"}, {1, "rtr0", "inter-router"}};
}

LinkTransitionEvent
sampleTransition()
{
    LinkTransitionEvent e;
    e.startedAt = 100;
    e.completedAt = 220;
    e.linkId = 1;
    e.fromLevel = 5;
    e.toLevel = 4;
    e.type = "level";
    return e;
}

std::size_t
countLines(const std::string &s)
{
    return static_cast<std::size_t>(
        std::count(s.begin(), s.end(), '\n'));
}

} // namespace

TEST(TraceFormat, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseTraceFormat("jsonl"), TraceFormat::kJsonl);
    EXPECT_EQ(parseTraceFormat("chrome"), TraceFormat::kChrome);
    EXPECT_STREQ(traceFormatName(TraceFormat::kJsonl), "jsonl");
    EXPECT_STREQ(traceFormatName(TraceFormat::kChrome), "chrome");
}

TEST(JsonlTraceSink, OneObjectPerLine)
{
    std::ostringstream os;
    {
        JsonlTraceSink sink(os);
        sink.beginRun(twoLinks());
        sink.linkTransition(sampleTransition());
        sink.endRun(5000);
    }
    std::string out = os.str();
    // run_begin + 2 link rows + 1 transition + run_end.
    EXPECT_EQ(countLines(out), 5u);
    EXPECT_NE(out.find("\"type\": \"run_begin\""), std::string::npos);
    EXPECT_NE(out.find("\"type\": \"link\""), std::string::npos);
    EXPECT_NE(out.find("\"type\": \"transition\""), std::string::npos);
    EXPECT_NE(out.find("\"latency\": 120"), std::string::npos);
    EXPECT_NE(out.find("\"type\": \"run_end\""), std::string::npos);
}

TEST(JsonlTraceSink, OutputIsDeterministic)
{
    auto emit = []() {
        std::ostringstream os;
        JsonlTraceSink sink(os);
        sink.beginRun(twoLinks());
        DvsDecisionEvent d{};
        d.at = 400;
        d.linkId = 0;
        d.lu = 1.0 / 3.0; // exercises the %.17g formatting
        d.avgLu = 0.1;
        d.bu = 0.25;
        d.thLow = 0.4;
        d.thHigh = 0.6;
        d.decision = "down";
        d.level = 5;
        sink.dvsDecision(d);
        sink.endRun(1000);
        return os.str();
    };
    EXPECT_EQ(emit(), emit());
}

namespace {

/** The reference number formats: printf "%.17g" for doubles, ostream
 *  insertion for integers (what the sink wrote before it formatted
 *  lines itself). */
std::string
pct17g(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

TEST(JsonlTraceSink, NumbersMatchPrintfAndOstreamBytes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0,
                             -0.0,
                             5e-324,
                             DBL_MAX,
                             0.1,
                             1.0 / 3.0,
                             1e21,
                             1e-7,
                             9007199254740993.0, // 2^53 + 1
                             nan,
                             std::copysign(nan, -1.0),
                             inf,
                             -inf};
    for (double v : values) {
        std::ostringstream got;
        std::ostringstream want;
        {
            JsonlTraceSink sink(got);
            FaultEvent f;
            f.at = UINT64_MAX;
            f.linkId = INT_MIN;
            f.kind = "corrupt";
            f.attempts = INT_MAX;
            f.aux = v;
            sink.faultEvent(f);
            want << "{\"type\": \"fault\", \"at\": " << UINT64_MAX
                 << ", \"link\": " << INT_MIN
                 << ", \"kind\": \"corrupt\", \"attempts\": " << INT_MAX
                 << ", \"aux\": " << pct17g(v) << "}\n";

            DvsDecisionEvent d;
            d.at = 7;
            d.linkId = -1;
            d.lu = v;
            d.avgLu = -v;
            d.bu = v / 3.0;
            d.thLow = v * 0.1;
            d.thHigh = 1.0 - v;
            d.decision = "hold";
            d.backlogEscalated = true;
            d.level = INT_MIN;
            sink.dvsDecision(d);
            want << "{\"type\": \"dvs\", \"at\": 7, \"link\": -1"
                 << ", \"lu\": " << pct17g(d.lu)
                 << ", \"avg_lu\": " << pct17g(d.avgLu)
                 << ", \"bu\": " << pct17g(d.bu)
                 << ", \"th_low\": " << pct17g(d.thLow)
                 << ", \"th_high\": " << pct17g(d.thHigh)
                 << ", \"decision\": \"hold\", \"level\": " << INT_MIN
                 << ", \"backlog_escalated\": 1, \"downgrade_vetoed\": 0}"
                 << "\n";
        }
        EXPECT_EQ(got.str(), want.str()) << pct17g(v);
    }

    std::ostringstream got;
    {
        JsonlTraceSink sink(got);
        PacketRetireEvent p;
        p.at = UINT64_MAX;
        p.packet = 9007199254740993ull; // 2^53 + 1, exact as an integer
        p.src = UINT32_MAX;
        p.dst = 0;
        p.createdAt = 0;
        p.latency = UINT64_MAX;
        p.lenFlits = INT_MIN;
        sink.packetRetire(p);
    }
    std::ostringstream want;
    want << "{\"type\": \"packet\", \"at\": " << UINT64_MAX
         << ", \"id\": 9007199254740993, \"src\": " << UINT32_MAX
         << ", \"dst\": 0, \"created\": 0, \"latency\": " << UINT64_MAX
         << ", \"len\": " << INT_MIN << "}\n";
    EXPECT_EQ(got.str(), want.str());
}

TEST(JsonlTraceSink, LongPowerLineMatchesPrintfBytes)
{
    // 64 per-VC energies make the line longer than the sink's line
    // buffer, so it is written in pieces; the bytes must not change.
    PowerSnapshotEvent e;
    e.at = 123456;
    e.numKinds = 2;
    e.kinds[0] = {"injection", 512, 1.0 / 3.0, 2.5, 4.75, 99};
    e.kinds[1] = {"inter-router", 224, 1e-7, DBL_MAX, 0.1, UINT64_MAX};
    e.totalPowerMw = 1234.5678;
    e.baselinePowerMw = 5e-324;
    e.normalizedPower = 0.1 + 0.2;
    e.hasThermal = true;
    e.leakagePowerMw = 1e21;
    e.maxTempC = -0.0;
    for (int v = 0; v < 64; v++)
        e.vcEnergyMwCycles.push_back(1.0 / (v + 3) + 1e15 * v);

    std::ostringstream got;
    {
        JsonlTraceSink sink(got);
        sink.powerSnapshot(e);
    }
    std::ostringstream want;
    want << "{\"type\": \"power\", \"at\": 123456, \"total_mw\": "
         << pct17g(e.totalPowerMw)
         << ", \"baseline_mw\": " << pct17g(e.baselinePowerMw)
         << ", \"normalized\": " << pct17g(e.normalizedPower)
         << ", \"kinds\": [";
    for (int k = 0; k < e.numKinds; k++) {
        const auto &kr = e.kinds[k];
        want << (k > 0 ? ", " : "") << "{\"kind\": \"" << kr.kind
             << "\", \"count\": " << kr.count
             << ", \"power_mw\": " << pct17g(kr.powerMw)
             << ", \"baseline_mw\": " << pct17g(kr.baselineMw)
             << ", \"mean_level\": " << pct17g(kr.meanLevel)
             << ", \"flits\": " << kr.totalFlits << "}";
    }
    want << "], \"leakage_mw\": " << pct17g(e.leakagePowerMw)
         << ", \"max_temp_c\": " << pct17g(e.maxTempC)
         << ", \"vc_energy_mwc\": [";
    for (std::size_t v = 0; v < e.vcEnergyMwCycles.size(); v++)
        want << (v > 0 ? ", " : "") << pct17g(e.vcEnergyMwCycles[v]);
    want << "]}\n";
    ASSERT_GT(want.str().size(), 1024u);
    EXPECT_EQ(got.str(), want.str());
}

TEST(ChromeTraceSink, ProducesBalancedJsonWrapper)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.beginRun(twoLinks());
        sink.linkTransition(sampleTransition());
        LaserTraceEvent l{300, 0, "request_up", 1, 2};
        sink.laserEvent(l);
        sink.endRun(5000);
    }
    std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\": 120"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    EXPECT_EQ(out.back(), '\n');
}

TEST(ChromeTraceSink, EndWithoutBeginIsValidEmptyTrace)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os); // destructor closes an unbegun run
    }
    std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\": []"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(ChromeTraceSink, DoubleEndRunWritesOneWrapper)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.beginRun(twoLinks());
        sink.endRun(100);
        // The destructor must not close the array a second time.
    }
    std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(RecordingTraceSink, StoresEveryEventKind)
{
    RecordingTraceSink sink;
    sink.beginRun(twoLinks());
    sink.linkTransition(sampleTransition());
    sink.dvsDecision(DvsDecisionEvent{});
    sink.laserEvent(LaserTraceEvent{10, 0, "commit", 1, 2});
    sink.packetRetire(PacketRetireEvent{50, 7, 0, 3, 20, 30, 4});
    sink.powerSnapshot(PowerSnapshotEvent{});
    sink.endRun(99);
    EXPECT_EQ(sink.links().size(), 2u);
    EXPECT_EQ(sink.transitions().size(), 1u);
    EXPECT_EQ(sink.decisions().size(), 1u);
    EXPECT_EQ(sink.laser().size(), 1u);
    ASSERT_EQ(sink.packets().size(), 1u);
    EXPECT_EQ(sink.packets()[0].latency, 30u);
    EXPECT_EQ(sink.snapshots().size(), 1u);
    EXPECT_EQ(sink.endedAt(), 99u);
}

TEST(MakeTraceSink, CreatesRequestedFlavor)
{
    std::string dir = ::testing::TempDir();
    auto j = makeTraceSink(dir + "/t.jsonl", TraceFormat::kJsonl);
    auto c = makeTraceSink(dir + "/t.json", TraceFormat::kChrome);
    EXPECT_NE(dynamic_cast<JsonlTraceSink *>(j.get()), nullptr);
    EXPECT_NE(dynamic_cast<ChromeTraceSink *>(c.get()), nullptr);
}

TEST(NullTraceSink, HandlersAreNoOps)
{
    NullTraceSink sink;
    sink.beginRun(twoLinks());
    sink.linkTransition(sampleTransition());
    sink.endRun(10); // nothing observable; must simply not crash
}
