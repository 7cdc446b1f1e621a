/**
 * @file
 * Tests for the crash-safety journal: exact outcome round-trips
 * (doubles, counters, escaped labels), CRC rejection of corrupted
 * bytes, torn-tail truncation recovery, header validation, and the
 * truncate-to-valid-prefix reopen contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep_journal.hh"
#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

/** Unique-ish per-test scratch path under the build tree. */
std::string
scratchPath(const char *name)
{
    return std::string("journal_test_") + name + ".jsonl";
}

SweepOutcome
sampleOutcome(std::size_t index)
{
    SweepOutcome o;
    o.index = index;
    o.label = "rate=0.5/pa \"quoted\"\nnewline";
    o.params = {{"rate", 0.5}, {"pa", 1.0}};
    o.seed = 0x9e3779b97f4a7c15ull + index;
    o.status = index % 3 == 2 ? PointStatus::kFailed : PointStatus::kOk;
    o.attempts = static_cast<int>(index % 3) + 1;
    o.error = o.status == PointStatus::kFailed ? "watchdog: killed" : "";
    o.wallMs = 12.625 + static_cast<double>(index);
    o.metrics.avgLatency = 123.4567890123456789; // exercises %.17g
    o.metrics.normalizedPower = 0.1 + static_cast<double>(index) * 1e-17;
    o.metrics.packetsMeasured = 1'000'000'007ull + index;
    o.metrics.packetsInjected = (1ull << 60) + index; // > 2^53
    o.metrics.drained = index % 2 == 0;
    o.metrics.auditFailures = index == 4 ? 2 : 0;
    o.metrics.measuredCycles = 50'000;
    return o;
}

void
writeJournal(const std::string &path, std::uint64_t base_seed,
             std::size_t n)
{
    SweepJournal j;
    j.open(path, SweepJournal::Header{base_seed, n}, 0);
    for (std::size_t i = 0; i < n; i++)
        j.append(sampleOutcome(i));
    j.close();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

class JournalFile : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        if (!path_.empty())
            std::remove(path_.c_str());
    }

    std::string path_;
};

} // namespace

TEST(Crc32, KnownVectors)
{
    // The classic check value for "123456789" (IEEE 802.3 reflected).
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, SingleBitFlipChangesValue)
{
    std::string a = "conservation";
    std::string b = a;
    b[5] ^= 0x01;
    EXPECT_NE(crc32(a.data(), a.size()), crc32(b.data(), b.size()));
}

TEST_F(JournalFile, MissingFileLoadsAsAbsent)
{
    path_ = scratchPath("missing");
    std::remove(path_.c_str());
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_FALSE(l.exists);
    EXPECT_FALSE(l.hasHeader);
    EXPECT_TRUE(l.outcomes.empty());
}

TEST_F(JournalFile, RoundTripIsExact)
{
    path_ = scratchPath("roundtrip");
    writeJournal(path_, 42, 6);

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.exists);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 42u);
    EXPECT_EQ(l.header.points, 6u);
    EXPECT_EQ(l.droppedLines, 0u);
    EXPECT_EQ(l.validBytes, slurp(path_).size());
    ASSERT_EQ(l.outcomes.size(), 6u);
    for (std::size_t i = 0; i < 6; i++) {
        const SweepOutcome want = sampleOutcome(i);
        const SweepOutcome &got = l.outcomes[i];
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.label, want.label);
        EXPECT_EQ(got.seed, want.seed);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.attempts, want.attempts);
        EXPECT_EQ(got.error, want.error);
        EXPECT_EQ(got.wallMs, want.wallMs);
        // Every metrics field must round-trip bit-exactly — the
        // resumed manifest is byte-compared against the
        // uninterrupted one.
        EXPECT_EQ(got.metrics.avgLatency, want.metrics.avgLatency);
        EXPECT_EQ(got.metrics.normalizedPower,
                  want.metrics.normalizedPower);
        EXPECT_EQ(got.metrics.packetsMeasured,
                  want.metrics.packetsMeasured);
        EXPECT_EQ(got.metrics.packetsInjected,
                  want.metrics.packetsInjected);
        EXPECT_EQ(got.metrics.drained, want.metrics.drained);
        EXPECT_EQ(got.metrics.auditFailures,
                  want.metrics.auditFailures);
        EXPECT_EQ(got.metrics.measuredCycles,
                  want.metrics.measuredCycles);
    }
    // Re-serializing a loaded record reproduces the exact line.
    EXPECT_EQ(SweepJournal::recordLine(l.outcomes[0]),
              SweepJournal::recordLine(sampleOutcome(0)));
}

namespace {

/** Bytes 0x01-0x7f in order: every control byte and every printable
 *  ASCII character, quote and backslash included. */
std::string
everyAsciiByte()
{
    std::string s;
    for (int c = 0x01; c <= 0x7f; c++)
        s += static_cast<char>(c);
    return s;
}

/** The JSON escape each control byte must take in any writer. */
std::string
escapedControl(char c)
{
    switch (c) {
      case '\n':
        return "\\n";
      case '\r':
        return "\\r";
      case '\t':
        return "\\t";
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(c));
        return buf;
      }
    }
}

/** True when some line of @p text holds a raw byte below 0x20. */
bool
hasRawControlByte(const std::string &text)
{
    for (char c : text) {
        if (c != '\n' && static_cast<unsigned char>(c) < 0x20)
            return true;
    }
    return false;
}

} // namespace

TEST_F(JournalFile, EveryAsciiByteRoundTripsAndControlBytesEscape)
{
    path_ = scratchPath("ascii");
    SweepOutcome o = sampleOutcome(2);
    o.label = "label:" + everyAsciiByte();
    o.error = "error:" + everyAsciiByte();
    {
        SweepJournal j;
        j.open(path_, SweepJournal::Header{1, 1}, 0);
        j.append(o);
        j.close();
    }
    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_EQ(l.outcomes.size(), 1u);
    EXPECT_EQ(l.droppedLines, 0u);
    EXPECT_EQ(l.outcomes[0].label, o.label);
    EXPECT_EQ(l.outcomes[0].error, o.error);
    EXPECT_EQ(SweepJournal::recordLine(l.outcomes[0]),
              SweepJournal::recordLine(o));

    // The manifest and both trace sinks escape the same bytes.
    std::ostringstream jsonl, chrome;
    {
        JsonlTraceSink sink(jsonl);
        sink.beginRun({{0, o.label, "injection"}});
        sink.endRun(1);
    }
    {
        ChromeTraceSink sink(chrome);
        sink.beginRun({{0, o.label, "injection"}});
        sink.endRun(1);
    }
    const std::pair<const char *, std::string> outputs[] = {
        {"journal", SweepJournal::recordLine(o)},
        {"manifest", sweepManifestJson("t", 1, {o})},
        {"jsonl trace", jsonl.str()},
        {"chrome trace", chrome.str()},
    };
    for (const auto &[name, out] : outputs) {
        EXPECT_FALSE(hasRawControlByte(out)) << name;
        for (char c = 0x01; c < 0x20; c++) {
            EXPECT_NE(out.find(escapedControl(c)), std::string::npos)
                << name << ": byte " << static_cast<int>(c);
        }
        EXPECT_NE(out.find("!\\\"#$%&'()*+,-./0123456789"),
                  std::string::npos)
            << name;
        EXPECT_NE(out.find("[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\x7f"),
                  std::string::npos)
            << name;
    }
}

TEST_F(JournalFile, CorruptedByteEndsTheValidPrefix)
{
    path_ = scratchPath("corrupt");
    writeJournal(path_, 7, 4);
    std::string bytes = slurp(path_);

    // Flip one byte inside the third record line (header + 2 records
    // stay intact).
    std::size_t nl = 0, pos = 0;
    for (std::size_t i = 0; i < bytes.size(); i++) {
        if (bytes[i] == '\n' && ++nl == 3) {
            pos = i + 10;
            break;
        }
    }
    ASSERT_GT(pos, 0u);
    bytes[pos] ^= 0x20;
    spit(path_, bytes);

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    // Records after the corrupt line are dropped even if intact —
    // the journal is an append-only log, so a bad line means
    // everything after it is suspect.
    EXPECT_EQ(l.outcomes.size(), 2u);
    EXPECT_EQ(l.droppedLines, 2u);
    EXPECT_LT(l.validBytes, bytes.size());
}

TEST_F(JournalFile, TornTailLineIsDiscarded)
{
    path_ = scratchPath("torn");
    writeJournal(path_, 7, 3);
    std::string bytes = slurp(path_);
    // SIGKILL mid-write: the last line loses its tail (and newline).
    spit(path_, bytes.substr(0, bytes.size() - 17));

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.outcomes.size(), 2u);
    EXPECT_EQ(l.droppedLines, 1u);

    // Reopening with keep_bytes == validBytes truncates the torn
    // tail; a fresh append then yields a fully valid journal again.
    SweepJournal j;
    j.open(path_, SweepJournal::Header{7, 3}, l.validBytes);
    j.append(sampleOutcome(2));
    j.close();

    SweepJournal::Loaded l2 = SweepJournal::load(path_);
    EXPECT_EQ(l2.outcomes.size(), 3u);
    EXPECT_EQ(l2.droppedLines, 0u);
}

TEST_F(JournalFile, GarbageFileHasNoHeader)
{
    path_ = scratchPath("garbage");
    spit(path_, "this is not a journal\n{\"r\": nope}\n");
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_TRUE(l.exists);
    EXPECT_FALSE(l.hasHeader);
    EXPECT_TRUE(l.outcomes.empty());
}

TEST_F(JournalFile, EmptyFileHasNoHeader)
{
    path_ = scratchPath("empty");
    spit(path_, "");
    SweepJournal::Loaded l = SweepJournal::load(path_);
    EXPECT_TRUE(l.exists);
    EXPECT_FALSE(l.hasHeader);
}

TEST_F(JournalFile, HeaderCarriesSweepIdentity)
{
    path_ = scratchPath("header");
    writeJournal(path_, 1234567890123456789ull, 17);
    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 1234567890123456789ull);
    EXPECT_EQ(l.header.points, 17u);
}

TEST_F(JournalFile, FreshOpenDiscardsOldContents)
{
    path_ = scratchPath("fresh");
    writeJournal(path_, 1, 5);
    // keep_bytes == 0: a fresh journal for a different sweep.
    SweepJournal j;
    j.open(path_, SweepJournal::Header{2, 1}, 0);
    j.append(sampleOutcome(0));
    j.close();

    SweepJournal::Loaded l = SweepJournal::load(path_);
    ASSERT_TRUE(l.hasHeader);
    EXPECT_EQ(l.header.baseSeed, 2u);
    EXPECT_EQ(l.outcomes.size(), 1u);
}
