/** @file Tests for the key=value parameter store. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hh"

using namespace oenet;

TEST(Config, GetReturnsDefaultWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getString("missing", "dflt"), "dflt");
    EXPECT_EQ(c.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 2.5), 2.5);
    EXPECT_TRUE(c.getBool("missing", true));
}

TEST(Config, SetAndGet)
{
    Config c;
    c.set("a.b", "hello");
    EXPECT_TRUE(c.has("a.b"));
    EXPECT_EQ(c.getString("a.b", ""), "hello");
}

TEST(Config, ParseTokenSplitsOnFirstEquals)
{
    Config c;
    EXPECT_TRUE(c.parseToken("key=a=b"));
    EXPECT_EQ(c.getString("key", ""), "a=b");
}

TEST(Config, ParseTokenRejectsMalformed)
{
    Config c;
    EXPECT_FALSE(c.parseToken("noequals"));
    EXPECT_FALSE(c.parseToken("=value"));
}

TEST(Config, ParseTokenTrimsWhitespace)
{
    Config c;
    EXPECT_TRUE(c.parseToken("  key  =  value  "));
    EXPECT_EQ(c.getString("key", ""), "value");
}

TEST(Config, IntParsing)
{
    Config c;
    c.set("n", "123");
    c.set("hex", "0x10");
    c.set("neg", "-7");
    EXPECT_EQ(c.getInt("n", 0), 123);
    EXPECT_EQ(c.getInt("hex", 0), 16);
    EXPECT_EQ(c.getInt("neg", 0), -7);
}

TEST(Config, UintParsing)
{
    Config c;
    c.set("n", "4000000000");
    EXPECT_EQ(c.getUint("n", 0), 4000000000ul);
}

TEST(Config, DoubleParsing)
{
    Config c;
    c.set("x", "3.25");
    c.set("e", "1e-3");
    EXPECT_DOUBLE_EQ(c.getDouble("x", 0), 3.25);
    EXPECT_DOUBLE_EQ(c.getDouble("e", 0), 1e-3);
}

TEST(Config, BoolParsing)
{
    Config c;
    c.set("t1", "true");
    c.set("t2", "1");
    c.set("t3", "yes");
    c.set("t4", "on");
    c.set("f1", "false");
    c.set("f2", "0");
    c.set("f3", "no");
    c.set("f4", "off");
    EXPECT_TRUE(c.getBool("t1", false));
    EXPECT_TRUE(c.getBool("t2", false));
    EXPECT_TRUE(c.getBool("t3", false));
    EXPECT_TRUE(c.getBool("t4", false));
    EXPECT_FALSE(c.getBool("f1", true));
    EXPECT_FALSE(c.getBool("f2", true));
    EXPECT_FALSE(c.getBool("f3", true));
    EXPECT_FALSE(c.getBool("f4", true));
}

TEST(Config, OverwriteKeepsLast)
{
    Config c;
    c.set("k", "1");
    c.set("k", "2");
    EXPECT_EQ(c.getInt("k", 0), 2);
}

TEST(Config, UnusedKeysTracked)
{
    Config c;
    c.set("used", "1");
    c.set("unused", "2");
    (void)c.getInt("used", 0);
    auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(ConfigDeath, RejectUnusedKeysNamesEveryUnreadKey)
{
    Config c;
    c.set("rate", "1");
    c.set("polcy.window", "500");
    c.set("sed", "4");
    (void)c.getDouble("rate", 0.0);
    EXPECT_EXIT(c.rejectUnusedKeys(), ::testing::ExitedWithCode(1),
                "'polcy.window', 'sed'");
    (void)c.getUint("polcy.window", 0);
    (void)c.getUint("sed", 0);
    c.rejectUnusedKeys(); // every key read: returns
}

TEST(Config, LoadFileParsesCommentsAndBlanks)
{
    std::string path = testing::TempDir() + "/oenet_config_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment\n";
        out << "\n";
        out << "alpha = 1  # trailing comment\n";
        out << "beta.gamma=2.5\n";
    }
    Config c;
    c.loadFile(path);
    EXPECT_EQ(c.getInt("alpha", 0), 1);
    EXPECT_DOUBLE_EQ(c.getDouble("beta.gamma", 0), 2.5);
    std::remove(path.c_str());
}

TEST(Config, ParseArgsSkipsProgramName)
{
    const char *argv[] = {"prog", "x=1", "y=2"};
    Config c;
    c.parseArgs(3, argv);
    EXPECT_EQ(c.getInt("x", 0), 1);
    EXPECT_EQ(c.getInt("y", 0), 2);
}

TEST(Config, ItemsSorted)
{
    Config c;
    c.set("b", "2");
    c.set("a", "1");
    auto items = c.items();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].first, "a");
    EXPECT_EQ(items[1].first, "b");
}
