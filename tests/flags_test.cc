/**
 * @file
 * Unit tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simkit/flags.h"

namespace sim = chameleon::sim;

namespace {

bool
parse(sim::FlagSet &flags, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return flags.parse(static_cast<int>(args.size()),
                       const_cast<char **>(args.data()));
}

} // namespace

TEST(Flags, DefaultsSurviveEmptyParse)
{
    sim::FlagSet flags("t");
    auto *s = flags.addString("name", "default", "h");
    auto *d = flags.addDouble("rate", 1.5, "h");
    auto *i = flags.addInt("count", 7, "h");
    auto *b = flags.addBool("verbose", false, "h");
    ASSERT_TRUE(parse(flags, {}));
    EXPECT_EQ(*s, "default");
    EXPECT_DOUBLE_EQ(*d, 1.5);
    EXPECT_EQ(*i, 7);
    EXPECT_FALSE(*b);
}

TEST(Flags, SpaceAndEqualsForms)
{
    sim::FlagSet flags("t");
    auto *s = flags.addString("name", "", "h");
    auto *d = flags.addDouble("rate", 0.0, "h");
    ASSERT_TRUE(parse(flags, {"--name", "abc", "--rate=2.25"}));
    EXPECT_EQ(*s, "abc");
    EXPECT_DOUBLE_EQ(*d, 2.25);
}

TEST(Flags, RepeatableListKeepsEveryValueInOrder)
{
    sim::FlagSet flags("t");
    auto *sets = flags.addStringList("set", "h");
    ASSERT_TRUE(parse(flags, {}));
    EXPECT_TRUE(sets->empty());
    // Values may themselves contain '=': only the flag name is split.
    ASSERT_TRUE(parse(flags, {"--set", "a.b=1", "--set=c=x", "--set",
                              "a.b=2"}));
    EXPECT_EQ(*sets, (std::vector<std::string>{"a.b=1", "c=x", "a.b=2"}));
    EXPECT_NE(flags.usage().find("repeatable"), std::string::npos);
}

TEST(Flags, BareBooleanEnables)
{
    sim::FlagSet flags("t");
    auto *b = flags.addBool("verbose", false, "h");
    ASSERT_TRUE(parse(flags, {"--verbose"}));
    EXPECT_TRUE(*b);
}

TEST(Flags, BooleanExplicitValues)
{
    sim::FlagSet flags("t");
    auto *b = flags.addBool("verbose", true, "h");
    ASSERT_TRUE(parse(flags, {"--verbose=false"}));
    EXPECT_FALSE(*b);
    // Booleans only accept the = form for values (a bare flag enables).
    ASSERT_TRUE(parse(flags, {"--verbose=1"}));
    EXPECT_TRUE(*b);
}

TEST(Flags, RejectsUnknownFlag)
{
    sim::FlagSet flags("t");
    flags.addInt("count", 0, "h");
    EXPECT_FALSE(parse(flags, {"--nope", "1"}));
}

TEST(Flags, RejectsMalformedNumbers)
{
    sim::FlagSet flags("t");
    flags.addInt("count", 0, "h");
    flags.addDouble("rate", 0.0, "h");
    EXPECT_FALSE(parse(flags, {"--count", "12x"}));
    EXPECT_FALSE(parse(flags, {"--rate", "abc"}));
}

TEST(Flags, RejectsMissingValue)
{
    sim::FlagSet flags("t");
    flags.addInt("count", 0, "h");
    EXPECT_FALSE(parse(flags, {"--count"}));
}

TEST(Flags, HelpReturnsFalse)
{
    sim::FlagSet flags("t");
    flags.addInt("count", 0, "h");
    EXPECT_FALSE(parse(flags, {"--help"}));
}

TEST(Flags, UsageListsFlagsInOrder)
{
    sim::FlagSet flags("tool");
    flags.addString("zeta", "z", "last");
    flags.addString("alpha", "a", "first");
    const auto usage = flags.usage();
    EXPECT_NE(usage.find("--zeta"), std::string::npos);
    EXPECT_LT(usage.find("--zeta"), usage.find("--alpha"));
}

TEST(Flags, NegativeNumbers)
{
    sim::FlagSet flags("t");
    auto *i = flags.addInt("offset", 0, "h");
    auto *d = flags.addDouble("delta", 0.0, "h");
    ASSERT_TRUE(parse(flags, {"--offset", "-42", "--delta=-1.5"}));
    EXPECT_EQ(*i, -42);
    EXPECT_DOUBLE_EQ(*d, -1.5);
}
