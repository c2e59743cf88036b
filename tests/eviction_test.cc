/**
 * @file
 * Unit tests for the cache eviction policies (§4.2.2, §5.3.3).
 */

#include <gtest/gtest.h>

#include "chameleon/eviction.h"
#include "simkit/time.h"

using namespace chameleon;
using core::EvictionCandidate;

namespace {

EvictionCandidate
cand(model::AdapterId id, int rank, std::int64_t bytes, sim::SimTime last,
     double freq)
{
    EvictionCandidate c;
    c.id = id;
    c.rank = rank;
    c.bytes = bytes;
    c.lastUsed = last;
    c.frequency = freq;
    c.loadCostMs = static_cast<double>(bytes) / 1e7; // ~10 GB/s
    return c;
}

} // namespace

TEST(ChameleonEviction, PrefersSmallColdInfrequent)
{
    core::ChameleonEviction policy;
    // Candidate 0: large, hot, recent. Candidate 1: small, cold, stale.
    std::vector<EvictionCandidate> cs{
        cand(0, 128, 256ll << 20, sim::fromSeconds(100), 50.0),
        cand(1, 8, 16ll << 20, sim::fromSeconds(10), 1.0),
    };
    EXPECT_EQ(policy.pickVictim(cs, sim::fromSeconds(101)), 1u);
}

TEST(ChameleonEviction, SizeBeatsRecencyWithPaperWeights)
{
    // F=0.45, R=0.10, S=0.45: a large stale adapter outranks a small
    // recent one when frequencies match, because misses on large
    // adapters are costlier to repair.
    core::ChameleonEviction policy;
    std::vector<EvictionCandidate> cs{
        cand(0, 128, 256ll << 20, sim::fromSeconds(0), 5.0), // large, stale
        cand(1, 8, 16ll << 20, sim::fromSeconds(100), 5.0),  // small, fresh
    };
    EXPECT_EQ(policy.pickVictim(cs, sim::fromSeconds(101)), 1u);
}

TEST(ChameleonEviction, FrequencyProtectsPopularAdapters)
{
    core::ChameleonEviction policy;
    std::vector<EvictionCandidate> cs{
        cand(0, 32, 64ll << 20, sim::fromSeconds(50), 100.0),
        cand(1, 32, 64ll << 20, sim::fromSeconds(50), 1.0),
    };
    EXPECT_EQ(policy.pickVictim(cs, sim::fromSeconds(60)), 1u);
}

TEST(ChameleonEviction, ScoreIsWeightedSum)
{
    core::ChameleonEviction policy(0.45, 0.10, 0.45);
    EvictionCandidate c = cand(0, 128, 100, sim::fromSeconds(10), 4.0);
    // With itself as the only candidate the normalisers are trivial.
    const double s = policy.score(c, 4.0, sim::fromSeconds(10),
                                  sim::fromSeconds(10), 100);
    EXPECT_NEAR(s, 0.45 * 1.0 + 0.10 * 1.0 + 0.45 * 1.0, 1e-12);
}

TEST(LruEviction, PicksLeastRecent)
{
    core::LruEviction policy;
    std::vector<EvictionCandidate> cs{
        cand(0, 8, 1, sim::fromSeconds(30), 100.0),
        cand(1, 8, 1, sim::fromSeconds(10), 100.0),
        cand(2, 8, 1, sim::fromSeconds(20), 0.0),
    };
    EXPECT_EQ(policy.pickVictim(cs, sim::fromSeconds(31)), 1u);
}

TEST(FairShareEviction, EqualWeightsDifferFromTuned)
{
    // The tuned weights (size-heavy, recency-light) evict the tiny idle
    // adapter; equal weights instead punish the mid-size stale one.
    std::vector<EvictionCandidate> cs{
        cand(0, 8, 1ll << 20, sim::fromSeconds(100), 0.0),
        cand(1, 64, 128ll << 20, sim::fromSeconds(0), 2.0),
        cand(2, 128, 256ll << 20, sim::fromSeconds(100), 10.0), // anchor
    };
    core::ChameleonEviction tuned;
    core::FairShareEviction fair;
    EXPECT_EQ(tuned.pickVictim(cs, sim::fromSeconds(100)), 0u);
    EXPECT_EQ(fair.pickVictim(cs, sim::fromSeconds(100)), 1u);
}

TEST(GdsfEviction, FrequencyOverSizeRatio)
{
    core::GdsfEviction policy;
    // GDSF evicts large adapters with moderate frequency aggressively
    // (H = L + f*cost/size): equal cost/size ratio, lower f evicted.
    std::vector<EvictionCandidate> cs{
        cand(0, 128, 256ll << 20, sim::fromSeconds(1), 3.0),
        cand(1, 128, 256ll << 20, sim::fromSeconds(1), 9.0),
    };
    EXPECT_EQ(policy.pickVictim(cs, sim::fromSeconds(2)), 0u);
}

TEST(GdsfEviction, AgingRaisesFloor)
{
    core::GdsfEviction policy;
    std::vector<EvictionCandidate> first{
        cand(0, 8, 16ll << 20, 0, 1.0),
        cand(1, 8, 16ll << 20, 0, 100.0),
    };
    EXPECT_EQ(policy.pickVictim(first, 0), 0u);
    // After the eviction, L has risen to the victim's H; a newcomer with
    // tiny H relative to the aged floor is picked next.
    std::vector<EvictionCandidate> second{
        cand(1, 8, 16ll << 20, 0, 100.0),
        cand(2, 8, 16ll << 20, 0, 0.5),
    };
    EXPECT_EQ(policy.pickVictim(second, 0), 1u);
}

TEST(EvictionFactory, KnownNames)
{
    EXPECT_STREQ(core::makeEvictionPolicy("chameleon")->name(), "chameleon");
    EXPECT_STREQ(core::makeEvictionPolicy("lru")->name(), "lru");
    EXPECT_STREQ(core::makeEvictionPolicy("fairshare")->name(), "fairshare");
    EXPECT_STREQ(core::makeEvictionPolicy("gdsf")->name(), "gdsf");
}

TEST(EvictionFactoryDeathTest, RejectsRemovedNames)
{
    // One name table: the factory parses through evictionPolicyByName,
    // so a name the spec cannot carry cannot build a policy either.
    EXPECT_DEATH(core::makeEvictionPolicy("lfu"),
                 "unknown eviction policy: lfu");
}
