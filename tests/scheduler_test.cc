/**
 * @file
 * Unit tests for the FIFO and SJF admission policies.
 */

#include <gtest/gtest.h>

#include "serving/fifo_scheduler.h"
#include "serving/sjf_scheduler.h"
#include "test_util.h"

using namespace chameleon;
using testutil::FakeAdmission;
using testutil::liveRequest;

TEST(FifoScheduler, AdmitsInArrivalOrder)
{
    serving::FifoScheduler sched;
    auto a = liveRequest(1, 10, 10);
    auto b = liveRequest(2, 10, 10);
    auto c = liveRequest(3, 10, 10);
    sched.enqueue(&a);
    sched.enqueue(&b);
    sched.enqueue(&c);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0], &a);
    EXPECT_EQ(admitted[1], &b);
    EXPECT_EQ(admitted[2], &c);
    EXPECT_FALSE(sched.hasWaiting());
}

TEST(FifoScheduler, HeadOfLineBlocks)
{
    serving::FifoScheduler sched;
    auto big = liveRequest(1, 10, 10);
    auto small = liveRequest(2, 10, 10);
    sched.enqueue(&big);
    sched.enqueue(&small);
    FakeAdmission fake;
    fake.refuse = &big; // the head cannot reserve resources
    const auto admitted = sched.selectAdmissions(fake.ctx);
    // Nothing behind the blocked head may pass.
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(sched.waitingCount(), 2u);
}

TEST(FifoScheduler, RespectsAdmissionSlots)
{
    serving::FifoScheduler sched;
    auto a = liveRequest(1, 10, 10);
    auto b = liveRequest(2, 10, 10);
    sched.enqueue(&a);
    sched.enqueue(&b);
    FakeAdmission fake;
    fake.ctx.admissionSlots = 1;
    EXPECT_EQ(sched.selectAdmissions(fake.ctx).size(), 1u);
    EXPECT_EQ(sched.waitingCount(), 1u);
}

TEST(FifoScheduler, PrefillBudgetGatesButNeverBlocksFirst)
{
    serving::FifoScheduler sched;
    auto huge = liveRequest(1, 5000, 10);
    auto next = liveRequest(2, 10, 10);
    sched.enqueue(&huge);
    sched.enqueue(&next);
    FakeAdmission fake;
    fake.ctx.prefillTokenBudget = 256;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    // The oversized head is admitted (no live-lock), then the budget is
    // exhausted for this iteration.
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0], &huge);
}

TEST(FifoScheduler, RequeueFrontRestoresPosition)
{
    serving::FifoScheduler sched;
    auto a = liveRequest(1, 10, 10);
    auto b = liveRequest(2, 10, 10);
    sched.enqueue(&b);
    sched.requeueFront(&a);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0], &a);
}

TEST(SjfScheduler, ShortestPredictedFirst)
{
    serving::SjfScheduler sched;
    auto longr = liveRequest(1, 10, 500);
    auto shortr = liveRequest(2, 10, 5);
    auto medr = liveRequest(3, 10, 50);
    sched.enqueue(&longr);
    sched.enqueue(&shortr);
    sched.enqueue(&medr);
    FakeAdmission fake;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0], &shortr);
    EXPECT_EQ(admitted[1], &medr);
    EXPECT_EQ(admitted[2], &longr);
}

TEST(SjfScheduler, LongRequestsStarveWhileShortsArrive)
{
    serving::SjfScheduler sched;
    auto longr = liveRequest(1, 10, 500);
    sched.enqueue(&longr);
    auto shorts = std::vector<serving::LiveRequest>{};
    for (int i = 0; i < 4; ++i)
        shorts.push_back(liveRequest(10 + i, 10, 5));
    for (auto &s : shorts)
        sched.enqueue(&s);
    FakeAdmission fake;
    fake.ctx.admissionSlots = 4;
    const auto admitted = sched.selectAdmissions(fake.ctx);
    ASSERT_EQ(admitted.size(), 4u);
    for (const auto *r : admitted)
        EXPECT_NE(r, &longr); // all four shorts pass the long request
    EXPECT_EQ(sched.waitingCount(), 1u);
}
