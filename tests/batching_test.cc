/**
 * @file
 * Tests for the SIMR-aware batching server.
 */

#include <gtest/gtest.h>

#include <map>

#include "batching/policy.h"
#include "common/rng.h"

using namespace simr;
using namespace simr::batch;

namespace
{

std::vector<svc::Request>
makeRequests(int n, int apis, int max_arg, uint64_t seed)
{
    Rng rng(seed);
    std::vector<svc::Request> reqs;
    for (int i = 0; i < n; ++i) {
        svc::Request r;
        r.id = i;
        r.api = static_cast<int>(rng.below(static_cast<uint64_t>(apis)));
        r.argLen = 1 + static_cast<int>(
            rng.below(static_cast<uint64_t>(max_arg)));
        r.key = rng.next();
        reqs.push_back(r);
    }
    return reqs;
}

int
totalRequests(const std::vector<Batch> &bs)
{
    int n = 0;
    for (const auto &b : bs)
        n += b.size();
    return n;
}

} // namespace

TEST(Batching, PolicyNames)
{
    EXPECT_STREQ(policyName(Policy::Naive), "naive");
    EXPECT_STREQ(policyName(Policy::PerApi), "per-api");
    EXPECT_STREQ(policyName(Policy::PerApiArgSize), "per-api+arg");
}

class BatchingPolicyTest : public ::testing::TestWithParam<Policy>
{
};

TEST_P(BatchingPolicyTest, EveryRequestInExactlyOneBatch)
{
    auto reqs = makeRequests(500, 3, 8, 11);
    BatchingServer server(GetParam(), 32);
    auto batches = server.formBatches(reqs);
    EXPECT_EQ(totalRequests(batches), 500);

    std::map<int64_t, int> seen;
    for (const auto &b : batches)
        for (const auto &r : b.requests)
            ++seen[r.id];
    for (const auto &[id, count] : seen)
        EXPECT_EQ(count, 1) << "request " << id;
    EXPECT_EQ(seen.size(), 500u);
}

TEST_P(BatchingPolicyTest, BatchesNeverExceedSize)
{
    auto reqs = makeRequests(300, 4, 16, 13);
    BatchingServer server(GetParam(), 16);
    for (const auto &b : server.formBatches(reqs))
        EXPECT_LE(b.size(), 16);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BatchingPolicyTest,
                         ::testing::Values(Policy::Naive, Policy::PerApi,
                                           Policy::PerApiArgSize));

TEST(Batching, NaivePreservesArrivalOrder)
{
    auto reqs = makeRequests(100, 3, 4, 17);
    BatchingServer server(Policy::Naive, 32);
    auto batches = server.formBatches(reqs);
    int64_t expect = 0;
    for (const auto &b : batches)
        for (const auto &r : b.requests)
            EXPECT_EQ(r.id, expect++);
}

TEST(Batching, PerApiBatchesAreApiPure)
{
    auto reqs = makeRequests(400, 4, 4, 19);
    BatchingServer server(Policy::PerApi, 32);
    for (const auto &b : server.formBatches(reqs)) {
        for (const auto &r : b.requests)
            EXPECT_EQ(r.api, b.requests[0].api);
    }
}

TEST(Batching, PerApiArgSortsWithinApi)
{
    auto reqs = makeRequests(600, 2, 32, 23);
    BatchingServer server(Policy::PerApiArgSize, 32);
    auto batches = server.formBatches(reqs);
    // Every batch is API-pure and argLen-monotonic.
    for (const auto &b : batches) {
        for (int i = 0; i + 1 < b.size(); ++i) {
            EXPECT_EQ(b.requests[static_cast<size_t>(i)].api,
                      b.requests[0].api);
            EXPECT_LE(b.requests[static_cast<size_t>(i)].argLen,
                      b.requests[static_cast<size_t>(i) + 1].argLen);
        }
    }
}

TEST(Batching, PerApiArgFillsBatchesDespiteRareSizes)
{
    // Heavy-tailed sizes: exact-size grouping would strand many
    // partial batches; windowed sorting should keep them mostly full.
    Rng rng(29);
    std::vector<svc::Request> reqs;
    for (int i = 0; i < 640; ++i) {
        svc::Request r;
        r.id = i;
        r.api = 0;
        r.argLen = 1 + static_cast<int>(rng.zipf(32, 1.2));
        reqs.push_back(r);
    }
    BatchingServer server(Policy::PerApiArgSize, 32);
    auto batches = server.formBatches(reqs);
    int full = 0;
    for (const auto &b : batches)
        full += b.size() == 32 ? 1 : 0;
    EXPECT_GE(full, static_cast<int>(batches.size()) - 2);
}

TEST(Batching, SingleRequest)
{
    std::vector<svc::Request> reqs(1);
    BatchingServer server(Policy::PerApiArgSize, 32);
    auto batches = server.formBatches(reqs);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].size(), 1);
}

TEST(Batching, EmptyInput)
{
    BatchingServer server(Policy::Naive, 32);
    EXPECT_TRUE(server.formBatches({}).empty());
}
