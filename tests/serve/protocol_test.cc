// Wire-protocol robustness battery in the spirit of
// tests/io/corruption_test.cc: round-trips for every request/response
// shape, then systematic corruption — every truncation length, every
// magic byte flipped, lying declared lengths, unknown types, cap
// violations, trailing garbage — each of which must produce a
// descriptive Status (never a crash), and the Server / stream / queue
// layers must turn them into error responses while staying alive.
#include "serve/protocol.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/batch_queue.h"
#include "serve/daemon.h"
#include "serve/lru_cache.h"
#include "serve/server.h"
#include "test_bundle.h"

namespace dmt::serve {
namespace {

std::vector<std::byte> Truncate(const std::vector<std::byte>& frame,
                                size_t length) {
  return std::vector<std::byte>(frame.begin(), frame.begin() + length);
}

// ---------------------------------------------------------------- codec

TEST(ServeProtocolTest, ClassifyRequestRoundTrip) {
  Request request;
  request.id = 42;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kKnn;
  request.count = 2;
  request.dim = 3;
  request.values = {1.0, -2.5, 3.25, 0.0, 7.5, -0.125};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().type, RequestType::kClassify);
  EXPECT_EQ(decoded.value().model, ClassifyModel::kKnn);
  EXPECT_EQ(decoded.value().count, 2u);
  EXPECT_EQ(decoded.value().dim, 3u);
  EXPECT_EQ(decoded.value().values, request.values);
}

TEST(ServeProtocolTest, ClusterRequestRoundTrip) {
  Request request;
  request.id = 7;
  request.type = RequestType::kAssignCluster;
  request.count = 2;
  request.dim = 2;
  request.values = {0.5, 1.5, -3.0, 4.0};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, RequestType::kAssignCluster);
  EXPECT_EQ(decoded.value().values, request.values);
}

TEST(ServeProtocolTest, RecommendRequestRoundTrip) {
  Request request;
  request.id = 9;
  request.type = RequestType::kRecommend;
  request.top_k = 5;
  request.count = 2;
  request.baskets = {{3, 1, 4}, {}};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().top_k, 5u);
  EXPECT_EQ(decoded.value().baskets, request.baskets);
}

TEST(ServeProtocolTest, StatsRequestRoundTrip) {
  Request request;
  request.id = 11;
  request.type = RequestType::kStats;
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 11u);
  EXPECT_EQ(decoded.value().type, RequestType::kStats);
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
  Response classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.labels = {0, 2, 1};
  auto c = DecodeResponseFrame(EncodeResponseFrame(classify));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().labels, classify.labels);

  Response cluster;
  cluster.id = 2;
  cluster.type = RequestType::kAssignCluster;
  cluster.clusters = {3, 0};
  cluster.cluster_dist_sq = {1.25, 0.0};
  auto a = DecodeResponseFrame(EncodeResponseFrame(cluster));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value().clusters, cluster.clusters);
  EXPECT_EQ(a.value().cluster_dist_sq, cluster.cluster_dist_sq);

  Response recommend;
  recommend.id = 3;
  recommend.type = RequestType::kRecommend;
  recommend.recommendations = {
      {RuleHit{5, 0.75, 1.5, {8, 9}}, RuleHit{6, 0.5, 1.0, {}}}, {}};
  auto r = DecodeResponseFrame(EncodeResponseFrame(recommend));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().recommendations, recommend.recommendations);

  Response stats;
  stats.id = 4;
  stats.type = RequestType::kStats;
  stats.stats_json = "{\"x\":1}";
  auto s = DecodeResponseFrame(EncodeResponseFrame(stats));
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.value().stats_json, stats.stats_json);
}

TEST(ServeProtocolTest, ErrorResponseRoundTrip) {
  Response error = MakeErrorResponse(
      77, core::Status::InvalidArgument("boom goes the request"));
  auto decoded = DecodeResponseFrame(EncodeResponseFrame(error));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 77u);
  EXPECT_NE(decoded.value().status, 0u);
  EXPECT_NE(decoded.value().error.find("boom goes the request"),
            std::string::npos);
}

// ----------------------------------------------------------- corruption

TEST(ServeProtocolTest, EveryTruncationLengthFailsDescriptively) {
  Request request;
  request.id = 3;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kTree;
  request.count = 2;
  request.dim = 4;
  request.values.assign(8, 1.0);
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  ASSERT_TRUE(DecodeRequestFrame(frame).ok());
  for (size_t length = 0; length < frame.size(); ++length) {
    auto decoded = DecodeRequestFrame(Truncate(frame, length));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << length
                               << " byte(s) decoded successfully";
    EXPECT_FALSE(decoded.status().message().empty());
  }
}

TEST(ServeProtocolTest, EveryResponseTruncationLengthFails) {
  Response response;
  response.id = 8;
  response.type = RequestType::kRecommend;
  response.recommendations = {{RuleHit{1, 0.9, 2.0, {4, 5}}}};
  std::vector<std::byte> frame = EncodeResponseFrame(response);
  ASSERT_TRUE(DecodeResponseFrame(frame).ok());
  for (size_t length = 0; length < frame.size(); ++length) {
    EXPECT_FALSE(DecodeResponseFrame(Truncate(frame, length)).ok())
        << "truncation to " << length;
  }
}

TEST(ServeProtocolTest, EveryMagicByteFlipFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<std::byte> bad = frame;
    bad[i] ^= std::byte{0x40};
    auto decoded = DecodeRequestFrame(bad);
    ASSERT_FALSE(decoded.ok()) << "magic byte " << i;
    EXPECT_NE(decoded.status().ToString().find("magic"),
              std::string::npos);
  }
}

TEST(ServeProtocolTest, LyingDeclaredLengthFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  uint32_t length = 0;
  std::memcpy(&length, frame.data() + 4, sizeof(length));
  for (int delta : {-1, 1}) {
    std::vector<std::byte> bad = frame;
    uint32_t lying = length + static_cast<uint32_t>(delta);
    std::memcpy(bad.data() + 4, &lying, sizeof(lying));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << "delta " << delta;
  }
  // A declared length above the cap is rejected before any allocation.
  std::vector<std::byte> huge = frame;
  uint32_t over_cap = kMaxFrameBody + 1;
  std::memcpy(huge.data() + 4, &over_cap, sizeof(over_cap));
  auto decoded = DecodeRequestFrame(huge);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("cap"), std::string::npos);
}

TEST(ServeProtocolTest, UnknownTypeAndModelFail) {
  Request stats;
  stats.id = 1;
  stats.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(stats);
  // Body layout: u64 id, u8 type — the type byte sits at offset 16.
  frame[16] = std::byte{99};
  auto decoded = DecodeRequestFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("unknown type"),
            std::string::npos);

  Request classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.count = 1;
  classify.dim = 1;
  classify.values = {1.0};
  std::vector<std::byte> cframe = EncodeRequestFrame(classify);
  cframe[17] = std::byte{42};  // model byte follows the type byte
  auto cdecoded = DecodeRequestFrame(cframe);
  ASSERT_FALSE(cdecoded.ok());
  EXPECT_NE(cdecoded.status().ToString().find("model"),
            std::string::npos);
}

TEST(ServeProtocolTest, CountAndDimCapViolationsFail) {
  Request classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.count = 1;
  classify.dim = 1;
  classify.values = {1.0};
  std::vector<std::byte> frame = EncodeRequestFrame(classify);
  // Body layout: id(8) type(1) model(1) count(4) dim(4) at body offsets
  // 0/8/9/10/14 => frame offsets +8.
  const size_t count_at = 8 + 8 + 1 + 1;
  const size_t dim_at = count_at + 4;
  for (uint32_t bad_count : {0u, kMaxRecordsPerRequest + 1}) {
    std::vector<std::byte> bad = frame;
    std::memcpy(bad.data() + count_at, &bad_count, sizeof(bad_count));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << bad_count;
  }
  for (uint32_t bad_dim : {0u, kMaxRecordDim + 1}) {
    std::vector<std::byte> bad = frame;
    std::memcpy(bad.data() + dim_at, &bad_dim, sizeof(bad_dim));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << bad_dim;
  }

  Request recommend;
  recommend.id = 1;
  recommend.type = RequestType::kRecommend;
  recommend.top_k = 1;
  recommend.count = 1;
  recommend.baskets = {{1}};
  std::vector<std::byte> rframe = EncodeRequestFrame(recommend);
  const size_t top_k_at = 8 + 8 + 1;  // id, type, then top_k
  uint32_t bad_top_k = kMaxTopK + 1;
  std::memcpy(rframe.data() + top_k_at, &bad_top_k, sizeof(bad_top_k));
  auto decoded = DecodeRequestFrame(rframe);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("top_k"), std::string::npos);
}

TEST(ServeProtocolTest, TrailingGarbageFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  frame.push_back(std::byte{0xAB});
  uint32_t length = 0;
  std::memcpy(&length, frame.data() + 4, sizeof(length));
  ++length;  // keep the header honest so only the body is malformed
  std::memcpy(frame.data() + 4, &length, sizeof(length));
  EXPECT_FALSE(DecodeRequestFrame(frame).ok());
}

// ------------------------------------------------------------ LRU cache

TEST(ShardedLruCacheTest, HitRefreshAndEviction) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  std::vector<RuleHit> a = {RuleHit{1, 0.5, 1.0, {2}}};
  std::vector<RuleHit> b = {RuleHit{2, 0.6, 1.1, {3}}};
  std::vector<RuleHit> c = {RuleHit{3, 0.7, 1.2, {4}}};
  EXPECT_EQ(cache.Put("a", a), 0u);
  EXPECT_EQ(cache.Put("b", b), 0u);
  ASSERT_TRUE(cache.Get("a").has_value());  // refreshes "a"
  EXPECT_EQ(cache.Put("c", c), 1u);         // evicts "b", the LRU entry
  EXPECT_FALSE(cache.Get("b").has_value());
  ASSERT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(*cache.Get("a"), a);
  ASSERT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(ShardedLruCacheTest, PutRefreshesExistingKey) {
  ShardedLruCache cache(/*capacity=*/4, /*num_shards=*/2);
  std::vector<RuleHit> v1 = {RuleHit{1, 0.5, 1.0, {2}}};
  std::vector<RuleHit> v2 = {RuleHit{9, 0.9, 2.0, {7}}};
  EXPECT_EQ(cache.Put("k", v1), 0u);
  EXPECT_EQ(cache.Put("k", v2), 0u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(*cache.Get("k"), v2);
}

// --------------------------------------------------- server robustness

class ServeServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new std::shared_ptr<const ModelBundle>(
        testutil::MakeTestBundle());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static std::shared_ptr<const ModelBundle> bundle() { return *bundle_; }

 private:
  static std::shared_ptr<const ModelBundle>* bundle_;
};

std::shared_ptr<const ModelBundle>* ServeServerTest::bundle_ = nullptr;

TEST_F(ServeServerTest, MalformedFrameYieldsErrorResponseAndServerLives) {
  Server server(bundle(), ServeOptions{});
  std::vector<std::byte> garbage(20, std::byte{0x5A});
  auto error = DecodeResponseFrame(server.HandleFrame(garbage));
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_NE(error.value().status, 0u);
  EXPECT_FALSE(error.value().error.empty());

  // The server still serves valid requests afterwards.
  Request request = testutil::MakeClassifyRequest(
      5, ClassifyModel::kTree, bundle()->train(), {0, 1, 2});
  auto ok = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 0u);
  EXPECT_EQ(ok.value().id, 5u);
  EXPECT_EQ(ok.value().labels.size(), 3u);
}

TEST_F(ServeServerTest, ValidationErrorEchoesRequestId) {
  Server server(bundle(), ServeOptions{});
  Request request;
  request.id = 123;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kTree;
  request.count = 1;
  request.dim = 2;  // bundle schema expects 9 features
  request.values = {1.0, 2.0};
  auto response = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().status, 0u);
  EXPECT_EQ(response.value().id, 123u);
  EXPECT_FALSE(response.value().error.empty());
}

TEST_F(ServeServerTest, AbsentArtifactIsFailedPreconditionNotCrash) {
  auto rules_only = ModelBundle::FromParts(
      std::nullopt, std::nullopt, std::nullopt, bundle()->rules());
  ASSERT_TRUE(rules_only.ok()) << rules_only.status().ToString();
  Server server(rules_only.value(), ServeOptions{});
  Request request = testutil::MakeClusterRequest(4, {0.0, 0.0}, 2);
  auto response = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().status, 0u);
  EXPECT_EQ(response.value().id, 4u);

  // Rules are present, so recommendation still works on the same server.
  Request rules = testutil::MakeRecommendRequest(6, 3, {{1, 2, 3}});
  auto ok = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(rules)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 0u);
  EXPECT_EQ(ok.value().recommendations.size(), 1u);
}

TEST_F(ServeServerTest, HandleFramesPreservesOrderAroundFailures) {
  Server server(bundle(), ServeOptions{});
  std::vector<std::vector<std::byte>> frames;
  frames.push_back(EncodeRequestFrame(testutil::MakeClassifyRequest(
      1, ClassifyModel::kNaiveBayes, bundle()->train(), {0})));
  frames.push_back(std::vector<std::byte>(5, std::byte{0x00}));
  frames.push_back(EncodeRequestFrame(
      testutil::MakeRecommendRequest(3, 4, {{2, 5, 9}})));
  auto responses = server.HandleFrames(frames);
  ASSERT_EQ(responses.size(), 3u);
  auto first = DecodeResponseFrame(responses[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().id, 1u);
  EXPECT_EQ(first.value().status, 0u);
  auto second = DecodeResponseFrame(responses[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().status, 0u);
  auto third = DecodeResponseFrame(responses[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().id, 3u);
  EXPECT_EQ(third.value().status, 0u);
}

/// Process peak resident set size in KiB (Linux ru_maxrss unit).
long PeakRssKib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST_F(ServeServerTest, HostileBasketItemsDoNotSizeTheRuleBitset) {
  Server server(bundle(), ServeOptions{});
  const std::vector<std::byte> clean = server.HandleFrame(EncodeRequestFrame(
      testutil::MakeRecommendRequest(21, 4, {{2, 5, 9}, {1, 3}})));
  auto decoded = DecodeResponseFrame(clean);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().status, 0u);
  ASSERT_EQ(decoded.value().recommendations.size(), 2u);
  // Item ids far above every rule item can match no rule, so the answer
  // must not change — and must not cost a bit per possible item id.
  const long rss_before = PeakRssKib();
  const std::vector<std::byte> hostile =
      server.HandleFrame(EncodeRequestFrame(testutil::MakeRecommendRequest(
          21, 4, {{2, 5, 9, 0xFFFFFFFFu}, {0xFFFFFFFEu, 1, 3}})));
  const long rss_growth_kib = PeakRssKib() - rss_before;
  EXPECT_EQ(hostile, clean);
  EXPECT_LT(rss_growth_kib, 64 * 1024);
}

// -------------------------------------------------- stream robustness

/// Reads response frames from `fd` into an id-keyed map (responses may
/// complete out of order) until `expected` frames arrived.
std::map<uint64_t, Response> CollectResponses(int fd, size_t expected) {
  std::map<uint64_t, Response> responses;
  for (size_t i = 0; i < expected; ++i) {
    auto frame = ReadFrame(fd, kResponseMagic);
    if (!frame.ok() || frame.value().empty()) break;
    auto response = DecodeResponseFrame(frame.value());
    if (!response.ok()) break;
    responses[response.value().id] = std::move(response).value();
  }
  return responses;
}

TEST_F(ServeServerTest, StreamSurvivesMalformedBody) {
  Server server(bundle(), ServeOptions{});
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::thread serving([&] {
    core::Status status = ServeStream(&server, sv[1], sv[1]);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ::close(sv[1]);
  });

  // stats, then a frame whose header is fine but whose body has an
  // unknown type (framing survives, the request errors), then stats.
  Request stats1;
  stats1.id = 1;
  stats1.type = RequestType::kStats;
  Request stats3 = stats1;
  stats3.id = 3;
  std::vector<std::byte> bad = EncodeRequestFrame(stats1);
  bad[16] = std::byte{77};  // type byte

  for (const auto& frame :
       {EncodeRequestFrame(stats1), bad, EncodeRequestFrame(stats3)}) {
    ASSERT_TRUE(WriteAll(sv[0], frame).ok());
  }
  ASSERT_EQ(::shutdown(sv[0], SHUT_WR), 0);

  std::map<uint64_t, Response> responses = CollectResponses(sv[0], 3);
  serving.join();
  ::close(sv[0]);

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses.at(1).status, 0u);
  EXPECT_EQ(responses.at(3).status, 0u);
  EXPECT_NE(responses.at(0).status, 0u);  // decode failures report id 0
  EXPECT_FALSE(responses.at(0).error.empty());
}

TEST_F(ServeServerTest, StreamClosesCleanlyOnBadHeader) {
  Server server(bundle(), ServeOptions{});
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  core::Status stream_status = core::Status::OK();
  std::thread serving([&] {
    stream_status = ServeStream(&server, sv[1], sv[1]);
    ::close(sv[1]);
  });

  Request stats;
  stats.id = 1;
  stats.type = RequestType::kStats;
  ASSERT_TRUE(WriteAll(sv[0], EncodeRequestFrame(stats)).ok());
  std::vector<std::byte> garbage(kFrameHeaderBytes, std::byte{0xEE});
  ASSERT_TRUE(WriteAll(sv[0], garbage).ok());
  ASSERT_EQ(::shutdown(sv[0], SHUT_WR), 0);

  std::map<uint64_t, Response> responses = CollectResponses(sv[0], 2);
  serving.join();
  ::close(sv[0]);

  // The stream reported the framing error (and only the stream died —
  // the server object is still usable below).
  EXPECT_FALSE(stream_status.ok());
  ASSERT_TRUE(responses.count(0));
  EXPECT_NE(responses.at(0).status, 0u);

  Request probe = testutil::MakeRecommendRequest(9, 2, {{1, 2}});
  auto after = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(probe)));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().status, 0u);
}

TEST_F(ServeServerTest, BatchQueueDeliversErrorsAndKeepsServing) {
  ServeOptions options;
  options.batch_size = 4;
  options.num_threads = 2;
  Server server(bundle(), options);
  std::mutex mutex;
  std::map<uint64_t, Response> responses;
  auto collect = [&](std::vector<std::byte> frame) {
    auto response = DecodeResponseFrame(frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    std::lock_guard<std::mutex> lock(mutex);
    responses[response.value().id] = std::move(response).value();
  };
  {
    BatchQueue queue(&server);
    queue.Submit(EncodeRequestFrame(testutil::MakeClassifyRequest(
                     1, ClassifyModel::kKnn, bundle()->train(), {4})),
                 collect);
    queue.Submit(std::vector<std::byte>(3, std::byte{0x11}), collect);
    queue.Flush();
    // The malformed frame did not wedge the queue: later requests on the
    // same queue still complete.
    queue.Submit(EncodeRequestFrame(
                     testutil::MakeRecommendRequest(7, 3, {{3, 4}})),
                 collect);
    queue.Flush();
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses.at(1).status, 0u);
  EXPECT_EQ(responses.at(1).labels.size(), 1u);
  EXPECT_NE(responses.at(0).status, 0u);
  EXPECT_EQ(responses.at(7).status, 0u);
}

}  // namespace
}  // namespace dmt::serve
