// Unit tests for the study-scoped memo behind the scan cache, the
// validation memo and the forged-leaf cache: first-insert-wins under racing
// inserts, balanced counters, string_view lookup on the hostname memo, and
// the persistence snapshot. The suite carries the `dynamic` ctest label, so
// both sanitizer presets run it.
#include "util/sharded_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "net/forged_leaf_cache.h"
#include "obs/metrics.h"

namespace pinscope::util {
namespace {

using IntMemo = ShardedMemo<int, std::shared_ptr<const int>>;

TEST(ShardedMemoTest, RacingInsertsAllGetTheResidentValue) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    IntMemo memo;
    std::latch start(kThreads);
    std::vector<std::shared_ptr<const int>> got(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto mine = std::make_shared<const int>(t);
        start.arrive_and_wait();
        got[t] = memo.Insert(7, std::move(mine));
      });
    }
    for (std::thread& th : workers) th.join();

    const std::optional<std::shared_ptr<const int>> resident = memo.Find(7);
    ASSERT_TRUE(resident.has_value());
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t].get(), resident->get());
    EXPECT_EQ(memo.Stats().inserts, static_cast<std::size_t>(kThreads));
    EXPECT_EQ(memo.EntryCount(), 1u);
  }
}

TEST(ShardedMemoTest, CountersBalanceAfterConcurrentUse) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  IntMemo memo;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int key = 0; key < kKeys; ++key) {
        if (!memo.Find(key).has_value()) {
          (void)memo.Insert(key, std::make_shared<const int>(key));
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();

  const MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads * kKeys));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.inserts, stats.misses);  // every miss inserted once
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.entries, memo.EntryCount());
  EXPECT_LE(stats.entries, stats.inserts);
}

TEST(ShardedMemoTest, HostnameMemoFindsByStringView) {
  net::ForgedLeafCache memo;
  const auto chain = std::make_shared<const x509::CertificateChain>();
  (void)memo.Insert("api.example.com", chain);

  const std::string text = "https://api.example.com/v1";
  const std::string_view host = std::string_view(text).substr(8, 15);
  const auto hit = memo.Find(host);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), chain.get());
  EXPECT_FALSE(memo.Find(std::string_view("cdn.example.com")).has_value());

  const MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedMemoTest, EntriesHoldEachKeyOnce) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 100;
  IntMemo memo;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Every thread inserts every key, from a different starting point.
      for (int i = 0; i < kKeys; ++i) {
        const int key = (i + t * 25) % kKeys;
        (void)memo.Insert(key, std::make_shared<const int>(key));
      }
    });
  }
  for (std::thread& th : workers) th.join();

  std::vector<std::pair<int, std::shared_ptr<const int>>> entries =
      memo.Entries();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(kKeys));
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (int key = 0; key < kKeys; ++key) {
    EXPECT_EQ(entries[key].first, key);
    EXPECT_EQ(*entries[key].second, key);
    EXPECT_EQ(entries[key].second.get(), memo.Find(key)->get());
  }
}

TEST(ShardedMemoTest, AttachMetricsNamesTheLockFamily) {
  obs::MetricsRegistry registry;
  IntMemo memo;
  memo.AttachMetrics(&registry, "probe_memo");
  (void)memo.Insert(1, std::make_shared<const int>(1));
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.count("lock.probe_memo.contended"), 1u);
  EXPECT_EQ(snap.histograms.count("lock.probe_memo.wait_us"), 1u);
}

}  // namespace
}  // namespace pinscope::util
