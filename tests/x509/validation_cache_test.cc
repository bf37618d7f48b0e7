// Unit tests for the chain-validation memo: key sensitivity, first-insert-
// wins semantics, cached/uncached agreement, and multi-threaded stress (the
// suite carries the `dynamic` ctest label and runs under ThreadSanitizer).
#include "x509/validation_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/root_store.h"

namespace pinscope::x509 {
namespace {

struct World {
  World()
      : root(CertificateIssuer::SelfSignedRoot(
            "vc-root", DistinguishedName{"VC Root CA", "TestOrg", "US"},
            -5 * util::kMillisPerYear, 10 * util::kMillisPerYear)),
        store("test", {root.certificate()}) {
    util::Rng rng(7);
    IssueSpec spec;
    spec.subject.set_common_name("api.test.com");
    spec.san_dns = {"api.test.com"};
    spec.not_before = -30 * util::kMillisPerDay;
    spec.not_after = util::kMillisPerYear;
    leaf = root.Issue(spec, rng);
    chain = {leaf, root.certificate()};
  }

  CertificateIssuer root;
  Certificate leaf;
  CertificateChain chain;
  RootStore store;
};

TEST(ValidationCacheTest, CachedAgreesWithUncachedOnHitAndMiss) {
  World w;
  ValidationCache cache;
  const ValidationOptions opts;

  const ValidationResult plain =
      ValidateChain(w.chain, "api.test.com", 0, w.store, opts);
  const ValidationResult miss =
      CachedValidateChain(&cache, w.chain, "api.test.com", 0, w.store, opts);
  const ValidationResult hit =
      CachedValidateChain(&cache, w.chain, "api.test.com", 0, w.store, opts);

  EXPECT_EQ(plain.status, miss.status);
  EXPECT_EQ(plain.failing_index, miss.failing_index);
  EXPECT_EQ(plain.status, hit.status);
  EXPECT_EQ(plain.failing_index, hit.failing_index);

  const util::MemoStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ValidationCacheTest, NullCacheFallsThroughToPlainValidation) {
  World w;
  const ValidationResult direct =
      CachedValidateChain(nullptr, w.chain, "api.test.com", 0, w.store, {});
  EXPECT_TRUE(direct.ok());
}

TEST(ValidationCacheTest, FailuresAreMemoizedToo) {
  World w;
  ValidationCache cache;
  const ValidationResult miss =
      CachedValidateChain(&cache, w.chain, "evil.com", 0, w.store, {});
  const ValidationResult hit =
      CachedValidateChain(&cache, w.chain, "evil.com", 0, w.store, {});
  EXPECT_EQ(miss.status, ValidationStatus::kHostnameMismatch);
  EXPECT_EQ(hit.status, ValidationStatus::kHostnameMismatch);
  EXPECT_EQ(hit.failing_index, miss.failing_index);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(ValidationCacheTest, KeyIsSensitiveToEveryTupleComponent) {
  World w;
  const ValidationOptions opts;
  const auto base = ValidationCache::MakeKey(w.chain, "api.test.com", 0,
                                             w.store, opts);

  // Hostname.
  EXPECT_FALSE(base == ValidationCache::MakeKey(w.chain, "evil.com", 0,
                                                w.store, opts));
  // Sim-time.
  EXPECT_FALSE(base == ValidationCache::MakeKey(w.chain, "api.test.com",
                                                util::kMillisPerDay, w.store,
                                                opts));
  // Store content.
  RootStore other("other", {});
  EXPECT_FALSE(base == ValidationCache::MakeKey(w.chain, "api.test.com", 0,
                                                other, opts));
  // Option bits.
  ValidationOptions lax;
  lax.check_hostname = false;
  EXPECT_FALSE(base == ValidationCache::MakeKey(w.chain, "api.test.com", 0,
                                                w.store, lax));
  // Revocation content (same flags, different list).
  ValidationOptions revoking;
  revoking.revoked_serials = {w.leaf.serial()};
  EXPECT_FALSE(base == ValidationCache::MakeKey(w.chain, "api.test.com", 0,
                                                w.store, revoking));
  // Chain content.
  const CertificateChain leaf_only = {w.leaf};
  EXPECT_FALSE(base == ValidationCache::MakeKey(leaf_only, "api.test.com", 0,
                                                w.store, opts));

  // And reflexively: rebuilding the same tuple gives the same key.
  EXPECT_TRUE(base == ValidationCache::MakeKey(w.chain, "api.test.com", 0,
                                               w.store, opts));
}

TEST(ValidationCacheTest, EquivalentStoresShareContentTokens) {
  World w;
  // A store built with the same roots in a different way has the same token,
  // so per-destination ephemeral stores (custom PKI) hit across rebuilds.
  RootStore rebuilt("different-label", {w.root.certificate()});
  EXPECT_EQ(w.store.ContentToken(), rebuilt.ContentToken());

  RootStore augmented("aug", {w.root.certificate()});
  augmented.AddRoot(w.leaf);
  EXPECT_NE(w.store.ContentToken(), augmented.ContentToken());
}

TEST(ValidationCacheTest, FirstInsertWins) {
  World w;
  ValidationCache cache;
  const auto key =
      ValidationCache::MakeKey(w.chain, "api.test.com", 0, w.store, {});

  ValidationResult first;
  first.status = ValidationStatus::kOk;
  ValidationResult second;
  second.status = ValidationStatus::kExpired;
  second.failing_index = 1;

  const ValidationResult r1 = cache.Insert(key, first);
  const ValidationResult r2 = cache.Insert(key, second);
  EXPECT_EQ(r1.status, ValidationStatus::kOk);
  EXPECT_EQ(r2.status, ValidationStatus::kOk);  // resident entry returned
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(ValidationCacheTest, ConcurrentMixedWorkloadIsSafeAndConsistent) {
  World w;
  ValidationCache cache;
  const ValidationOptions opts;
  constexpr int kThreads = 8;
  constexpr int kReps = 50;

  std::vector<std::thread> workers;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kReps; ++i) {
        // Two distinct tuples, hammered from every thread.
        const auto good = CachedValidateChain(&cache, w.chain, "api.test.com",
                                              0, w.store, opts);
        const auto bad = CachedValidateChain(&cache, w.chain, "evil.com", 0,
                                             w.store, opts);
        if (good.ok() && bad.status == ValidationStatus::kHostnameMismatch) {
          ++ok_counts[t];
        }
      }
    });
  }
  for (std::thread& th : workers) th.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kReps);
  const util::MemoStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads * kReps * 2));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(cache.EntryCount(), stats.entries);  // the shards agree once joined
  EXPECT_GE(stats.hits, stats.lookups - 2u * kThreads);  // ≤ one miss/thread/tuple
}

}  // namespace
}  // namespace pinscope::x509
