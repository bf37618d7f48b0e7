// Regression suite for the forged-leaf purity contract (DESIGN.md §10): the
// DER bytes of the leaf a MitmProxy forges for a hostname depend only on
// (study seed, CA label, hostname) — never on which app asked, in what
// order, from which thread, or whether the forged-leaf cache is shared.
// That contract is what makes a single study-wide cache sound. The suite is
// tagged `dynamic` and runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "net/forged_leaf_cache.h"
#include "net/mitm_proxy.h"

namespace pinscope::net {
namespace {

const x509::Certificate& Leaf(const MitmProxy& proxy,
                              const std::string& hostname) {
  return proxy.ForgedChainFor(hostname)->front();
}

TEST(ForgedLeafDeterminismTest, BytesDependOnlyOnSeedAndHostname) {
  const MitmProxy a("mitmproxy", 42);
  const MitmProxy b("mitmproxy", 42);

  // Independent proxies, same seed: identical forged bytes per hostname.
  EXPECT_EQ(Leaf(a, "api.shared.com").DerBytes(),
            Leaf(b, "api.shared.com").DerBytes());
  EXPECT_EQ(Leaf(a, "cdn.other.net").DerBytes(),
            Leaf(b, "cdn.other.net").DerBytes());

  // Distinct hostnames get distinct leaves.
  EXPECT_NE(Leaf(a, "api.shared.com").DerBytes(),
            Leaf(a, "cdn.other.net").DerBytes());

  // A different seed changes the forged key material.
  const MitmProxy c("mitmproxy", 43);
  EXPECT_NE(Leaf(a, "api.shared.com").DerBytes(),
            Leaf(c, "api.shared.com").DerBytes());
}

TEST(ForgedLeafDeterminismTest, RequestOrderIsIrrelevant) {
  const MitmProxy forward("mitmproxy", 7);
  const MitmProxy backward("mitmproxy", 7);
  const std::vector<std::string> hosts = {"a.example.com", "b.example.com",
                                          "c.example.com", "d.example.com"};
  for (const auto& h : hosts) (void)forward.ForgedChainFor(h);
  for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
    (void)backward.ForgedChainFor(*it);
  }
  for (const auto& h : hosts) {
    EXPECT_EQ(Leaf(forward, h).DerBytes(), Leaf(backward, h).DerBytes())
        << h;
  }
}

TEST(ForgedLeafDeterminismTest, SharedCacheMatchesPrivateCaches) {
  // Two proxies sharing one cache (the study-fixture arrangement) must serve
  // the same bytes a cacheless-by-sharing proxy would forge on its own.
  auto shared = std::make_shared<ForgedLeafCache>();
  const MitmProxy first("mitmproxy", 11, shared);
  const MitmProxy second("mitmproxy", 11, shared);
  const MitmProxy solo("mitmproxy", 11);

  const auto chain1 = first.ForgedChainFor("pinned.site.com");
  const auto chain2 = second.ForgedChainFor("pinned.site.com");
  // Same resident entry through the shared cache…
  EXPECT_EQ(chain1.get(), chain2.get());
  // …with the bytes a private-cache proxy derives independently.
  EXPECT_EQ(chain1->front().DerBytes(),
            Leaf(solo, "pinned.site.com").DerBytes());
}

TEST(ForgedLeafDeterminismTest, CallerRngNeverFeedsIssuance) {
  // Intercept jitters the wire trace from the caller's rng; the forged chain
  // it presents must be the rng-independent cached one.
  const MitmProxy proxy("mitmproxy", 5);
  tls::ServerEndpoint server;
  server.hostname = "jitter.test.com";
  server.chain = *proxy.ForgedChainFor("warm.other.com");  // any valid chain

  x509::RootStore store("trusting", {proxy.CaCertificate()});
  tls::ClientTlsConfig cfg;
  cfg.root_store = &store;

  util::Rng rng1(1001);
  util::Rng rng2(2002);
  (void)proxy.Intercept(cfg, server, {}, 0, rng1);
  const auto after_rng1 = proxy.ForgedChainFor("jitter.test.com");
  (void)proxy.Intercept(cfg, server, {}, 0, rng2);

  const MitmProxy fresh("mitmproxy", 5);
  EXPECT_EQ(after_rng1->front().DerBytes(),
            Leaf(fresh, "jitter.test.com").DerBytes());
}

TEST(ForgedLeafDeterminismTest, ConcurrentForgingConvergesToOneChain) {
  auto shared = std::make_shared<ForgedLeafCache>();
  const MitmProxy proxy("mitmproxy", 3, shared);
  const std::vector<std::string> hosts = {"h0.test", "h1.test", "h2.test",
                                          "h3.test", "h4.test"};
  constexpr int kThreads = 8;

  std::vector<std::vector<std::shared_ptr<const x509::CertificateChain>>>
      seen(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the hosts at a different starting offset so
      // insert races actually happen.
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        const auto& host = hosts[(i + static_cast<std::size_t>(t)) % hosts.size()];
        seen[t].push_back(proxy.ForgedChainFor(host));
      }
    });
  }
  for (std::thread& th : workers) th.join();

  // Every thread observed the same resident chain object per hostname.
  const MitmProxy reference("mitmproxy", 3);
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const auto& host = hosts[(i + static_cast<std::size_t>(t)) % hosts.size()];
      const auto expected = proxy.ForgedChainFor(host);
      EXPECT_EQ(seen[t][i].get(), expected.get());
      EXPECT_EQ(seen[t][i]->front().DerBytes(),
                Leaf(reference, host).DerBytes());
    }
  }

  const util::MemoStats stats = shared->Stats();
  EXPECT_EQ(stats.entries, hosts.size());
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

}  // namespace
}  // namespace pinscope::net
