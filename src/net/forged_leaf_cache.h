// Study-wide forged-leaf chain cache.
//
// mitmproxy keeps a per-process certificate cache so each SNI is forged
// once; at study scale the same hostnames recur across *apps* (shared SDK
// endpoints, CDNs), so pinscope hoists that cache to study scope: one
// hostname → forged-chain memo shared by every app and worker thread. This
// is sound because forged-leaf bytes are a pure function of (CA label, study
// seed, hostname) — see MitmProxy, which derives issuance randomness from a
// stable per-hostname fork instead of any caller stream — so every would-be
// issuer deposits identical bytes (util/sharded_memo.h). Entries are
// shared_ptrs so readers never copy a chain.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/sharded_memo.h"
#include "x509/certificate.h"

namespace pinscope::net {

/// Transparent hostname hash: the memo is looked up by string_view without
/// building a std::string.
struct HostnameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Thread-safe, deterministic hostname → forged-chain map. One instance can
/// be shared by every MitmProxy view of a study.
using ForgedLeafCache =
    util::ShardedMemo<std::string, std::shared_ptr<const x509::CertificateChain>,
                      HostnameHash>;

}  // namespace pinscope::net
