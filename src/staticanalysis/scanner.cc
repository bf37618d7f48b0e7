#include "staticanalysis/scanner.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "staticanalysis/scan_cache.h"
#include "util/strings.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {

namespace {

// Minimum printable-run length treated as a "string" in binary files.
constexpr std::size_t kMinStringLen = 6;

// Prefilter pattern indices (construction order in Scanner()).
constexpr std::uint32_t kPemPattern = 0;

// kPinRule's pieces: the two heads share the prefilter literal `sha`, and
// the body class [a-zA-Z0-9+/=] repeats {28,64} times.
constexpr std::string_view kPinHead = "sha";
constexpr std::size_t kPinBodyMin = 28;
constexpr std::size_t kPinBodyMax = 64;
constexpr std::array<bool, 256> kPinBodyClass = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[static_cast<std::size_t>(c)] =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '+' || c == '/' || c == '=';
  }
  return table;
}();

}  // namespace

std::size_t PinMatchLength(std::string_view text, std::size_t pos) {
  if (pos > text.size()) return 0;
  const std::string_view rest = text.substr(pos);
  std::size_t head = 0;
  if (rest.starts_with("sha1/")) {
    head = 5;
  } else if (rest.starts_with("sha256/")) {
    head = 7;
  } else {
    return 0;
  }
  const std::size_t limit = std::min(rest.size(), head + kPinBodyMax);
  std::size_t end = head;
  while (end < limit && kPinBodyClass[static_cast<unsigned char>(rest[end])]) {
    ++end;
  }
  return end - head >= kPinBodyMin ? end : 0;
}

FoundPin FoundPin::FromMatch(std::string_view match, std::size_t offset) {
  FoundPin pin;
  pin.offset = offset;
  pin.digest = tls::DecodePinString(match);
  pin.text_size = static_cast<std::uint8_t>(match.size());
  std::memcpy(pin.text.data(), match.data(), match.size());
  return pin;
}

bool ScanResult::HasPinningEvidence() const {
  if (!certificates.empty()) return true;
  return std::any_of(pins.begin(), pins.end(),
                     [](const FoundPin& pin) { return pin.well_formed(); });
}

const std::vector<std::string>& CertFileSuffixes() {
  static const std::vector<std::string> suffixes = {".der", ".pem", ".crt",
                                                    ".cert", ".cer"};
  return suffixes;
}

bool HasCertFileSuffix(std::string_view path) {
  for (const std::string& suffix : CertFileSuffixes()) {
    if (util::EndsWithIgnoreCase(path, suffix)) return true;
  }
  return false;
}

namespace {

// Heuristic: treat content as binary if it contains NUL or a significant
// fraction of non-printable bytes in its head.
bool LooksBinary(const util::Bytes& data) {
  const std::size_t probe = std::min<std::size_t>(data.size(), 512);
  std::size_t nonprint = 0;
  for (std::size_t i = 0; i < probe; ++i) {
    if (data[i] == 0) return true;
    if (data[i] < 0x09 || (data[i] > 0x0d && data[i] < 0x20) || data[i] > 0x7e) {
      ++nonprint;
    }
  }
  return probe > 0 && nonprint * 10 > probe;  // >10% non-printable
}

// Appends one file's pins to `out` with one bulk copy and one path entry.
// The records are flat, so this is a memcpy plus the path_index stamp.
void AppendPins(const std::vector<FoundPin>& pins, const std::string& path,
                ScanResult& out) {
  if (pins.empty()) return;
  const auto path_index = static_cast<std::uint32_t>(out.pin_paths.size());
  out.pin_paths.push_back(path);
  const std::size_t first = out.pins.size();
  out.pins.insert(out.pins.end(), pins.begin(), pins.end());
  for (std::size_t i = first; i < out.pins.size(); ++i) {
    out.pins[i].path_index = path_index;
  }
}

// Appends a cached (path-less) outcome to `out`, rebinding it to the
// observing file. Copying: the entry stays cache-resident.
void AppendRebound(const CachedFileScan& scan, const std::string& path,
                   ScanResult& out) {
  out.certificates.reserve(out.certificates.size() + scan.certificates.size());
  for (const FoundCertificate& c : scan.certificates) {
    out.certificates.push_back(c);
    out.certificates.back().path = path;
  }
  AppendPins(scan.pins, path, out);
}

// Move flavor for outcomes that are not kept anywhere else (uncached files).
void AppendOwned(CachedFileScan&& scan, const std::string& path, ScanResult& out) {
  out.certificates.reserve(out.certificates.size() + scan.certificates.size());
  for (FoundCertificate& c : scan.certificates) {
    c.path = path;
    out.certificates.push_back(std::move(c));
  }
  AppendPins(scan.pins, path, out);
}

}  // namespace

Scanner::Scanner()
    : prefilter_({std::string(x509::kPemBegin), std::string(kPinHead)}) {}

// Consumes the prefilter hits that fall inside `text`, which starts at byte
// `base` of the swept file (0 when `text` is the whole file). Every PEM BEGIN
// marker and every `sha` arrives in one position-ordered stream, consumed by
// two independent cursors; certificates and pins land in their own vectors.
void Scanner::ConsumeHits(const PrefilterHit* begin, const PrefilterHit* end,
                          std::string_view text, std::size_t base,
                          CachedFileScan& out) const {
  // PEM cursor: everything before `pem_resume` is inside an already-decoded
  // block (PemDecodeAll's skip-inside-body rule).
  std::size_t pem_resume = 0;
  // Pin cursor: matches are leftmost-longest and non-overlapping, so none
  // starts before the end of the last one — a `sha256/` inside a pin body
  // is part of that pin. A match can only start at a `sha`, so trying each
  // hit past the cursor finds every match a try-every-position sweep would.
  std::size_t pin_resume = 0;

  for (const PrefilterHit* it = begin; it != end; ++it) {
    const std::size_t pos = it->pos - base;  // text-relative
    if (it->pattern == kPemPattern) {
      if (pos < pem_resume) continue;
      if (auto cert = x509::PemDecodeAt(text, pos, &pem_resume)) {
        out.certificates.push_back({std::string(), std::move(*cert), true});
      }
      continue;
    }
    if (pos < pin_resume) continue;
    const std::size_t len = PinMatchLength(text, pos);
    if (len == 0) continue;
    // The offset is absolute within the file: content-derived evidence the
    // decision journal can point at.
    out.pins.push_back(FoundPin::FromMatch(text.substr(pos, len), it->pos));
    pin_resume = pos + len;
  }
}

void Scanner::ScanFile(const util::Bytes& content, bool is_cert_file,
                       CachedFileScan& out) const {
  const std::string_view text(reinterpret_cast<const char*>(content.data()),
                              content.size());
  // (a) Certificate files by extension.
  if (is_cert_file) {
    if (auto cert = x509::PemDecode(text)) {
      out.certificates.push_back({std::string(), std::move(*cert), true});
      return;
    }
    if (auto cert = x509::Certificate::ParseDer(content)) {
      out.certificates.push_back({std::string(), std::move(*cert), false});
      return;
    }
    // Unparseable cert file: fall through to content scanning.
  }

  // (b)+(c) Content scanning: one prefilter sweep over the whole file;
  // binaries then confine each rule to the printable run it starts in.
  thread_local std::vector<PrefilterHit> hits;
  prefilter_.FindAll(text, hits);
  if (LooksBinary(content)) {
    ScanBinaryPrefiltered(text, hits, out);
  } else {
    ConsumeHits(hits.data(), hits.data() + hits.size(), text, 0, out);
  }
}

// Binary files: the raw-byte sweep's hits plus one vectorized printable-run
// classification, equivalent to scanning each printable run on its own.
// Every literal is printable ASCII, so an occurrence in the raw bytes lies
// entirely inside a maximal printable run — hits are just partitioned by
// run, and hits inside disqualified (< kMinStringLen) runs are dropped.
// ConsumeHits sees only the run's view, so a match still cannot cross a run
// boundary.
void Scanner::ScanBinaryPrefiltered(std::string_view text,
                                    const std::vector<PrefilterHit>& hits,
                                    CachedFileScan& out) const {
  thread_local std::vector<PrintableRun> runs;
  FindPrintableRuns(text, kMinStringLen, prefilter_.level(), runs);

  const PrefilterHit* it = hits.data();
  const PrefilterHit* const end = it + hits.size();
  for (const PrintableRun& run : runs) {
    if (it == end) break;
    while (it != end && it->pos < run.offset) ++it;  // gap/short-run hits
    const PrefilterHit* run_end = it;
    while (run_end != end && run_end->pos < run.offset + run.length) ++run_end;
    if (it != run_end) {
      ConsumeHits(it, run_end, text.substr(run.offset, run.length), run.offset,
                  out);
      it = run_end;
    }
  }
}

ScanResult Scanner::Scan(const appmodel::PackageFiles& files, ScanCache* cache,
                         obs::MetricsRegistry* metrics) const {
  ScanResult out;
  for (const auto& [path, content] : files.files()) {
    ++out.files_scanned;
    out.bytes_scanned += content.size();
    const bool is_cert_file = HasCertFileSuffix(path);

    if (cache == nullptr || content.size() < kScanCacheMinBytes) {
      CachedFileScan scan;
      ScanFile(content, is_cert_file, scan);
      AppendOwned(std::move(scan), path, out);
      continue;
    }

    // The scan branch taken depends on the cert-file flag as well as the
    // bytes, so both are part of the cache key.
    const ScanCache::Key key = ScanCache::MakeKey(content, is_cert_file);
    if (const auto hit = cache->Find(key)) {
      ++out.cache_hits;
      out.cache_bytes_deduped += content.size();
      AppendRebound(**hit, path, out);
      continue;
    }
    CachedFileScan scan;
    ScanFile(content, is_cert_file, scan);
    const auto resident = cache->Insert(
        key, std::make_shared<const CachedFileScan>(std::move(scan)));
    AppendRebound(*resident, path, out);
  }
  if (metrics != nullptr) {
    metrics->counter("static.files_scanned").Add(out.files_scanned);
    metrics->counter("static.bytes_scanned").Add(out.bytes_scanned);
    metrics->counter("static.cache_hits").Add(out.cache_hits);
    metrics->counter("static.bytes_deduped").Add(out.cache_bytes_deduped);
    metrics->counter("static.certificates_found").Add(out.certificates.size());
    metrics->counter("static.pins_found").Add(out.pins.size());
  }
  return out;
}

}  // namespace pinscope::staticanalysis
