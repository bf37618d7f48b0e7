// End-to-end static analysis of one app (§4.1).
//
// Orchestrates the per-platform steps: Apktool-style decoding (Android trees
// are already decoded), FairPlay decryption (iOS), the scanner, NSC/ATS
// configuration analysis, and optional CT-log resolution of found pin hashes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "appmodel/app.h"
#include "obs/obs.h"
#include "staticanalysis/ats_analyzer.h"
#include "staticanalysis/ios_decrypt.h"
#include "staticanalysis/nsc_analyzer.h"
#include "staticanalysis/scanner.h"
#include "x509/ct_log.h"

namespace pinscope::staticanalysis {

/// Everything static analysis learned about one app.
struct StaticReport {
  std::string app_id;
  appmodel::Platform platform = appmodel::Platform::kAndroid;

  bool decryption_ok = true;  ///< iOS only; false if decryption failed.
  ScanResult scan;
  NscAnalysis nsc;  ///< Android only.
  AtsAnalysis ats;  ///< iOS only.

  /// Certificates resolved from scanned pin hashes via the CT log (§4.1.3).
  std::vector<x509::Certificate> ct_resolved;
  /// Number of distinct scanned pins that resolved in the CT log.
  std::size_t pins_resolved = 0;
  /// Number of distinct well-formed scanned pins.
  std::size_t pins_total = 0;

  /// Paper's "Embedded Certificates" static signal: any certificate or
  /// well-formed pin hash found in the package.
  [[nodiscard]] bool PotentialPinning() const;

  /// Prior-work "Configuration Files" signal (NSC pins; ATS pins on iOS 14+,
  /// reported separately since the paper's device predates it).
  [[nodiscard]] bool ConfigPinning() const;

  /// Paths where pin/cert evidence was found (for attribution).
  [[nodiscard]] std::vector<std::string> EvidencePaths() const;
};

/// Options controlling the static pipeline.
struct StaticAnalysisOptions {
  /// Jailbroken device available for iOS decryption.
  DecryptionDevice device;
  DecryptTool decrypt_tool = DecryptTool::kFlexdecrypt;
  /// CT log for hash→certificate resolution; nullptr skips resolution.
  const x509::CtLog* ct_log = nullptr;
  /// Corpus-wide scan cache shared across apps (scan_cache.h). It holds
  /// files of at least kScanCacheMinBytes (scanner.h); nullptr scans every
  /// file uncached. Results are identical either way.
  ScanCache* scan_cache = nullptr;
  /// Optional observability sink: the per-app scan span plus the study-wide
  /// `static.*` counters. Reports are byte-identical with or without it
  /// (DESIGN.md §11).
  obs::Observer* observer = nullptr;
};

/// Runs the full static pipeline over one app.
[[nodiscard]] StaticReport AnalyzeStatically(const appmodel::App& app,
                                             const StaticAnalysisOptions& options = {});

}  // namespace pinscope::staticanalysis
