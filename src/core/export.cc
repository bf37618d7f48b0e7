#include "core/export.h"

#include "core/stream_export.h"
#include "report/csv_writer.h"
#include "report/json_writer.h"

namespace pinscope::core {

std::string AppResultJsonLine(const AppResult& r, appmodel::Platform p) {
  report::JsonWriter w;
  w.BeginObject();
  w.Key("app_id");
  w.String(r.app->meta.app_id);
  w.Key("platform");
  w.String(PlatformName(p));
  w.Key("pins_at_runtime");
  w.Bool(r.dynamic_report.AppPins());
  w.Key("potential_pinning");
  w.Bool(r.static_report.PotentialPinning());
  w.Key("pinned_destinations");
  w.BeginArray();
  for (const auto& host : r.dynamic_report.PinnedDestinations()) w.String(host);
  w.EndArray();
  w.EndObject();
  return w.TakeString() + "\n";
}

std::vector<std::string> StudyCsvHeader() {
  return {"app_id", "platform", "hostname", "pinned", "circumvented"};
}

std::vector<std::vector<std::string>> AppResultCsvRows(const AppResult& r,
                                                       appmodel::Platform p) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& dest : r.dynamic_report.destinations) {
    rows.push_back({r.app->meta.app_id, std::string(PlatformName(p)),
                    dest.hostname, dest.pinned ? "1" : "0",
                    dest.circumvented ? "1" : "0"});
  }
  return rows;
}

report::AppVerdict AppResultVerdict(const AppResult& r, appmodel::Platform p) {
  report::AppVerdict v;
  v.platform = std::string(PlatformName(p));
  v.app_id = r.app->meta.app_id;
  v.pins_at_runtime = r.dynamic_report.AppPins();
  v.potential_pinning = r.static_report.PotentialPinning();
  v.config_pinning = r.static_report.ConfigPinning();
  v.pinned_hosts = r.dynamic_report.PinnedDestinations();
  return v;
}

std::string ExportStudyJson(const Study& study) {
  return study.exporter().FinishJson();
}

std::string ExportStudyCsv(const Study& study) {
  return study.exporter().FinishCsv();
}

std::vector<report::AppVerdict> CollectAppVerdicts(const Study& study) {
  return study.exporter().FinishVerdicts();
}

}  // namespace pinscope::core
