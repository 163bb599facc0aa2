#include "eval/report.h"

#include <cstdio>

#include "util/table_writer.h"

namespace loom {
namespace eval {

void PrintRelativeIptTable(const std::vector<ComparisonResult>& results,
                           std::ostream& os) {
  std::vector<std::string> header = {"dataset", "order", "k"};
  header.insert(header.end(), kPaperSystems.begin(), kPaperSystems.end());
  header.push_back("loom vs fennel");
  util::TableWriter t(std::move(header));
  for (const ComparisonResult& r : results) {
    const SystemResult* fennel = r.Find("fennel");
    const SystemResult* loom = r.Find("loom");
    const double loom_vs_fennel =
        (fennel != nullptr && loom != nullptr && fennel->weighted_ipt > 0)
            ? 1.0 - loom->weighted_ipt / fennel->weighted_ipt
            : 0.0;
    std::vector<std::string> row = {r.dataset, stream::ToString(r.order),
                                    std::to_string(r.k)};
    for (std::string_view s : kPaperSystems) {
      const SystemResult* sr = r.Find(s);
      row.push_back(sr != nullptr ? util::TableWriter::Pct(sr->ipt_vs_hash)
                                  : "-");
    }
    // Positive = Loom suffered fewer ipt than Fennel (an improvement).
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", loom_vs_fennel * 100.0);
    row.push_back(buf);
    t.AddRow(std::move(row));
  }
  t.Print(os);
}

void PrintTimingTable(const std::vector<ComparisonResult>& results,
                      std::ostream& os) {
  // Table 2 lists Hash last.
  std::vector<std::string_view> columns(kPaperSystems.begin() + 1,
                                        kPaperSystems.end());
  columns.push_back(kPaperSystems.front());
  std::vector<std::string> header = {"dataset"};
  for (std::string_view s : columns) header.push_back(std::string(s) + " (ms)");
  util::TableWriter t(std::move(header));
  for (const ComparisonResult& r : results) {
    std::vector<std::string> row = {r.dataset};
    for (std::string_view s : columns) {
      const SystemResult* sr = r.Find(s);
      row.push_back(sr != nullptr
                        ? util::TableWriter::Fmt(sr->ms_per_10k_edges, 1)
                        : "-");
    }
    t.AddRow(std::move(row));
  }
  t.Print(os);
}

void PrintImbalanceTable(const std::vector<ComparisonResult>& results,
                         std::ostream& os) {
  std::vector<std::string> header = {"dataset"};
  header.insert(header.end(), kPaperSystems.begin(), kPaperSystems.end());
  util::TableWriter t(std::move(header));
  for (const ComparisonResult& r : results) {
    std::vector<std::string> row = {r.dataset};
    for (std::string_view s : kPaperSystems) {
      const SystemResult* sr = r.Find(s);
      row.push_back(sr != nullptr ? util::TableWriter::Pct(sr->imbalance)
                                  : "-");
    }
    t.AddRow(std::move(row));
  }
  t.Print(os);
}

}  // namespace eval
}  // namespace loom
