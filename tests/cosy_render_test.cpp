#include <gtest/gtest.h>

#include "cosy/report_render.hpp"
#include "cosy/specs.hpp"
#include "cosy/store_builder.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/csv.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace perf = kojak::perf;

namespace {

struct Fixture {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;

  Fixture() {
    handles = cosy::build_store(
        store, perf::simulate_experiment(perf::workloads::imbalanced_ocean(),
                                         {1, 8, 32}));
  }
};

}  // namespace

TEST(Render, MarkdownContainsRankedTable) {
  Fixture fx;
  cosy::Analyzer analyzer(fx.model, fx.store, fx.handles);
  const cosy::AnalysisReport report = analyzer.analyze(2);
  const std::string md = cosy::to_markdown(report, 5);
  EXPECT_NE(md.find("# COSY analysis: ocean_sim on 32 PEs"), std::string::npos);
  EXPECT_NE(md.find("**bottleneck**: `SublinearSpeedup` @ `main`"),
            std::string::npos);
  EXPECT_NE(md.find("| 1 | SublinearSpeedup | `main` |"), std::string::npos);
  EXPECT_NE(md.find("further findings omitted"), std::string::npos);
}

TEST(Render, MarkdownHandlesEmptyReport) {
  cosy::AnalysisReport empty;
  empty.program = "idle";
  empty.pe_count = 1;
  const std::string md = cosy::to_markdown(empty);
  EXPECT_NE(md.find("none (no property holds)"), std::string::npos);
}

TEST(Render, CsvParsesBackRowPerFinding) {
  Fixture fx;
  cosy::Analyzer analyzer(fx.model, fx.store, fx.handles);
  const cosy::AnalysisReport report = analyzer.analyze(2);
  const std::string csv = cosy::to_csv(report);

  std::size_t lines = 0;
  std::size_t start = 0;
  std::vector<std::string> first_data_row;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const auto fields =
        kojak::support::parse_csv_line(csv.substr(start, end - start));
    EXPECT_EQ(fields.size(), 7u);
    if (lines == 1) first_data_row = fields;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, report.findings.size() + 1);  // header + rows
  ASSERT_FALSE(first_data_row.empty());
  EXPECT_EQ(first_data_row[1], "SublinearSpeedup");
  EXPECT_EQ(first_data_row[6], "yes");
}

TEST(Render, SeverityMatrixTracksRuns) {
  Fixture fx;
  cosy::Analyzer analyzer(fx.model, fx.store, fx.handles);
  std::vector<cosy::AnalysisReport> reports;
  for (std::size_t run = 0; run < 3; ++run) {
    reports.push_back(analyzer.analyze(run));
  }
  const std::string matrix = cosy::severity_matrix(reports, 10);
  EXPECT_NE(matrix.find("1 PE"), std::string::npos);
  EXPECT_NE(matrix.find("8 PE"), std::string::npos);
  EXPECT_NE(matrix.find("32 PE"), std::string::npos);
  EXPECT_NE(matrix.find("SublinearSpeedup @ main"), std::string::npos);
  // The reference run has no SublinearSpeedup -> '-' in the first column.
  const std::size_t row = matrix.find("SublinearSpeedup @ main");
  const std::size_t eol = matrix.find('\n', row);
  const std::string line = matrix.substr(row, eol - row);
  EXPECT_NE(line.find('-'), std::string::npos);
}

TEST(Render, SeverityMatrixEmptyInput) {
  EXPECT_FALSE(cosy::severity_matrix({}).empty());
}
