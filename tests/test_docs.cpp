// Documentation drift guards — the only doc gate.  The docs are part of the
// contract:
//
//   * merlin_cli's option parser, its usage() string, and README.md's flag
//     table must list exactly the same set of --flags;
//   * every name table in docs/ (counters, gauges, spans, lifetime
//     histograms, flight events, fault sites, kernel and cache entry
//     points, wire messages and errors) sits between
//     `<!-- names:<id>:begin -->` / `<!-- names:<id>:end -->` markers, and
//     its first column must equal, as a set, the names the code defines —
//     read from the name enums or the `/// kernel-entry:` /
//     `/// cache-entry:` header annotations.  The docs keep the description
//     column (paper anchors, cross links); the code owns the names;
//   * every intra-repo markdown link must resolve.
//
// Compiled with MERLIN_SOURCE_DIR pointing at the repo root so the tests can
// read the sources regardless of the build directory location.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/faultinject.h"
#include "serve/protocol.h"

namespace merlin {
namespace {

namespace fs = std::filesystem;

const fs::path kRoot = MERLIN_SOURCE_DIR;

/// Contents of `path`, taken relative to the repo root unless absolute.
std::string read_file(const fs::path& path) {
  std::ifstream in(kRoot / path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << kRoot / path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// All distinct `--flag` tokens in `text`.
std::set<std::string> extract_flags(const std::string& text) {
  std::set<std::string> flags;
  static const std::regex re("--[a-z][a-z0-9-]*");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it)
    flags.insert(it->str());
  return flags;
}

std::string join(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& x : s) out += x + " ";
  return out;
}

// -- name tables ------------------------------------------------------------

/// The trimmed cells of one markdown table row; backticks around the first
/// cell (the name column) are stripped.
using Row = std::vector<std::string>;

/// Body rows of the table between the `names:<id>` markers in `doc`, or
/// nullopt when either marker is missing.  Header and separator rows are
/// not body rows.
std::optional<std::vector<Row>> marked_rows(const std::string& doc,
                                            const std::string& id) {
  const std::string begin = "<!-- names:" + id + ":begin -->";
  const std::string end = "<!-- names:" + id + ":end -->";
  const std::size_t b = doc.find(begin);
  const std::size_t e = doc.find(end);
  if (b == std::string::npos || e == std::string::npos || e < b)
    return std::nullopt;

  std::vector<Row> rows;
  std::istringstream lines(doc.substr(b + begin.size(), e - b - begin.size()));
  std::string line;
  bool body = false;  // past the |---| separator of the current table
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') {
      body = false;
      continue;
    }
    if (line.find_first_not_of("|-: ") == std::string::npos) {
      body = true;
      continue;
    }
    if (!body) continue;
    Row row;
    std::istringstream cells(line.substr(1));
    std::string cell;
    while (std::getline(cells, cell, '|')) {
      const std::size_t first = cell.find_first_not_of(' ');
      const std::size_t last = cell.find_last_not_of(' ');
      row.push_back(first == std::string::npos
                        ? ""
                        : cell.substr(first, last - first + 1));
    }
    std::string& name = row.at(0);
    if (name.size() >= 2 && name.front() == '`' && name.back() == '`')
      name = name.substr(1, name.size() - 2);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// "" when the first column of the `names:<id>` table in `doc` equals
/// `code` as a set; otherwise a report naming the table and every name the
/// doc lacks (missing) or lists without the code defining it (stale).
std::string name_table_diff(const std::string& doc, const std::string& id,
                            const std::set<std::string>& code) {
  const std::optional<std::vector<Row>> rows = marked_rows(doc, id);
  if (!rows) return "names:" + id + ": markers missing";
  if (rows->empty()) return "names:" + id + ": no rows between the markers";
  std::set<std::string> documented;
  for (const Row& r : *rows) documented.insert(r[0]);
  std::string report;
  for (const std::string& n : code)
    if (!documented.count(n)) report += " missing `" + n + "`";
  for (const std::string& n : documented)
    if (!code.count(n)) report += " stale `" + n + "`";
  return report.empty() ? "" : "names:" + id + ":" + report;
}

/// Names of every enumerator of a `kCount`-terminated enum.
template <class E>
std::set<std::string> enum_names(const char* (*name)(E)) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(E::kCount); ++i)
    out.insert(name(static_cast<E>(i)));
  return out;
}

/// Name → numeric code of every raw u8 value that `name` knows.
template <class E>
std::map<std::string, unsigned> wire_codes(const char* (*name)(E)) {
  std::map<std::string, unsigned> out;
  for (unsigned raw = 0; raw <= 255; ++raw) {
    const std::string n = name(static_cast<E>(raw));
    if (n != "unknown") out[n] = raw;
  }
  return out;
}

/// The names of wire_codes(name).
template <class E>
std::set<std::string> wire_names(const char* (*name)(E)) {
  std::set<std::string> out;
  for (const auto& [n, raw] : wire_codes(name)) out.insert(n);
  return out;
}

/// Names carried by `/// <tag>: <Name>` annotations in the headers of the
/// source directory `dir`.
std::set<std::string> annotated(const std::string& dir,
                                const std::string& tag) {
  std::set<std::string> out;
  const std::regex re("^/// " + tag + ": ([A-Za-z_][A-Za-z0-9_]*)",
                      std::regex::multiline);
  for (const fs::directory_entry& h : fs::directory_iterator(kRoot / dir)) {
    if (h.path().extension() != ".h") continue;
    const std::string text = read_file(h.path());
    for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
         it != std::sregex_iterator(); ++it)
      out.insert((*it)[1].str());
  }
  return out;
}

// -- links ------------------------------------------------------------------

/// Targets of the markdown links in `md` (a file in `dir`) that resolve to
/// nothing.  Links inside ``` fences, URLs, mailto:, pure #anchors and
/// targets containing a space (code such as `[&](const Net& n)`) are not
/// checked; `checked` counts the rest.
std::vector<std::string> broken_links(const std::string& md,
                                      const fs::path& dir,
                                      std::size_t& checked) {
  static const std::regex link_re("\\]\\(([^)]+)\\)");
  std::vector<std::string> broken;
  std::istringstream lines(md);
  std::string line;
  bool fence = false;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) {
      fence = !fence;
      continue;
    }
    if (fence) continue;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), link_re);
         it != std::sregex_iterator(); ++it) {
      std::string target = (*it)[1].str();
      if (target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
          target.rfind("mailto:", 0) == 0 || target[0] == '#' ||
          target.find(' ') != std::string::npos)
        continue;
      target = target.substr(0, target.find('#'));
      ++checked;
      if (!fs::exists(dir / target)) broken.push_back(target);
    }
  }
  return broken;
}

// -- tests ------------------------------------------------------------------

TEST(Docs, CliParserUsageStringAndReadmeAgreeOnFlags) {
  const std::string cli = read_file("tools/merlin_cli.cpp");

  // Flags the parser actually accepts: every `a == "--x"` comparison.
  std::set<std::string> parser;
  static const std::regex cmp_re("==\\s*\"(--[a-z][a-z0-9-]*)\"");
  for (auto it = std::sregex_iterator(cli.begin(), cli.end(), cmp_re);
       it != std::sregex_iterator(); ++it)
    parser.insert((*it)[1].str());
  ASSERT_FALSE(parser.empty());

  // Flags the binary prints in its usage() string.
  const std::size_t ub = cli.find("void usage()");
  const std::size_t ue = cli.find("std::exit", ub);
  ASSERT_NE(ub, std::string::npos);
  ASSERT_NE(ue, std::string::npos);
  const std::set<std::string> usage = extract_flags(cli.substr(ub, ue - ub));

  // Flags README.md documents in its merlin_cli flag table (rows shaped
  // `| \`--flag ...\` | ... |`).
  const std::string readme = read_file("README.md");
  std::set<std::string> documented;
  std::istringstream lines(readme);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind("| `--", 0) == 0)
      for (const std::string& f : extract_flags(line)) documented.insert(f);

  EXPECT_EQ(parser, usage)
      << "parser accepts [" << join(parser) << "] but usage() advertises ["
      << join(usage) << "]";
  EXPECT_EQ(parser, documented)
      << "parser accepts [" << join(parser) << "] but README documents ["
      << join(documented) << "]";
}

TEST(Docs, NameTablesMatchCode) {
  struct NameTable {
    const char* doc;
    const char* id;
    std::set<std::string> names;
  };
  const NameTable tables[] = {
      {"docs/OBSERVABILITY.md", "counters", enum_names(counter_name)},
      {"docs/OBSERVABILITY.md", "gauges", enum_names(gauge_name)},
      {"docs/OBSERVABILITY.md", "spans", enum_names(span_name)},
      {"docs/OBSERVABILITY.md", "lifetime-hists",
       enum_names(lifetime_hist_name)},
      {"docs/OBSERVABILITY.md", "flight-events", enum_names(flight_event_name)},
      {"docs/ROBUSTNESS.md", "fault-sites", enum_names(fault_site_name)},
      {"docs/ALGORITHM.md", "kernel-entries",
       annotated("src/curve", "kernel-entry")},
      {"docs/API.md", "cache-api", annotated("src/cache", "cache-entry")},
      {"docs/SERVING.md", "msg-types", wire_names(msg_type_name)},
      {"docs/SERVING.md", "serve-errors", wire_names(serve_error_name)},
  };
  for (const NameTable& t : tables) {
    EXPECT_FALSE(t.names.empty()) << t.id << ": the code defines no names";
    EXPECT_EQ(name_table_diff(read_file(t.doc), t.id, t.names), "") << t.doc;
  }
}

TEST(Docs, WireTableCodesMatchEnumValues) {
  const std::string doc = read_file("docs/SERVING.md");
  const std::map<std::string, std::map<std::string, unsigned>> tables = {
      {"msg-types", wire_codes(msg_type_name)},
      {"serve-errors", wire_codes(serve_error_name)},
  };
  for (const auto& [id, codes] : tables) {
    const std::optional<std::vector<Row>> rows = marked_rows(doc, id);
    ASSERT_TRUE(rows) << "names:" << id << " markers missing";
    for (const Row& r : *rows) {
      const auto it = codes.find(r[0]);
      if (it == codes.end()) continue;  // stale rows: NameTablesMatchCode
      ASSERT_GE(r.size(), 2u) << r[0];
      EXPECT_EQ(r[1], std::to_string(it->second))
          << "docs/SERVING.md names:" << id << " `" << r[0] << "`";
    }
  }
}

TEST(Docs, NameTableDiffReportsMissingAndStaleRowsByName) {
  const std::string doc =
      "| `outside` | ignored: not between the markers |\n"
      "<!-- names:demo:begin -->\n"
      "| name | meaning |\n"
      "|---|---|\n"
      "| `kept` | in both |\n"
      "| `stale` | doc only |\n"
      "<!-- names:demo:end -->\n";
  EXPECT_EQ(name_table_diff(doc, "demo", {"kept", "stale"}), "");
  EXPECT_EQ(name_table_diff(doc, "demo", {"kept", "stale", "outside"}),
            "names:demo: missing `outside`");
  EXPECT_EQ(name_table_diff(doc, "demo", {"kept", "added"}),
            "names:demo: missing `added` stale `stale`");
}

TEST(Docs, NameTableDiffFailsWithoutMarkersOrRows) {
  const std::string table = "| name |\n|---|\n| `a` |\n";
  const std::string begin = "<!-- names:demo:begin -->\n";
  EXPECT_EQ(name_table_diff(table, "demo", {"a"}),
            "names:demo: markers missing");
  EXPECT_EQ(name_table_diff(begin + table, "demo", {"a"}),
            "names:demo: markers missing");
  EXPECT_EQ(name_table_diff(begin + "| name |\n|---|\n"
                            "<!-- names:demo:end -->\n",
                            "demo", {"a"}),
            "names:demo: no rows between the markers");
}

TEST(Docs, LinkCheckSkipsFencesUrlsAndAnchorsButNotBrokenPaths) {
  const std::string md =
      "[ok](INDEX.md#anchor) [up](../README.md)\n"
      "```\n[fenced](nowhere.md)\n```\n"
      "[url](https://example.com/x.md) [mail](mailto:a@b.c) [here](#top)\n"
      "[code](const Net& n) [gone](missing.md)\n";
  std::size_t checked = 0;
  EXPECT_EQ(broken_links(md, kRoot / "docs", checked),
            std::vector<std::string>{"missing.md"});
  EXPECT_EQ(checked, 3u);
}

TEST(Docs, IntraRepoLinksResolve) {
  std::size_t checked = 0;
  for (auto it = fs::recursive_directory_iterator(kRoot);
       it != fs::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() && (name.rfind("build", 0) == 0 ||
                               name == ".bench_build" || name == ".git")) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->path().extension() != ".md") continue;
    for (const std::string& target :
         broken_links(read_file(it->path()), it->path().parent_path(), checked))
      ADD_FAILURE() << "broken link in "
                    << fs::relative(it->path(), kRoot).string() << ": "
                    << target;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Docs, ObservabilityDocStatesTheCurrentSchemaVersion) {
  const std::string doc = read_file("docs/OBSERVABILITY.md");
  EXPECT_NE(doc.find("merlin.stats"), std::string::npos);
  const std::string version_line =
      "\"schema_version\": " + std::to_string(kStatsSchemaVersion);
  EXPECT_NE(doc.find(version_line), std::string::npos)
      << "docs/OBSERVABILITY.md must show the current schema_version ("
      << kStatsSchemaVersion << ") in its worked example";
}

}  // namespace
}  // namespace merlin
