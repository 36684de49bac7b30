#include "anycast/analysis/run_report.hpp"

#include <cstdio>

#include "anycast/net/internet.hpp"

namespace anycast::analysis {
namespace {

/// Splits `text` into lines, dropping the trailing empty piece.
std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

bool looks_like_event(std::string_view line) {
  return line.size() > 2 && line.front() == '{' && line.back() == '}' &&
         line.find("\"class\":\"") != std::string_view::npos &&
         line.find("\"key\":\"") != std::string_view::npos;
}

}  // namespace

std::string journal_field(std::string_view line, std::string_view name) {
  const std::string needle = "\"" + std::string(name) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return "";
  std::size_t begin = at + needle.size();
  if (begin >= line.size()) return "";
  if (line[begin] == '"') {
    ++begin;
    std::size_t end = begin;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\') ++end;
      ++end;
    }
    return std::string(line.substr(begin, end - begin));
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return std::string(line.substr(begin, end - begin));
}

JournalSummary summarize_journal(std::string_view journal_text) {
  JournalSummary summary;
  for (const std::string_view line : split_lines(journal_text)) {
    if (line.empty()) continue;
    if (!looks_like_event(line)) {
      ++summary.malformed_lines;
      continue;
    }
    ++summary.total_events;
    const std::string cls = journal_field(line, "class");
    if (cls == "semantic") {
      ++summary.semantic_events;
    } else {
      ++summary.timing_events;
    }
    const std::string key = journal_field(line, "key");
    ++summary.by_key[key];
    ++summary.by_severity[journal_field(line, "sev")];
    if (key == "census.summary") {
      summary.last_census_summary = std::string(line);
    }
  }
  return summary;
}

std::vector<std::string> semantic_journal_lines(std::string_view text) {
  std::vector<std::string> out;
  for (const std::string_view line : split_lines(text)) {
    if (line.empty() || !looks_like_event(line)) continue;
    if (journal_field(line, "class") == "semantic") {
      out.emplace_back(line);
    }
  }
  return out;
}

Divergence journal_drift(std::string_view journal_a,
                         std::string_view journal_b) {
  const std::vector<std::string> a = semantic_journal_lines(journal_a);
  const std::vector<std::string> b = semantic_journal_lines(journal_b);
  Divergence result;
  result.left_count = a.size();
  result.right_count = b.size();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      result.diverged = true;
      result.index = i;
      result.left = a[i];
      result.right = b[i];
      return result;
    }
  }
  if (a.size() != b.size()) {
    result.diverged = true;
    result.index = common;
    if (common < a.size()) result.left = a[common];
    if (common < b.size()) result.right = b[common];
  }
  return result;
}

std::string render_run_report_markdown(const RunReportInputs& inputs) {
  std::string out = "# anycastd run report\n";
  char line[256];

  if (inputs.census != nullptr) {
    const GlanceRow all = inputs.census->glance_all();
    out += "\n## Census characterisation\n\n";
    std::snprintf(line, sizeof line,
                  "- anycast /24: **%zu** in **%zu** ASes\n"
                  "- replicas: %llu across %zu cities, %zu countries\n",
                  all.ip24, all.ases,
                  static_cast<unsigned long long>(all.replicas), all.cities,
                  all.countries);
    out += line;
    out += "\n| AS | category | IP/24 | mean replicas |\n";
    out += "|---|---|---|---|\n";
    const auto ases = inputs.census->ases();
    for (std::size_t i = 0; i < inputs.top_ases && i < ases.size(); ++i) {
      const AsReport& as_report = ases[i];
      std::snprintf(line, sizeof line, "| %s | %s | %zu | %.1f |\n",
                    as_report.deployment->whois_name.c_str(),
                    std::string(net::to_string(as_report.deployment->category))
                        .c_str(),
                    as_report.detected_ip24, as_report.mean_replicas);
      out += line;
    }
  }

  if (inputs.journal != nullptr) {
    const JournalSummary& j = *inputs.journal;
    out += "\n## Flight recorder\n\n";
    std::snprintf(line, sizeof line,
                  "- events: %zu (%zu semantic, %zu timing, %zu malformed "
                  "lines)\n",
                  j.total_events, j.semantic_events, j.timing_events,
                  j.malformed_lines);
    out += line;
    out += "- by severity:";
    for (const auto& [severity, count] : j.by_severity) {
      std::snprintf(line, sizeof line, " %s=%zu", severity.c_str(), count);
      out += line;
    }
    out += "\n\n| event key | count |\n|---|---|\n";
    for (const auto& [key, count] : j.by_key) {
      std::snprintf(line, sizeof line, "| %s | %zu |\n", key.c_str(), count);
      out += line;
    }
    if (!j.last_census_summary.empty()) {
      out += "\nlast census.summary:\n\n```json\n";
      out += j.last_census_summary;
      out += "\n```\n";
    }
  }

  if (inputs.registry != nullptr) {
    out += "\n## Semantic metrics snapshot\n\n```\n";
    out += inputs.registry->semantic_snapshot();
    out += "```\n";
  }
  return out;
}

std::string render_run_report_json(const RunReportInputs& inputs) {
  std::string out = "{";
  bool first = true;
  const auto section = [&out, &first](std::string_view name) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    out += name;
    out += "\":";
  };
  char buffer[256];

  if (inputs.census != nullptr) {
    const GlanceRow all = inputs.census->glance_all();
    section("census");
    std::snprintf(buffer, sizeof buffer,
                  "{\"anycast_ip24\":%zu,\"ases\":%zu,\"replicas\":%llu,"
                  "\"cities\":%zu,\"countries\":%zu}",
                  all.ip24, all.ases,
                  static_cast<unsigned long long>(all.replicas), all.cities,
                  all.countries);
    out += buffer;
  }
  if (inputs.journal != nullptr) {
    const JournalSummary& j = *inputs.journal;
    section("journal");
    std::snprintf(buffer, sizeof buffer,
                  "{\"events\":%zu,\"semantic\":%zu,\"timing\":%zu,"
                  "\"malformed\":%zu,\"by_key\":{",
                  j.total_events, j.semantic_events, j.timing_events,
                  j.malformed_lines);
    out += buffer;
    bool first_key = true;
    for (const auto& [key, count] : j.by_key) {
      if (!first_key) out += ",";
      first_key = false;
      out += "\"";
      obs::append_json_escaped(out, key);
      std::snprintf(buffer, sizeof buffer, "\":%zu", count);
      out += buffer;
    }
    out += "}}";
  }
  if (inputs.registry != nullptr) {
    section("semantic_snapshot");
    out += "\"";
    obs::append_json_escaped(out, inputs.registry->semantic_snapshot());
    out += "\"";
  }
  out += "\n}\n";
  return out;
}

}  // namespace anycast::analysis
