#include "stats/result_sink.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>

#include "util/assert.hpp"
#include "util/sysinfo.hpp"

namespace bcp::stats {

namespace {

/// Shortest round-trip decimal form (std::to_chars), so JSON output is
/// readable, exact, and byte-stable.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  BCP_ENSURE(res.ec == std::errc());
  std::string s(buf, res.ptr);
  // Bare JSON has no inf/nan literals; emit null (consumers treat it as
  // "no value", which is what an empty-sample statistic is).
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos)
    return "null";
  return s;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

ResultSink::PointAgg* ResultSink::find(std::size_t point_index) {
  for (auto& p : points_)
    if (p.point_index == point_index) return &p;
  return nullptr;
}

const ResultSink::PointAgg* ResultSink::find(std::size_t point_index) const {
  for (const auto& p : points_)
    if (p.point_index == point_index) return &p;
  return nullptr;
}

void ResultSink::add(std::size_t point_index, const Params& params,
                     const Metrics& metrics) {
  PointAgg* agg = find(point_index);
  if (agg == nullptr) {
    // Every point must share one schema — to_table() derives the header
    // from the first point, so a divergent row would silently misalign.
    if (!points_.empty()) {
      const PointAgg& first = points_.front();
      BCP_REQUIRE_MSG(first.params.size() == params.size() &&
                          first.metrics.size() == metrics.size(),
                      "param/metric schema differs between points");
      for (std::size_t i = 0; i < params.size(); ++i)
        BCP_REQUIRE_MSG(first.params[i].first == params[i].first,
                        "param names differ between points");
      for (std::size_t i = 0; i < metrics.size(); ++i)
        BCP_REQUIRE_MSG(first.metrics[i].first == metrics[i].first,
                        "metric names differ between points");
    }
    points_.push_back(PointAgg{point_index, {}, params, {}});
    agg = &points_.back();
    agg->metrics.reserve(metrics.size());
    for (const auto& [name, value] : metrics) {
      Summary s;
      s.add(value);
      agg->metrics.emplace_back(name, s);
    }
    return;
  }
  BCP_REQUIRE_MSG(agg->metrics.size() == metrics.size(),
                  "metric set changed between replications");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    BCP_REQUIRE_MSG(agg->metrics[i].first == metrics[i].first,
                    "metric names changed between replications");
    agg->metrics[i].second.add(metrics[i].second);
  }
}

void ResultSink::set_meta_entry(MetaEntry entry) {
  for (auto& e : meta_) {
    if (e.key == entry.key) {
      e = std::move(entry);
      return;
    }
  }
  meta_.push_back(std::move(entry));
}

void ResultSink::set_meta(const std::string& key, std::string value) {
  set_meta_entry(MetaEntry{key, std::move(value), /*quoted=*/true});
}

void ResultSink::set_meta(const std::string& key, double value) {
  set_meta_entry(MetaEntry{key, json_number(value), /*quoted=*/false});
}

void ResultSink::set_label(std::size_t point_index, std::string label) {
  PointAgg* agg = find(point_index);
  BCP_REQUIRE_MSG(agg != nullptr, "unknown grid point");
  agg->label = std::move(label);
}

const Summary& ResultSink::metric(std::size_t point_index,
                                  const std::string& name) const {
  const PointAgg* agg = find(point_index);
  BCP_REQUIRE_MSG(agg != nullptr, "unknown grid point");
  for (const auto& [n, s] : agg->metrics)
    if (n == name) return s;
  BCP_REQUIRE_MSG(false, "unknown metric: " + name);
  // Unreachable; BCP_REQUIRE_MSG(false, ...) throws.
  throw std::logic_error("unreachable");
}

const ResultSink::Params& ResultSink::params(std::size_t point_index) const {
  const PointAgg* agg = find(point_index);
  BCP_REQUIRE_MSG(agg != nullptr, "unknown grid point");
  return agg->params;
}

TextTable ResultSink::to_table() const {
  TextTable table;
  if (points_.empty()) return table;
  bool any_label = false;
  for (const auto& p : points_) any_label |= !p.label.empty();
  std::vector<std::string> header;
  if (any_label) header.push_back("point");
  for (const auto& [name, value] : points_.front().params) {
    (void)value;
    header.push_back(name);
  }
  for (const auto& [name, s] : points_.front().metrics) {
    (void)s;
    header.push_back(name);
  }
  table.add_row(std::move(header));
  for (const auto& p : points_) {
    std::vector<std::string> row;
    if (any_label) row.push_back(p.label);
    for (const auto& [name, value] : p.params) {
      (void)name;
      row.push_back(TextTable::num(value));
    }
    for (const auto& [name, s] : p.metrics) {
      (void)name;
      // Single-replication sweeps (analytic closed forms, deterministic
      // prototype runs) have no spread worth printing.
      row.push_back(s.count() > 1
                        ? TextTable::num_ci(s.mean(), s.ci_half_width())
                        : TextTable::num(s.mean()));
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string ResultSink::to_json(const std::string& bench_name) const {
  std::string out;
  out += "{\n  \"bench\": ";
  append_quoted(out, bench_name);
  if (!meta_.empty()) {
    out += ",\n  \"meta\": {";
    bool first = true;
    bool sharded = false;
    bool has_rss = false;
    for (const auto& e : meta_) {
      if (!first) out += ", ";
      first = false;
      append_quoted(out, e.key);
      out += ": ";
      if (e.quoted)
        append_quoted(out, e.value);
      else
        out += e.value;
      sharded |= e.key == "shards" || e.key == "headline_shards";
      has_rss |= e.key == "peak_rss_mib";
    }
    // Sharded runs carry the process peak RSS in their meta automatically:
    // the partition memory model (node state dense over the owned stripe,
    // a sparse down-set for remote ids) is only auditable if every sharded
    // BENCH_*.json records it. Sampled at export (after the runs);
    // unsharded exports stay byte-identical to the historical format, so
    // the figure/table goldens are untouched.
    if (sharded && !has_rss) {
      out += ", ";
      append_quoted(out, "peak_rss_mib");
      out += ": " + json_number(util::peak_rss_mib());
    }
    out += "}";
  }
  out += ",\n  \"points\": [";
  bool first_point = true;
  for (const auto& p : points_) {
    out += first_point ? "\n" : ",\n";
    first_point = false;
    out += "    {";
    if (!p.label.empty()) {
      out += "\"label\": ";
      append_quoted(out, p.label);
      out += ", ";
    }
    out += "\"params\": {";
    bool first = true;
    for (const auto& [name, value] : p.params) {
      if (!first) out += ", ";
      first = false;
      append_quoted(out, name);
      out += ": " + json_number(value);
    }
    out += "},\n     \"metrics\": {";
    first = true;
    for (const auto& [name, s] : p.metrics) {
      if (!first) out += ",\n                 ";
      first = false;
      append_quoted(out, name);
      out += ": {\"mean\": " + json_number(s.mean());
      out += ", \"ci95\": " + json_number(s.ci_half_width());
      out += ", \"stddev\": " + json_number(s.count() > 1 ? s.stddev() : 0.0);
      out += ", \"min\": " + json_number(s.min());
      out += ", \"max\": " + json_number(s.max());
      out += ", \"n\": " + std::to_string(s.count()) + "}";
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool ResultSink::write_json(const std::string& bench_name,
                            const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "[ERROR] cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  f << to_json(bench_name);
  return static_cast<bool>(f);
}

}  // namespace bcp::stats
