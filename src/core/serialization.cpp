#include "core/serialization.h"

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/strings.h"
#include "util/url.h"

namespace hispar::core {

namespace {
constexpr const char* kCsvHeader = "domain,bootstrap_rank,kind,page_index,url";
}

void write_csv(const HisparList& list, std::ostream& out) {
  out << kCsvHeader << '\n';
  for (const auto& set : list.sets) {
    for (std::size_t i = 0; i < set.urls.size(); ++i) {
      out << set.domain << ',' << set.bootstrap_rank << ','
          << (i == 0 ? "landing" : "internal") << ',' << set.page_indices[i]
          << ',' << set.urls[i] << '\n';
    }
  }
}

std::string to_csv(const HisparList& list) {
  std::ostringstream os;
  write_csv(list, os);
  return os.str();
}

HisparList read_csv(std::istream& in, std::string name) {
  HisparList list;
  list.name = std::move(name);

  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader)
    throw std::runtime_error("hispar csv: missing or bad header");

  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto fields = util::split(line, ',');
    if (fields.size() != 5)
      throw std::runtime_error("hispar csv: wrong field count at line " +
                               std::to_string(line_number));
    const std::string& domain = fields[0];
    // strtoul stops at the first NUL, so require that it consumed the
    // whole field: "3\0junk" must be rejected, not silently truncated.
    char* end = nullptr;
    const unsigned long rank = std::strtoul(fields[1].c_str(), &end, 10);
    if (fields[1].empty() || end != fields[1].c_str() + fields[1].size())
      throw std::runtime_error("hispar csv: bad rank at line " +
                               std::to_string(line_number));
    const bool is_landing = fields[2] == "landing";
    if (!is_landing && fields[2] != "internal")
      throw std::runtime_error("hispar csv: bad kind at line " +
                               std::to_string(line_number));
    const unsigned long page_index = std::strtoul(fields[3].c_str(), &end, 10);
    if (fields[3].empty() || end != fields[3].c_str() + fields[3].size())
      throw std::runtime_error("hispar csv: bad page index at line " +
                               std::to_string(line_number));
    if (!util::parse_url(fields[4]).has_value())
      throw std::runtime_error("hispar csv: unparsable url at line " +
                               std::to_string(line_number));

    if (is_landing) {
      UrlSet set;
      set.domain = domain;
      set.bootstrap_rank = rank;
      set.urls.push_back(fields[4]);
      set.page_indices.push_back(page_index);
      list.sets.push_back(std::move(set));
    } else {
      if (list.sets.empty() || list.sets.back().domain != domain)
        throw std::runtime_error(
            "hispar csv: internal URL before its landing page at line " +
            std::to_string(line_number));
      list.sets.back().urls.push_back(fields[4]);
      list.sets.back().page_indices.push_back(page_index);
    }
  }
  return list;
}

HisparList from_csv(const std::string& csv, std::string name) {
  std::istringstream is(csv);
  return read_csv(is, std::move(name));
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

std::string to_json(const HisparList& list) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(list.name) << "\",\"week\":"
     << list.week << ",\"sites\":[";
  for (std::size_t s = 0; s < list.sets.size(); ++s) {
    const auto& set = list.sets[s];
    if (s) os << ',';
    os << "{\"domain\":\"" << json_escape(set.domain)
       << "\",\"rank\":" << set.bootstrap_rank << ",\"urls\":[";
    for (std::size_t i = 0; i < set.urls.size(); ++i) {
      if (i) os << ',';
      os << '"' << json_escape(set.urls[i]) << '"';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

void save_csv(const HisparList& list, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("hispar csv: cannot open " + path);
  write_csv(list, out);
  out.close();
  if (out.fail()) throw std::runtime_error("hispar csv: cannot write " + path);
}

HisparList load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hispar csv: cannot open " + path);
  return read_csv(in, path);
}

// --- Campaign results CSV ---

void write_measure_csv(std::ostream& out,
                       const std::vector<SiteObservation>& sites) {
  out << "domain,rank,page,bytes,objects,plt_ms,speed_index_ms,domains,"
         "noncacheable,cdn_fraction,handshakes,trackers\n";
  const auto emit = [&out](const std::string& domain, std::size_t rank,
                           const std::string& kind, const PageMetrics& m) {
    out << domain << ',' << rank << ',' << kind << ',' << m.bytes << ','
        << m.objects << ',' << m.plt_ms << ',' << m.speed_index_ms << ','
        << m.unique_domains << ',' << m.noncacheable_objects << ','
        << m.cdn_bytes_fraction << ',' << m.handshakes << ','
        << m.tracking_requests << '\n';
  };
  for (const auto& site : sites) {
    if (site.quarantined) continue;
    emit(site.domain, site.bootstrap_rank, "landing", site.landing);
    for (std::size_t i = 0; i < site.internals.size(); ++i)
      emit(site.domain, site.bootstrap_rank,
           "internal-" + std::to_string(i + 1), site.internals[i]);
  }
}

// --- Campaign checkpoints ---

namespace {

[[noreturn]] void checkpoint_fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

// The strtoX family stops at the first NUL, so a field like "5\0junk"
// would parse as 5 under a bare *end == '\0' check. Require the parse
// to consume the field's full length: embedded NUL bytes (and any
// other trailing garbage) are rejected with the same clean error.
bool consumed(const std::string& s, const char* end) {
  return !s.empty() && end == s.c_str() + s.size();
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (!consumed(s, end))
    checkpoint_fail(std::string("bad ") + what + " '" + s + "'");
  return static_cast<std::uint64_t>(v);
}

int parse_int(const std::string& s, const char* what) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (!consumed(s, end))
    checkpoint_fail(std::string("bad ") + what + " '" + s + "'");
  return static_cast<int>(v);
}

double parse_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (!consumed(s, end))
    checkpoint_fail(std::string("bad ") + what + " '" + s + "'");
  return v;
}

std::int64_t parse_i64(const std::string& s, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (!consumed(s, end))
    checkpoint_fail(std::string("bad ") + what + " '" + s + "'");
  return static_cast<std::int64_t>(v);
}

// A length field read from the file feeds reserve() before the
// records it promises are parsed; an adversarial count like 10^18
// must fail as a bad checkpoint, not as std::length_error/bad_alloc
// from the allocator. Every promised record occupies at least one
// line, so the total line count is a sound upper bound.
std::size_t parse_count(const std::string& s, const char* what,
                        std::size_t line_bound) {
  const std::uint64_t v = parse_u64(s, what);
  if (v > line_bound)
    checkpoint_fail(std::string("oversize ") + what + " '" + s + "'");
  return static_cast<std::size_t>(v);
}

// The framing every checkpoint format shares: the file's lines, the
// header's config digest, and `end`, one past the last block terminator.
// Everything after `end` is a block torn by a killed run and is dropped;
// everything before it must parse cleanly.
struct Frame {
  std::vector<std::string> lines;
  std::uint64_t digest = 0;
  std::size_t end = 1;
  const char* tag = "";

  // Bounds-checked access to the lines of complete blocks.
  const std::string& need(std::size_t i) const {
    if (i >= end) checkpoint_fail(std::string("truncated ") + tag + " block");
    return lines[i];
  }

  // Splits line i into fields, advancing i; the record must be `kind`
  // with exactly `count` fields.
  std::vector<std::string> record(std::size_t& i, const char* kind,
                                  std::size_t count) const {
    auto fields = util::split(need(i++), ',');
    if (fields.size() != count || fields[0] != kind)
      checkpoint_fail(std::string("bad ") + kind + " record '" + lines[i - 1] +
                      "'");
    return fields;
  }

  // Consumes the `<terminator>,<ids...>` line that must close the block
  // identified by `ids`.
  void close(std::size_t& i, const char* terminator,
             std::initializer_list<std::uint64_t> ids) const {
    const auto fields = record(i, terminator, ids.size() + 1);
    std::size_t k = 1;
    for (const std::uint64_t id : ids)
      if (parse_u64(fields[k++], terminator) != id)
        checkpoint_fail("unterminated block at '" + lines[i - 1] + "'");
  }
};

// Reads `in` whole, checks the `<tag>,v1,<digest>` header and cuts after
// the last line starting with one of `terminators`.
Frame read_frame(std::istream& in, const char* tag,
                 std::initializer_list<const char*> terminators) {
  Frame frame;
  frame.tag = tag;
  std::string line;
  while (std::getline(in, line)) frame.lines.push_back(std::move(line));
  if (frame.lines.empty()) checkpoint_fail("missing header");
  const auto header = util::split(frame.lines[0], ',');
  if (header.size() != 3 || header[0] != tag || header[1] != "v1")
    checkpoint_fail("bad header '" + frame.lines[0] + "'");
  frame.digest = parse_u64(header[2], "config digest");
  for (std::size_t i = 1; i < frame.lines.size(); ++i)
    for (const char* terminator : terminators)
      if (frame.lines[i].rfind(terminator, 0) == 0) frame.end = i + 1;
  return frame;
}

// Telemetry strings (span names, arg values) go into a comma/semicolon
// separated format; the separators themselves are sanitized away.
std::string obs_sanitize(std::string s) {
  for (char& c : s)
    if (c == ',' || c == ';' || c == '\n' || c == '\r') c = '_';
  return s;
}

void write_metrics(std::ostream& out, const PageMetrics& m) {
  out << "metrics," << m.bytes << ',' << m.objects << ',' << m.plt_ms << ','
      << m.on_load_ms << ',' << m.speed_index_ms << ','
      << m.noncacheable_objects << ',' << m.cacheable_bytes_fraction << ','
      << m.cdn_bytes_fraction << ',' << m.x_cache_hits << ','
      << m.x_cache_misses;
  for (double fraction : m.mix_fractions) out << ',' << fraction;
  for (double count : m.depth_counts) out << ',' << count;
  out << ',' << m.unique_domains << ',' << m.hints_total << ','
      << m.handshakes << ',' << m.handshake_time_ms << ',' << m.dns_lookups
      << ',' << m.dns_time_ms << ',' << (m.is_http ? 1 : 0) << ','
      << (m.mixed_content ? 1 : 0) << ',' << m.tracking_requests << ','
      << (m.header_bidding ? 1 : 0) << ',' << m.hb_ad_slots;
  out << ",tp:";
  bool first = true;
  for (const auto& domain : m.third_parties) {
    if (!first) out << ';';
    first = false;
    out << domain;
  }
  out << ",wait:";
  first = true;
  for (double sample : m.wait_samples_ms) {
    if (!first) out << ';';
    first = false;
    out << sample;
  }
  out << '\n';
}

// Field layout of a metrics line; keep in sync with write_metrics.
constexpr std::size_t kMetricsFields = 39;

bool parse_flag(const std::string& s, const char* what) {
  if (s == "0") return false;
  if (s == "1") return true;
  checkpoint_fail(std::string("bad ") + what + " '" + s + "'");
}

PageMetrics parse_metrics(const std::string& line) {
  const auto f = util::split(line, ',');
  if (f.size() != kMetricsFields || f[0] != "metrics")
    checkpoint_fail("bad metrics record '" + line + "'");
  PageMetrics m;
  std::size_t i = 1;
  const auto next = [&](const char* what) { return parse_double(f[i++], what); };
  m.bytes = next("bytes");
  m.objects = next("objects");
  m.plt_ms = next("plt");
  m.on_load_ms = next("on_load");
  m.speed_index_ms = next("speed_index");
  m.noncacheable_objects = next("noncacheable");
  m.cacheable_bytes_fraction = next("cacheable_fraction");
  m.cdn_bytes_fraction = next("cdn_fraction");
  m.x_cache_hits = next("x_cache_hits");
  m.x_cache_misses = next("x_cache_misses");
  for (auto& fraction : m.mix_fractions) fraction = next("mix_fraction");
  for (auto& count : m.depth_counts) count = next("depth_count");
  m.unique_domains = next("unique_domains");
  m.hints_total = next("hints_total");
  m.handshakes = next("handshakes");
  m.handshake_time_ms = next("handshake_time");
  m.dns_lookups = next("dns_lookups");
  m.dns_time_ms = next("dns_time");
  m.is_http = parse_flag(f[i++], "is_http");
  m.mixed_content = parse_flag(f[i++], "mixed_content");
  m.tracking_requests = next("tracking_requests");
  m.header_bidding = parse_flag(f[i++], "header_bidding");
  m.hb_ad_slots = next("hb_ad_slots");
  if (f[i].rfind("tp:", 0) != 0) checkpoint_fail("bad third-party field");
  for (const auto& domain : util::split(f[i].substr(3), ';'))
    if (!domain.empty()) m.third_parties.insert(domain);
  ++i;
  if (f[i].rfind("wait:", 0) != 0) checkpoint_fail("bad wait-sample field");
  for (const auto& sample : util::split(f[i].substr(5), ';'))
    if (!sample.empty())
      m.wait_samples_ms.push_back(parse_double(sample, "wait sample"));
  return m;
}

// One site observation as site/metrics/outcome lines — shared by the
// per-shard and per-vantage checkpoint block formats (byte-identical
// records in both).
void write_site_record(std::ostream& out, std::size_t position,
                       const SiteObservation& o) {
  const bool has_landing = !o.quarantined;
  out << "site," << position << ',' << o.domain << ',' << o.bootstrap_rank
      << ',' << static_cast<unsigned>(o.category) << ','
      << (o.quarantined ? 1 : 0) << ',' << o.total_retries << ','
      << o.internals.size() << ',' << o.outcomes.size() << ','
      << (has_landing ? 1 : 0) << '\n';
  if (has_landing) write_metrics(out, o.landing);
  for (const auto& m : o.internals) write_metrics(out, m);
  for (const auto& outcome : o.outcomes) {
    out << "outcome," << outcome.page_index << ',' << outcome.load_ordinal
        << ',' << outcome.attempts << ','
        << static_cast<unsigned>(outcome.status) << ','
        << static_cast<unsigned>(outcome.failure) << ','
        << outcome.failed_objects;
    // Optional eighth field: written only when a breaker actually
    // denied fetches, so chaos-free checkpoints keep the historical
    // seven-field byte layout.
    if (outcome.breaker_denials > 0) out << ',' << outcome.breaker_denials;
    out << '\n';
  }
}

// Parses one site record (site line + metrics + outcomes) starting at
// line i, advancing i through the record.
std::pair<std::size_t, SiteObservation> read_site_record(const Frame& frame,
                                                         std::size_t& i) {
  const auto site = frame.record(i, "site", 10);
  const std::size_t position = parse_u64(site[1], "site position");
  SiteObservation o;
  o.domain = site[2];
  o.bootstrap_rank = parse_u64(site[3], "rank");
  const std::uint64_t category = parse_u64(site[4], "category");
  if (category >= web::kSiteCategoryCount)
    checkpoint_fail("bad category '" + site[4] + "'");
  o.category = static_cast<web::SiteCategory>(category);
  o.quarantined = parse_flag(site[5], "quarantined");
  o.total_retries = parse_int(site[6], "total retries");
  const std::size_t n_internals =
      parse_count(site[7], "internal count", frame.lines.size());
  const std::size_t n_outcomes =
      parse_count(site[8], "outcome count", frame.lines.size());
  const bool has_landing = parse_flag(site[9], "landing flag");
  if (has_landing) o.landing = parse_metrics(frame.need(i++));
  o.internals.reserve(n_internals);
  for (std::size_t k = 0; k < n_internals; ++k)
    o.internals.push_back(parse_metrics(frame.need(i++)));
  o.outcomes.reserve(n_outcomes);
  for (std::size_t k = 0; k < n_outcomes; ++k) {
    const auto f = util::split(frame.need(i++), ',');
    if ((f.size() != 7 && f.size() != 8) || f[0] != "outcome")
      checkpoint_fail("bad outcome record '" + frame.lines[i - 1] + "'");
    FetchOutcome outcome;
    outcome.page_index = parse_u64(f[1], "page index");
    outcome.load_ordinal = parse_int(f[2], "load ordinal");
    outcome.attempts = parse_int(f[3], "attempts");
    const int status = parse_int(f[4], "status");
    if (status < 0 || status > 2)
      checkpoint_fail("bad status '" + f[4] + "'");
    outcome.status = static_cast<browser::LoadStatus>(status);
    const int failure = parse_int(f[5], "failure kind");
    if (failure < 0 || failure >= static_cast<int>(net::kFaultKindCount))
      checkpoint_fail("bad failure kind '" + f[5] + "'");
    outcome.failure = static_cast<net::FaultKind>(failure);
    outcome.failed_objects = parse_int(f[6], "failed objects");
    if (f.size() == 8)
      outcome.breaker_denials = parse_int(f[7], "breaker denials");
    o.outcomes.push_back(outcome);
  }
  return {position, std::move(o)};
}

// One shard's final circuit-breaker states as breaker lines (chaos
// campaigns only; breaker keys never contain commas).
void write_breaker_records(
    std::ostream& out, const std::vector<net::BreakerSet::Record>& records) {
  for (const auto& r : records)
    out << "breaker," << r.key << ',' << static_cast<unsigned>(r.state) << ','
        << r.consecutive_failures << ',' << r.opened_at_s << ','
        << r.times_opened << ',' << r.denials << '\n';
}

// Consumes consecutive breaker lines starting at line i, advancing i.
std::vector<net::BreakerSet::Record> read_breaker_lines(const Frame& frame,
                                                        std::size_t& i) {
  std::vector<net::BreakerSet::Record> records;
  while (i < frame.end && frame.lines[i].rfind("breaker,", 0) == 0) {
    const auto f = frame.record(i, "breaker", 7);
    net::BreakerSet::Record record;
    record.key = f[1];
    const int state = parse_int(f[2], "breaker state");
    if (state < 0 || state > 2)
      checkpoint_fail("bad breaker state '" + f[2] + "'");
    record.state = static_cast<net::BreakerState>(state);
    record.consecutive_failures = parse_int(f[3], "breaker failures");
    record.opened_at_s = parse_double(f[4], "breaker opened at");
    record.times_opened = parse_u64(f[5], "breaker times opened");
    record.denials = parse_u64(f[6], "breaker denials");
    records.push_back(std::move(record));
  }
  return records;
}

// One shard's telemetry as obscounter/obsgauge/obshist/obsspan/
// obsdropped lines — shared by the measurement and list-build
// checkpoint formats so both resume with bit-identical telemetry.
void write_obs_telemetry(std::ostream& out,
                         const obs::ShardTelemetry& telemetry) {
  for (const auto& [name, value] : telemetry.metrics.counters())
    out << "obscounter," << obs_sanitize(name) << ',' << value << '\n';
  for (const auto& [name, value] : telemetry.metrics.gauges())
    out << "obsgauge," << obs_sanitize(name) << ',' << value << '\n';
  for (const auto& [name, h] : telemetry.metrics.histograms()) {
    out << "obshist," << obs_sanitize(name) << ',';
    for (std::size_t k = 0; k < h.bounds.size(); ++k)
      out << (k ? ";" : "") << h.bounds[k];
    out << ',';
    for (std::size_t k = 0; k < h.counts.size(); ++k)
      out << (k ? ";" : "") << h.counts[k];
    out << ',' << h.count << ',' << h.sum << ',' << h.min << ',' << h.max
        << '\n';
  }
  for (const auto& span : telemetry.spans) {
    out << "obsspan," << span.tid << ',' << span.ts_us << ',' << span.dur_us
        << ',' << obs_sanitize(span.cat) << ',' << obs_sanitize(span.name);
    for (const auto& [key, value] : span.args)
      out << ',' << obs_sanitize(key) << '=' << obs_sanitize(value);
    out << '\n';
  }
  out << "obsdropped," << telemetry.spans_dropped << '\n';
}

// Consumes consecutive obs* lines starting at line i, advancing i;
// returns whether any were present.
bool read_obs_lines(const Frame& frame, std::size_t& i,
                    obs::ShardTelemetry& telemetry) {
  bool has_telemetry = false;
  while (i < frame.end && frame.lines[i].rfind("obs", 0) == 0) {
    has_telemetry = true;
    const auto f = util::split(frame.lines[i++], ',');
    if (f[0] == "obscounter" && f.size() == 3) {
      telemetry.metrics.counter(f[1]) = parse_u64(f[2], "obs counter");
    } else if (f[0] == "obsgauge" && f.size() == 3) {
      telemetry.metrics.gauge(f[1]) = parse_double(f[2], "obs gauge");
    } else if (f[0] == "obshist" && f.size() == 8) {
      std::vector<double> bounds;
      for (const auto& b : util::split(f[2], ';'))
        if (!b.empty()) bounds.push_back(parse_double(b, "obs bound"));
      obs::Histogram& h = telemetry.metrics.histogram(f[1], bounds);
      std::vector<std::uint64_t> counts;
      for (const auto& c : util::split(f[3], ';'))
        if (!c.empty()) counts.push_back(parse_u64(c, "obs bucket"));
      if (counts.size() != bounds.size() + 1)
        checkpoint_fail("bad obs histogram '" + frame.lines[i - 1] + "'");
      h.counts = std::move(counts);
      h.count = parse_u64(f[4], "obs hist count");
      h.sum = parse_double(f[5], "obs hist sum");
      h.min = parse_double(f[6], "obs hist min");
      h.max = parse_double(f[7], "obs hist max");
    } else if (f[0] == "obsspan" && f.size() >= 6) {
      obs::TraceSpan span;
      span.tid = static_cast<std::uint32_t>(parse_u64(f[1], "obs span tid"));
      span.ts_us = parse_i64(f[2], "obs span ts");
      span.dur_us = parse_i64(f[3], "obs span dur");
      span.cat = f[4];
      span.name = f[5];
      for (std::size_t k = 6; k < f.size(); ++k) {
        const auto eq = f[k].find('=');
        if (eq == std::string::npos)
          checkpoint_fail("bad obs span arg '" + f[k] + "'");
        span.args.emplace_back(f[k].substr(0, eq), f[k].substr(eq + 1));
      }
      telemetry.spans.push_back(std::move(span));
    } else if (f[0] == "obsdropped" && f.size() == 2) {
      telemetry.spans_dropped = parse_u64(f[1], "obs dropped");
    } else {
      checkpoint_fail("bad obs record '" + frame.lines[i - 1] + "'");
    }
  }
  return has_telemetry;
}

}  // namespace

void write_checkpoint_header(std::ostream& out, const std::string& tag,
                             std::uint64_t config_digest) {
  out << tag << ",v1," << config_digest << '\n';
}

void append_checkpoint_shard(std::ostream& out, std::size_t shard,
                             const std::vector<std::size_t>& positions,
                             const std::vector<SiteObservation>& observations,
                             const obs::ShardTelemetry* telemetry,
                             const std::vector<net::BreakerSet::Record>*
                                 breakers) {
  const auto precision = out.precision(17);
  out << "shard," << shard << ',' << positions.size() << '\n';
  for (std::size_t position : positions)
    write_site_record(out, position, observations[position]);
  if (breakers != nullptr) write_breaker_records(out, *breakers);
  if (telemetry != nullptr) write_obs_telemetry(out, *telemetry);
  out << "endshard," << shard << '\n';
  out.precision(precision);
}

CampaignCheckpoint read_checkpoint(std::istream& in) {
  const Frame frame = read_frame(in, kCampaignCheckpointTag, {"endshard,"});
  CampaignCheckpoint checkpoint;
  checkpoint.config_digest = frame.digest;

  std::size_t i = 1;
  while (i < frame.end) {
    const auto shard_fields = frame.record(i, "shard", 3);
    const std::size_t shard_id = parse_u64(shard_fields[1], "shard id");
    const std::size_t n_sites =
        parse_count(shard_fields[2], "site count", frame.lines.size());

    for (std::size_t s = 0; s < n_sites; ++s)
      checkpoint.observations.push_back(read_site_record(frame, i));

    // Optional breaker block (shards run under a chaos schedule).
    std::vector<net::BreakerSet::Record> breakers =
        read_breaker_lines(frame, i);
    if (!breakers.empty())
      checkpoint.breakers.emplace(shard_id, std::move(breakers));

    // Optional telemetry block (shards run with observability enabled).
    obs::ShardTelemetry telemetry;
    if (read_obs_lines(frame, i, telemetry))
      checkpoint.telemetry.emplace(shard_id, std::move(telemetry));

    frame.close(i, "endshard", {shard_id});
    checkpoint.completed_shards.push_back(shard_id);
  }
  return checkpoint;
}

// --- List-build checkpoints ---

void append_listbuild_week(std::ostream& out,
                           const ListBuildWeekRecord& record) {
  const auto precision = out.precision(17);
  out << "week," << record.week << ',' << record.list.sets.size() << '\n';
  for (const auto& set : record.list.sets) {
    out << "set," << set.domain << ',' << set.bootstrap_rank << ','
        << set.urls.size() << '\n';
    for (std::size_t i = 0; i < set.urls.size(); ++i)
      out << "url," << set.page_indices[i] << ',' << set.urls[i] << '\n';
  }
  const WeekBuildStats& s = record.stats;
  out << "weekstats," << s.sites_examined << ',' << s.sites_accepted << ','
      << s.sites_dropped << ',' << s.sites_missing << ','
      << s.sites_quarantined << ',' << s.queries_billed << ','
      << s.speculative_queries << ',' << s.retries;
  for (const auto quarantined : s.quarantined_by) out << ',' << quarantined;
  out << '\n';
  for (const auto& [shard, telemetry] : record.telemetry) {
    out << "shardtel," << shard << '\n';
    write_obs_telemetry(out, telemetry);
    out << "endshardtel," << shard << '\n';
  }
  out << "endweek," << record.week << '\n';
  out.precision(precision);
}

ListBuildCheckpoint read_listbuild_checkpoint(std::istream& in) {
  const Frame frame = read_frame(in, kListBuildCheckpointTag, {"endweek,"});
  ListBuildCheckpoint checkpoint;
  checkpoint.config_digest = frame.digest;

  std::size_t i = 1;
  while (i < frame.end) {
    const auto week_fields = frame.record(i, "week", 3);
    ListBuildWeekRecord record;
    record.week = parse_u64(week_fields[1], "week");
    record.list.week = record.week;
    record.stats.week = record.week;
    const std::size_t n_sets =
        parse_count(week_fields[2], "set count", frame.lines.size());

    record.list.sets.reserve(n_sets);
    for (std::size_t s = 0; s < n_sets; ++s) {
      const auto set_fields = frame.record(i, "set", 4);
      UrlSet set;
      set.domain = set_fields[1];
      set.bootstrap_rank = parse_u64(set_fields[2], "rank");
      const std::size_t n_urls =
          parse_count(set_fields[3], "url count", frame.lines.size());
      set.urls.reserve(n_urls);
      set.page_indices.reserve(n_urls);
      for (std::size_t u = 0; u < n_urls; ++u) {
        const auto url_fields = frame.record(i, "url", 3);
        set.page_indices.push_back(parse_u64(url_fields[1], "page index"));
        set.urls.push_back(url_fields[2]);
      }
      record.list.sets.push_back(std::move(set));
    }

    const auto stat_fields =
        frame.record(i, "weekstats", 9 + net::kSearchFaultKindCount);
    WeekBuildStats& stats = record.stats;
    stats.sites_examined = parse_u64(stat_fields[1], "sites examined");
    stats.sites_accepted = parse_u64(stat_fields[2], "sites accepted");
    stats.sites_dropped = parse_u64(stat_fields[3], "sites dropped");
    stats.sites_missing = parse_u64(stat_fields[4], "sites missing");
    stats.sites_quarantined = parse_u64(stat_fields[5], "sites quarantined");
    stats.queries_billed = parse_u64(stat_fields[6], "queries billed");
    stats.speculative_queries =
        parse_u64(stat_fields[7], "speculative queries");
    stats.retries = parse_u64(stat_fields[8], "retries");
    for (int kind = 0; kind < net::kSearchFaultKindCount; ++kind)
      stats.quarantined_by[static_cast<std::size_t>(kind)] = parse_u64(
          stat_fields[9 + static_cast<std::size_t>(kind)], "quarantined by");

    while (i < frame.end && frame.lines[i].rfind("shardtel,", 0) == 0) {
      const std::size_t shard_id =
          parse_u64(frame.record(i, "shardtel", 2)[1], "shardtel id");
      obs::ShardTelemetry telemetry;
      read_obs_lines(frame, i, telemetry);
      frame.close(i, "endshardtel", {shard_id});
      record.telemetry.emplace(shard_id, std::move(telemetry));
    }

    frame.close(i, "endweek", {record.week});
    checkpoint.weeks.push_back(std::move(record));
  }
  return checkpoint;
}

// --- Multi-vantage checkpoints ---

void append_vantage_block(std::ostream& out, std::size_t vantage,
                          const std::vector<SiteObservation>& observations,
                          const obs::ShardTelemetry* telemetry) {
  const auto precision = out.precision(17);
  out << "vantage," << vantage << ',' << observations.size() << '\n';
  for (std::size_t position = 0; position < observations.size(); ++position)
    write_site_record(out, position, observations[position]);
  if (telemetry != nullptr) write_obs_telemetry(out, *telemetry);
  out << "endvantage," << vantage << '\n';
  out.precision(precision);
}

void append_vantage_shard_block(std::ostream& out, std::size_t vantage,
                                std::size_t shard,
                                const std::vector<std::size_t>& positions,
                                const std::vector<SiteObservation>&
                                    observations,
                                const obs::ShardTelemetry* telemetry) {
  const auto precision = out.precision(17);
  out << "vshard," << vantage << ',' << shard << ',' << positions.size()
      << '\n';
  for (const std::size_t position : positions)
    write_site_record(out, position, observations[position]);
  if (telemetry != nullptr) write_obs_telemetry(out, *telemetry);
  out << "endvshard," << vantage << ',' << shard << '\n';
  out.precision(precision);
}

VantageCheckpoint read_vantage_checkpoint(std::istream& in) {
  // Either block kind's terminator ends the complete prefix.
  const Frame frame = read_frame(in, kVantageCheckpointTag,
                                 {"endvantage,", "endvshard,"});
  VantageCheckpoint checkpoint;
  checkpoint.config_digest = frame.digest;

  std::size_t i = 1;
  // Both block kinds carry site records then optional telemetry.
  const auto read_body = [&](auto& block, const std::string& site_count) {
    const std::size_t n_sites =
        parse_count(site_count, "site count", frame.lines.size());
    block.observations.reserve(n_sites);
    for (std::size_t s = 0; s < n_sites; ++s)
      block.observations.push_back(read_site_record(frame, i));
    block.has_telemetry = read_obs_lines(frame, i, block.telemetry);
  };
  while (i < frame.end) {
    if (frame.need(i).rfind("vshard,", 0) == 0) {
      const auto head = frame.record(i, "vshard", 4);
      VantageShardBlock block;
      block.vantage = parse_u64(head[1], "vshard vantage id");
      block.shard = parse_u64(head[2], "vshard shard id");
      read_body(block, head[3]);
      frame.close(i, "endvshard", {block.vantage, block.shard});
      checkpoint.shards.push_back(std::move(block));
      continue;
    }
    const auto head = frame.record(i, "vantage", 3);
    VantageCheckpointBlock block;
    block.vantage = parse_u64(head[1], "vantage id");
    read_body(block, head[2]);
    frame.close(i, "endvantage", {block.vantage});
    checkpoint.vantages.push_back(std::move(block));
  }
  return checkpoint;
}

// --- Browsing-session checkpoints ---

void append_session_block(std::ostream& out, std::size_t position,
                          const SiteObservation& observation,
                          const browser::CacheStats& cache,
                          const obs::ShardTelemetry* telemetry) {
  const auto precision = out.precision(17);
  out << "session," << position << '\n';
  write_site_record(out, position, observation);
  out << "cachestats," << cache.lookups << ',' << cache.fresh_hits << ','
      << cache.revalidations << ',' << cache.misses << ','
      << cache.insertions << ',' << cache.evictions << '\n';
  if (telemetry != nullptr) write_obs_telemetry(out, *telemetry);
  out << "endsession," << position << '\n';
  out.precision(precision);
}

SessionCheckpoint read_session_checkpoint(std::istream& in) {
  const Frame frame = read_frame(in, kSessionCheckpointTag, {"endsession,"});
  SessionCheckpoint checkpoint;
  checkpoint.config_digest = frame.digest;

  std::size_t i = 1;
  while (i < frame.end) {
    SessionCheckpointBlock block;
    block.position =
        parse_u64(frame.record(i, "session", 2)[1], "session position");
    auto [position, observation] = read_site_record(frame, i);
    if (position != block.position)
      checkpoint_fail("session/site position mismatch at session " +
                      std::to_string(block.position));
    block.observation = std::move(observation);

    const auto cache_fields = frame.record(i, "cachestats", 7);
    block.cache.lookups = parse_u64(cache_fields[1], "cache lookups");
    block.cache.fresh_hits = parse_u64(cache_fields[2], "cache fresh hits");
    block.cache.revalidations =
        parse_u64(cache_fields[3], "cache revalidations");
    block.cache.misses = parse_u64(cache_fields[4], "cache misses");
    block.cache.insertions = parse_u64(cache_fields[5], "cache insertions");
    block.cache.evictions = parse_u64(cache_fields[6], "cache evictions");

    block.has_telemetry = read_obs_lines(frame, i, block.telemetry);

    frame.close(i, "endsession", {block.position});
    checkpoint.sessions.push_back(std::move(block));
  }
  return checkpoint;
}

// --- CLI checkpoint-path resolution ---

std::string resolve_checkpoint_path(const std::string& context,
                                    const std::string& checkpoint,
                                    bool has_resume,
                                    const std::string& resume) {
  if (!has_resume) return checkpoint;
  if (resume.empty())
    throw std::invalid_argument(
        context + ": --resume needs a checkpoint file path (use "
        "--checkpoint FILE to start a new checkpointed run)");
  if (!checkpoint.empty() && checkpoint != resume)
    throw std::invalid_argument(context +
                                ": --checkpoint and --resume disagree (" +
                                checkpoint + " vs " + resume + ")");
  std::ifstream probe(resume);
  if (!probe)
    throw std::invalid_argument(context + ": --resume file not found: " +
                                resume);
  return resume;
}

}  // namespace hispar::core
