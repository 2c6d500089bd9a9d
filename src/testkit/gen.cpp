#include "testkit/gen.h"

#include <algorithm>
#include <sstream>

#include "net/faults.h"
#include "net/outage.h"

namespace hispar::testkit {

namespace {

// Spec numbers print through the same precision the grammars' own
// str() methods use, so a generated spec is always re-printable.
std::string num(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

constexpr const char* kPageFaultKeys[] = {
    "dns_servfail", "dns_timeout", "connection_reset", "tls_failure",
    "http_5xx",     "stall",       "truncation"};
constexpr const char* kSearchFaultKeys[] = {
    "query_timeout", "empty_page", "quota_exceeded", "rate_limited"};
constexpr const char* kDnsKinds[] = {"dns_servfail", "dns_timeout"};
constexpr const char* kRegions[] = {"na", "eu", "as", "sa", "oc"};
// Few distinct bytes, so generated literals overlap and recur in
// generated texts; NUL and high bytes exercise unsigned indexing.
constexpr char kFilterBytes[] = {'a', 'b', 'c', '.', '/',    ':',
                                 '-', 'x', '\0', '\x80', '\xff'};

std::string filter_bytes(Gen& gen, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += gen.pick(kFilterBytes);
  return out;
}

template <std::size_t N>
std::string keyed_rate_spec(Gen& gen, const char* const (&keys)[N]) {
  // Subset of keys, each with a small rate; the per-key cap keeps the
  // sum under the grammar's total-rate <= 1 constraint.
  const std::size_t count = 1 + gen.index(N);
  bool used[N] = {};
  std::string spec;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t key = gen.index(N);
    if (used[key]) continue;
    used[key] = true;
    if (!spec.empty()) spec += ',';
    spec += keys[key];
    spec += '=';
    spec += num(gen.in_range(0.0, 0.9 / static_cast<double>(N)));
  }
  return spec;
}

std::string chaos_rule(Gen& gen) {
  std::string rule;
  const std::size_t scope = gen.index(4);
  switch (scope) {
    case 0:
      rule = "cdn:provider=" + std::to_string(gen.index(4)) +
             ",kind=" + gen.pick(kPageFaultKeys);
      break;
    case 1:
      rule = std::string("resolver:kind=") + gen.pick(kDnsKinds);
      break;
    case 2:
      rule = "origin:domain=site" + std::to_string(gen.index(50)) +
             ".example,kind=" + gen.pick(kPageFaultKeys);
      break;
    default:
      rule = std::string("search:kind=") + gen.pick(kSearchFaultKeys);
      break;
  }
  rule += ",sev=" + num(gen.in_range(0.05, 1.0));
  if (gen.chance(0.5)) {
    rule += ",start_s=" + num(gen.in_range(0.0, 60.0)) +
            ",dur_s=" + num(gen.in_range(1.0, 300.0));
  } else {
    rule += ",mtbf_s=" + num(gen.in_range(5.0, 120.0)) +
            ",mttr_s=" + num(gen.in_range(1.0, 60.0));
    if (gen.chance(0.3))
      rule += ",horizon_s=" + num(gen.in_range(100.0, 5000.0));
  }
  return rule;
}

}  // namespace

std::string gen_fault_spec(Gen& gen) {
  const double shape = gen.in_range(0.0, 1.0);
  if (shape < 0.2) return "none";
  if (shape < 0.5) return "uniform:" + num(gen.in_range(0.0, 0.12));
  return keyed_rate_spec(gen, kPageFaultKeys);
}

std::string gen_search_fault_spec(Gen& gen) {
  const double shape = gen.in_range(0.0, 1.0);
  if (shape < 0.2) return "none";
  if (shape < 0.5) return "uniform:" + num(gen.in_range(0.0, 0.15));
  return keyed_rate_spec(gen, kSearchFaultKeys);
}

std::string gen_chaos_spec(Gen& gen) {
  if (gen.chance(0.15)) return "none";
  const std::size_t rules = 1 + gen.index(1 + static_cast<std::size_t>(
                                                  gen.size()) / 25);
  std::string spec;
  for (std::size_t i = 0; i < rules; ++i) {
    if (!spec.empty()) spec += ';';
    spec += chaos_rule(gen);
  }
  return spec;
}

std::string gen_vantage_spec(Gen& gen) {
  std::string spec = "v" + std::to_string(gen.index(1000));
  if (gen.chance(0.6)) spec += std::string(":region=") + gen.pick(kRegions);
  if (gen.chance(0.4))
    spec += gen.chance(0.5) ? ":resolver=public" : ":resolver=isp";
  if (gen.chance(0.3)) spec += gen.chance(0.5) ? ":doh=1" : ":doh=0";
  if (gen.chance(0.3)) spec += std::string(":edge=") + gen.pick(kRegions);
  if (gen.chance(0.4)) spec += ":access_ms=" + num(gen.in_range(0.0, 60.0));
  if (gen.chance(0.3))
    spec += ":bandwidth=" + num(gen.in_range(100.0, 20000.0));
  if (gen.chance(0.3)) spec += ":faults=" + num(gen.in_range(0.0, 3.0));
  return spec;
}

std::string gen_vantage_list_spec(Gen& gen) {
  const std::size_t count = 1 + gen.index(3);
  std::string spec;
  for (std::size_t i = 0; i < count; ++i) {
    if (!spec.empty()) spec += ';';
    spec += gen_vantage_spec(gen);
  }
  return spec;
}

core::CampaignConfig gen_campaign_config(Gen& gen) {
  core::CampaignConfig config;
  config.landing_loads = 1 + static_cast<int>(gen.index(3));
  config.seed = gen.u64();
  config.shards = 1 + gen.index(4);
  config.fault_profile = net::FaultProfile::parse(gen_fault_spec(gen));
  if (gen.chance(0.35))
    config.chaos = net::OutageSchedule::parse(gen_chaos_spec(gen));
  config.max_page_retries = static_cast<int>(gen.index(3));
  config.retry_backoff_s = gen.in_range(1.0, 30.0);
  config.page_timeout_s = gen.in_range(30.0, 120.0);
  if (gen.chance(0.25))
    config.wait_sample_cap = 10 + gen.index(80);
  return config;
}

core::ListBuildConfig gen_listbuild_config(Gen& gen) {
  core::ListBuildConfig config;
  // Small list targets: the oracles run these against WorldPool's tiny
  // universes, where the default H1K sizes would scan every rank.
  config.list.name = "Hgen";
  config.list.target_sites = 4 + gen.index(6);
  config.list.urls_per_site = 3 + gen.index(3);
  config.list.min_internal_results = 2;
  config.list.index_crawl_budget = 200;
  config.seed = gen.u64();
  config.weeks = 1 + gen.index(2);
  config.shards = 1 + gen.index(4);
  config.wave_size = gen.chance(0.5) ? 0 : 4 + gen.index(24);
  config.fault_profile =
      net::SearchFaultProfile::parse(gen_search_fault_spec(gen));
  if (gen.chance(0.3))
    config.chaos = net::OutageSchedule::parse(gen_chaos_spec(gen));
  config.max_query_retries = static_cast<int>(gen.index(3));
  config.retry_backoff_s = gen.in_range(5.0, 60.0);
  return config;
}

core::SessionConfig gen_session_config(Gen& gen) {
  core::SessionConfig config;
  config.base = gen_campaign_config(gen);
  config.base.landing_loads = 1 + static_cast<int>(gen.index(2));
  config.session_len = 1 + gen.index(4);
  // Occasionally tiny, so session-internal eviction paths run too.
  config.cache_bytes =
      gen.chance(0.2) ? 50'000 + gen.index(200'000) : 50'000'000;
  config.warm = gen.chance(0.85);
  return config;
}

std::vector<std::string> gen_literal_patterns(Gen& gen) {
  const std::size_t max_len = 2 + static_cast<std::size_t>(gen.size()) / 10;
  const std::size_t count = 1 + gen.index(2 + gen.size() / 5);
  std::vector<std::string> literals;
  while (literals.size() < count) {
    if (literals.empty() || gen.chance(0.5)) {
      literals.push_back(filter_bytes(gen, 1 + gen.index(max_len)));
      continue;
    }
    // Derive from an earlier literal: its prefix, an extension of it,
    // or its tail plus a byte (ab -> a, abc, bc).
    const std::string base = literals[gen.index(literals.size())];
    switch (gen.index(3)) {
      case 0:
        literals.push_back(base.substr(0, 1 + gen.index(base.size())));
        break;
      case 1:
        literals.push_back(base + filter_bytes(gen, 1));
        break;
      default:
        literals.push_back(base.substr(gen.index(base.size())) +
                           filter_bytes(gen, 1));
        break;
    }
  }
  std::vector<std::string> patterns;
  for (const std::string& literal : literals)
    patterns.push_back("*" + literal + "*");
  return patterns;
}

std::string gen_filter_text(Gen& gen,
                            const std::vector<std::string>& patterns) {
  std::string text = gen.chance(0.5) ? "https://" : "http://";
  text += filter_bytes(gen, gen.index(8)) + ".com/" +
          filter_bytes(gen, gen.index(4 + gen.size() / 2));
  if (patterns.empty() || gen.chance(0.3)) return text;
  const std::string& pattern = patterns[gen.index(patterns.size())];
  std::string literal = pattern.substr(1, pattern.size() - 2);
  if (gen.chance(0.3))  // near miss: last byte changed
    literal.back() = gen.pick(kFilterBytes);
  switch (gen.index(3)) {
    case 0:
      return literal + text;
    case 1:
      return text + literal;
    default:
      return text.insert(gen.index(text.size() + 1), literal);
  }
}

std::string gen_bytes(Gen& gen, std::size_t n) {
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out += static_cast<char>(gen.index(256));
  return out;
}

std::string mutate(Gen& gen, std::string_view input) {
  std::string out(input);
  if (out.empty()) return gen_bytes(gen, 1 + gen.index(64));

  const std::size_t mutations =
      1 + gen.index(4 + static_cast<std::size_t>(gen.size()) / 8);
  for (std::size_t m = 0; m < mutations; ++m) {
    if (out.empty()) {
      out = gen_bytes(gen, 1 + gen.index(16));
      continue;
    }
    const std::size_t at = gen.index(out.size());
    switch (gen.index(9)) {
      case 0:  // bit flip
        out[at] = static_cast<char>(out[at] ^ (1u << gen.index(8)));
        break;
      case 1:  // byte set
        out[at] = static_cast<char>(gen.index(256));
        break;
      case 2:  // insert random bytes
        out.insert(at, gen_bytes(gen, 1 + gen.index(8)));
        break;
      case 3: {  // delete range
        const std::size_t len = 1 + gen.index(std::min<std::size_t>(
                                        32, out.size() - at));
        out.erase(at, len);
        break;
      }
      case 4: {  // duplicate range
        const std::size_t len = 1 + gen.index(std::min<std::size_t>(
                                        32, out.size() - at));
        out.insert(at, out.substr(at, len));
        break;
      }
      case 5:  // truncate (torn tail)
        out.resize(at);
        break;
      case 6: {  // replace a digit run with another number
        std::size_t digit = out.find_first_of("0123456789", at);
        if (digit == std::string::npos)
          digit = out.find_first_of("0123456789");
        if (digit != std::string::npos) {
          std::size_t end = digit;
          while (end < out.size() &&
                 out[end] >= '0' && out[end] <= '9')
            ++end;
          // Oversize length fields and sign flips live here.
          const char* replacements[] = {
              "0", "1", "-1", "18446744073709551615", "99999999999999999999",
              "4294967296", "1000000000000000000"};
          out.replace(digit, end - digit, gen.pick(replacements));
        }
        break;
      }
      case 7:  // NUL injection
        out.insert(at, 1, '\0');
        break;
      default: {  // splice: move one line elsewhere
        const std::size_t line_start = out.rfind('\n', at);
        const std::size_t begin =
            line_start == std::string::npos ? 0 : line_start + 1;
        std::size_t line_end = out.find('\n', begin);
        if (line_end == std::string::npos) line_end = out.size();
        const std::string line = out.substr(begin, line_end - begin + 1);
        out.erase(begin, line_end - begin + 1);
        out.insert(gen.index(out.size() + 1), line);
        break;
      }
    }
  }
  return out;
}

}  // namespace hispar::testkit
