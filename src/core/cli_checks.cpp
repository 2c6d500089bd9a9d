#include "core/cli_checks.h"

#include <stdexcept>
#include <string>

#include "core/measurement.h"

namespace hispar::core {

MeasurePlan validate_measure_flags(const MeasureFlags& flags) {
  if (flags.shards == 0)
    throw std::invalid_argument("measure: --shards must be >= 1");
  validate_shard_count("measure", flags.shards, flags.list_sites);

  MeasurePlan plan;
  plan.vantage_mode = flags.has_vantages || !flags.vantage_profile.empty();
  if (plan.vantage_mode) {
    if (!flags.vantage_profile.empty()) {
      plan.profiles = net::VantageProfile::parse_list(flags.vantage_profile);
      if (flags.has_vantages &&
          static_cast<std::size_t>(flags.vantages) != plan.profiles.size())
        throw std::invalid_argument(
            "measure: --vantages disagrees with the --vantage-profile count");
    } else {
      if (flags.vantages < 1)
        throw std::invalid_argument("measure: --vantages must be >= 1");
      plan.profiles = net::VantageProfile::default_vantages(
          static_cast<std::size_t>(flags.vantages));
    }
  }
  if (!flags.consensus_out.empty() && !plan.vantage_mode)
    throw std::invalid_argument(
        "measure: --consensus-out needs --vantages or --vantage-profile");

  plan.session_mode = flags.sessions;
  if (!plan.session_mode && flags.has_session_flags)
    throw std::invalid_argument(
        "measure: --session-len/--session-out/--warm-hits-out need "
        "--sessions");
  if (plan.session_mode && plan.vantage_mode)
    throw std::invalid_argument(
        "measure: --sessions cannot be combined with --vantages or "
        "--vantage-profile");
  if (plan.session_mode && flags.session_len < 1)
    throw std::invalid_argument(
        "measure: --session-len must be >= 1 (a session without internal "
        "pages measures nothing)");
  return plan;
}

void validate_build_flags(const BuildFlags& flags) {
  if (flags.weeks == 0)
    throw std::invalid_argument("build: --weeks must be >= 1");
  if (flags.shards == 0)
    throw std::invalid_argument("build: --shards must be >= 1");
  validate_shard_count("build", flags.shards, flags.target_sites);
  validate_url_budget("build", flags.urls_per_site,
                      flags.min_internal_results);
}

void validate_url_budget(const char* cmd, std::size_t urls_per_site,
                         std::size_t min_internal_results) {
  if (urls_per_site <= min_internal_results)
    throw std::invalid_argument(
        std::string(cmd) + ": --urls (" + std::to_string(urls_per_site) +
        ") must exceed --min-results (" +
        std::to_string(min_internal_results) +
        "): a site yields at most --urls - 1 internal URLs, so every site "
        "would be dropped and the list would be empty");
}

std::unique_ptr<std::ofstream> open_artifact(const char* cmd,
                                             const char* flag,
                                             const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*out)
    throw std::invalid_argument(std::string(cmd) + ": cannot write --" +
                                flag + " file: " + path);
  return out;
}

void finish_artifact(const char* cmd, const char* flag,
                     const std::string& path, std::ofstream& out) {
  out.flush();
  out.close();
  if (out.fail())
    throw std::runtime_error(std::string(cmd) + ": cannot write --" + flag +
                             " file: " + path);
}

}  // namespace hispar::core
