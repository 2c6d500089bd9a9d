// HTTP Archive (HAR) model.
//
// §3.1: "After each web-page visit using the automated browser, we
// collected the HTTP Archive (HAR) files from the browser and data from
// the Navigation Timing (NT) API." All of the paper's per-object
// analysis (sizes, MIME mixes, cacheability, CDN bytes, timing phases)
// reads HAR entries, so the analysis pipeline in src/core consumes this
// representation — not the ground-truth WebPage — exactly as a real
// measurement toolchain would.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/url.h"

namespace hispar::browser {

// Per-entry timing phases, in milliseconds (w3c HAR spec §4.2.16).
struct HarTimings {
  double blocked = 0.0;
  double dns = 0.0;
  double connect = 0.0;  // TCP portion
  double ssl = 0.0;      // TLS portion
  double send = 0.0;
  double wait = 0.0;
  double receive = 0.0;

  double total() const {
    return blocked + dns + connect + ssl + send + wait + receive;
  }
};

// X-Cache response header verdict ("HIT"/"MISS"), or none when the
// serving provider does not emit the header.
enum class XCache : std::uint8_t { kNone, kHit, kMiss };

// The header value ("HIT"/"MISS"; "" for kNone).
std::string_view to_string(XCache x_cache);

// The response headers the analysis reads, as a record rather than
// text: the serving CDN's signature header and X-Cache. A bare
// signature name is emitted as "<signature>: present"; a signature that
// already carries its value ("via: 1.1 google") is emitted as that
// name and value. A HAR consumer that wants the "name: value" lines
// gets them, in HAR order, from for_each_line().
struct ResponseHeaders {
  // CdnProvider::header_signature: a header name, or "name: value";
  // empty = none.
  std::string_view cdn_signature;
  XCache x_cache = XCache::kNone;

  // Calls emit(name, value) once per header line "name: value", in HAR
  // order (signature first, then X-Cache).
  template <typename Emit>
  void for_each_line(Emit&& emit) const {
    if (!cdn_signature.empty()) {
      const std::size_t colon = cdn_signature.find(": ");
      if (colon == std::string_view::npos)
        emit(cdn_signature, std::string_view("present"));
      else
        emit(cdn_signature.substr(0, colon), cdn_signature.substr(colon + 2));
    }
    if (x_cache != XCache::kNone)
      emit(std::string_view("x-cache"), to_string(x_cache));
  }

  // The header lines as "name: value" strings.
  std::vector<std::string> lines() const;
};

// One fetched object. Entries borrow rather than own their text: `url`,
// `host` and `dns_cname` view the WebObject that produced the entry,
// `mime_type` views the static MIME table (web::representative_mime_type),
// `error` and `request_method` view static strings, and the signature in
// `response_headers` views the CdnRegistry's provider. An entry is valid
// only while those outlive it; see LoadResult in loader.h. Hand-built
// entries (tests, tools) must point at strings they keep alive.
struct HarEntry {
  std::string_view url;
  std::string_view host;
  util::Scheme scheme = util::Scheme::kHttps;
  std::string_view mime_type;         // concrete type, e.g. "image/jpeg"
  std::string_view request_method = "GET";
  // 200 for successful fetches, 5xx for server errors, 0 when the fetch
  // never produced a response (DNS/connect failures, watchdog aborts).
  int status = 200;
  // Failure description for entries that did not complete cleanly
  // (empty = no error). Mirrors the HAR `_error` custom field real
  // browsers emit for failed requests.
  std::string_view error;
  double body_size = 0.0;             // bytes
  bool cacheable = false;             // from Cache-Control/response code
  // Index of the page object this entry fetched (WebPage::objects);
  // entries are in completion order, not object order.
  std::uint32_t object_index = 0;
  double started_at_ms = 0.0;         // relative to navigationStart
  HarTimings timings;
  ResponseHeaders response_headers;
  std::optional<std::string_view> dns_cname;  // observed CNAME target

  double finished_at_ms() const { return started_at_ms + timings.total(); }
};

// Navigation Timing essentials (§4: PLT = navigationStart..firstPaint).
struct NavigationTiming {
  double navigation_start_ms = 0.0;
  double first_paint_ms = 0.0;
  double on_load_ms = 0.0;
};

// A page load's HAR. `page_url` is owned; the entries borrow (see
// HarEntry), so a HarLog must not outlive the page it was loaded from.
struct HarLog {
  std::string page_url;
  std::vector<HarEntry> entries;
  NavigationTiming nav;

  double total_bytes() const;
  std::size_t object_count() const { return entries.size(); }
  std::size_t unique_domains() const;
  // Passive mixed content: an HTTPS page with >= 1 HTTP subresource.
  bool has_mixed_content() const;
};

// Serialize to (a subset of) the HAR 1.2 JSON format — enough for
// external tooling to ingest.
std::string to_har_json(const HarLog& log);

}  // namespace hispar::browser
