#include "browser/qoe.h"

#include <algorithm>
#include <vector>

#include "web/mime.h"

namespace hispar::browser {

QoeMetrics qoe_metrics(const web::WebPage& page, const LoadResult& result) {
  const std::vector<const HarEntry*> by_object =
      entries_by_object(page, result, "qoe_metrics");

  QoeMetrics metrics;
  metrics.first_paint_ms = result.plt_ms;

  // Visual completeness timeline: (paint time, visual weight).
  std::vector<std::pair<double, double>> paints;
  double total_weight = 0.0;
  double js_cost_ms = 0.0;
  for (std::size_t i = 0; i < page.objects.size(); ++i) {
    const web::WebObject& object = page.objects[i];
    const HarEntry* entry = by_object[i];
    if (web::is_visual(object.mime)) {
      const double at = std::max(entry->finished_at_ms(), result.plt_ms);
      paints.emplace_back(at, object.size_bytes);
      total_weight += object.size_bytes;
    }
    if (object.mime == web::MimeCategory::kJavaScript) {
      // Parse + compile + execute, serialized on the main thread; async
      // scripts still occupy it, just later.
      js_cost_ms += 3.0 + object.size_bytes * 2.5e-4;
    }
  }

  if (total_weight <= 0.0) {
    metrics.visual_complete_90_ms = result.plt_ms;
    metrics.visual_complete_ms = result.plt_ms;
  } else {
    std::sort(paints.begin(), paints.end());
    double cumulative = 0.0;
    metrics.visual_complete_ms = paints.back().first;
    metrics.visual_complete_90_ms = paints.back().first;
    for (const auto& [at, weight] : paints) {
      cumulative += weight;
      if (cumulative >= 0.9 * total_weight) {
        metrics.visual_complete_90_ms = at;
        break;
      }
    }
  }

  metrics.time_to_interactive_ms = result.plt_ms + js_cost_ms;
  return metrics;
}

}  // namespace hispar::browser
