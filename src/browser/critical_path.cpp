#include "browser/critical_path.h"

#include <algorithm>

namespace hispar::browser {

CriticalPath critical_path(const web::WebPage& page,
                           const LoadResult& result) {
  const std::vector<const HarEntry*> by_object =
      entries_by_object(page, result, "critical_path");

  int last_object = -1;
  double last_finish = -1.0;
  for (std::size_t i = 0; i < page.objects.size(); ++i) {
    const double finish = by_object[i]->finished_at_ms();
    if (finish > last_finish) {
      last_finish = finish;
      last_object = static_cast<int>(i);
    }
  }

  CriticalPath path;
  path.length_ms = last_finish;
  // Walk ancestors back to the root.
  for (int index = last_object; index >= 0;
       index = page.objects[static_cast<std::size_t>(index)].parent_index) {
    path.object_indices.push_back(index);
    path.fetch_ms +=
        by_object[static_cast<std::size_t>(index)]->timings.total();
  }
  std::reverse(path.object_indices.begin(), path.object_indices.end());
  path.hops = static_cast<int>(path.object_indices.size()) - 1;
  return path;
}

web::WebPage push_all_objects(web::WebPage page) {
  for (std::size_t i = 1; i < page.objects.size(); ++i) {
    page.objects[i].depth = 1;
    page.objects[i].parent_index = 0;
  }
  return page;
}

web::WebPage with_added_hints(web::WebPage page, int dns_prefetch,
                              int preconnect) {
  page.hints.dns_prefetch += dns_prefetch;
  page.hints.preconnect += preconnect;
  return page;
}

}  // namespace hispar::browser
