#include "prt/trace.hpp"

#include <algorithm>
#include <map>
#include <cmath>

namespace pulsarqr::prt::trace {

Recorder::Recorder(int num_threads, bool enabled, int extra_lanes)
    : enabled_(enabled), buffers_(num_threads + extra_lanes) {
  epoch_ = std::chrono::steady_clock::now();
}

double Recorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Recorder::inject(const Event& ev) {
  // Merged events keep their original lane when it exists (worker global
  // ids and proxy lanes are process-independent); anything else lands on
  // lane 0 rather than growing the lane table.
  const std::size_t lane =
      ev.thread >= 0 && static_cast<std::size_t>(ev.thread) < buffers_.size()
          ? static_cast<std::size_t>(ev.thread)
          : 0;
  buffers_[lane].push_back(ev);
}

void Recorder::record(int thread, int color, const Tuple& tuple, double t0,
                      double t1) {
  if (!enabled_) return;
  buffers_[thread].push_back({thread, color, tuple, t0, t1});
}

void Recorder::record_mark(int thread, int color, const Tuple& tuple,
                           double t) {
  if (!enabled_) return;
  buffers_[thread].push_back({thread, color, tuple, t, t});
}

std::vector<Event> Recorder::collect() const {
  std::vector<Event> all;
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(),
            [](const Event& a, const Event& b) { return a.t0 < b.t0; });
  return all;
}

TraceStats compute_stats(const std::vector<Event>& events, int num_threads,
                         int overlap_color) {
  TraceStats s;
  if (events.empty()) return s;
  double t_min = events.front().t0;
  double t_max = 0.0;
  int max_color = 0;
  for (const auto& e : events) {
    t_min = std::min(t_min, e.t0);
    t_max = std::max(t_max, e.t1);
    s.busy += e.t1 - e.t0;
    max_color = std::max(max_color, e.color);
  }
  s.span = t_max - t_min;
  s.utilization = s.span > 0 ? s.busy / (s.span * num_threads) : 0.0;
  s.busy_by_color.assign(max_color + 1, 0.0);
  for (const auto& e : events) s.busy_by_color[e.color] += e.t1 - e.t0;

  // Overlap: sweep the merged start/end points; measure the time during
  // which a task of `overlap_color` and a task of a different color are
  // simultaneously in flight.
  struct Edge {
    double t;
    int delta;   // +1 start, -1 end
    bool is_oc;  // belongs to the overlap color
  };
  std::vector<Edge> edges;
  edges.reserve(events.size() * 2);
  for (const auto& e : events) {
    edges.push_back({e.t0, +1, e.color == overlap_color});
    edges.push_back({e.t1, -1, e.color == overlap_color});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  int oc = 0;
  int other = 0;
  double last = edges.empty() ? 0.0 : edges.front().t;
  double both = 0.0;
  for (const auto& e : edges) {
    if (oc > 0 && other > 0) both += e.t - last;
    last = e.t;
    (e.is_oc ? oc : other) += e.delta;
  }
  s.overlap_fraction = s.span > 0 ? both / s.span : 0.0;
  return s;
}

double pipeline_depth(const std::vector<Event>& events, int key_index) {
  if (events.empty()) return 0.0;
  struct Window {
    double t0 = 1e300;
    double t1 = -1e300;
  };
  std::map<int, Window> windows;
  double span0 = events.front().t0;
  double span1 = events.front().t1;
  for (const auto& e : events) {
    if (static_cast<int>(e.tuple.size()) <= key_index) continue;
    Window& w = windows[e.tuple[key_index]];
    w.t0 = std::min(w.t0, e.t0);
    w.t1 = std::max(w.t1, e.t1);
    span0 = std::min(span0, e.t0);
    span1 = std::max(span1, e.t1);
  }
  const double span = span1 - span0;
  if (span <= 0.0 || windows.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [key, w] : windows) total += w.t1 - w.t0;
  return total / span;
}

void write_csv(std::ostream& os, const std::vector<Event>& events) {
  os << "thread,color,tuple,t0,t1\n";
  for (const auto& e : events) {
    os << e.thread << ',' << e.color << ',' << '"' << e.tuple.to_string()
       << '"' << ',' << e.t0 << ',' << e.t1 << '\n';
  }
}

void write_ascii_gantt(std::ostream& os, const std::vector<Event>& events,
                       int num_threads, int width,
                       const std::vector<std::string>& color_names) {
  if (events.empty() || width <= 0) return;
  double t_min = events.front().t0;
  double t_max = events.front().t1;
  for (const auto& e : events) {
    t_min = std::min(t_min, e.t0);
    t_max = std::max(t_max, e.t1);
  }
  const double span = std::max(t_max - t_min, 1e-12);
  // cells[thread][x] = color + 1 (0 = idle).
  std::vector<std::vector<int>> cells(num_threads, std::vector<int>(width, 0));
  for (const auto& e : events) {
    int x0 = static_cast<int>((e.t0 - t_min) / span * width);
    int x1 = static_cast<int>((e.t1 - t_min) / span * width);
    x0 = std::clamp(x0, 0, width - 1);
    x1 = std::clamp(x1, x0, width - 1);
    for (int x = x0; x <= x1; ++x) cells[e.thread][x] = e.color + 1;
  }
  static const char glyphs[] = ".FUB456789";  // idle, then color 0,1,2,...
  for (int t = 0; t < num_threads; ++t) {
    os << "thr" << (t < 10 ? " " : "") << t << " |";
    for (int x = 0; x < width; ++x) {
      const int c = cells[t][x];
      os << (c < static_cast<int>(sizeof(glyphs)) ? glyphs[c] : '?');
    }
    os << "|\n";
  }
  os << "legend: '.'=idle";
  for (std::size_t c = 0; c < color_names.size() && c + 1 < sizeof(glyphs) - 1;
       ++c) {
    os << "  '" << glyphs[c + 1] << "'=" << color_names[c];
  }
  os << "\n";
}

}  // namespace pulsarqr::prt::trace
