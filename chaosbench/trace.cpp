#include "trace.hpp"

#include <cstdio>

namespace chaosbench {

namespace {
std::int64_t g_origin_ns = 0;
}  // namespace

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_origin_ns(std::int64_t origin_ns) { g_origin_ns = origin_ns; }

double now_s() { return static_cast<double>(steady_ns() - g_origin_ns) * 1e-9; }

Tracer::Tracer(int tracks) : tracks_(static_cast<std::size_t>(tracks)) {}

std::size_t Tracer::open(int track, const char* name) {
  Track& t = tracks_[static_cast<std::size_t>(track)];
  SpanRec rec;
  rec.name = name;
  rec.id = static_cast<std::int64_t>(track + 1) * 1000000000 +
           static_cast<std::int64_t>(t.spans.size());
  rec.parent = t.open.empty() ? -1 : t.spans[t.open.back()].id;
  rec.t0 = now_s();
  t.spans.push_back(rec);
  t.open.push_back(t.spans.size() - 1);
  return t.spans.size() - 1;
}

void Tracer::close(int track, std::size_t index) {
  Track& t = tracks_[static_cast<std::size_t>(track)];
  t.spans[index].t1 = now_s();
  t.open.pop_back();
}

void Tracer::clear() {
  for (Track& t : tracks_) {
    t.spans.clear();
    t.open.clear();
  }
}

std::map<std::string, double> Tracer::totals(int track) const {
  std::map<std::string, double> out;
  for (const SpanRec& s : spans(track)) out[s.name] += s.t1 - s.t0;
  return out;
}

std::map<std::string, double> Tracer::self_by_module(int track) const {
  const std::vector<SpanRec>& ss = spans(track);
  // Span ids on one track are base + index, so a parent id maps straight
  // back to its index.
  const std::int64_t base = static_cast<std::int64_t>(track + 1) * 1000000000;
  std::vector<double> child(ss.size(), 0.0);
  for (const SpanRec& s : ss) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent - base)] += s.t1 - s.t0;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const std::string name = ss[i].name;
    out[name.substr(0, name.find('.'))] += ss[i].t1 - ss[i].t0 - child[i];
  }
  return out;
}

void Tracer::append_chrome(std::vector<std::string>& events, int pid) const {
  char buf[320];
  for (int track = 0; track < tracks(); ++track) {
    for (const SpanRec& s : spans(track)) {
      const std::string name = s.name;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                    "\"parent\":%lld,\"rank\":%d}}",
                    s.name, name.substr(0, name.find('.')).c_str(), pid, track,
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent),
                    track == host_track() ? -1 : track);
      events.emplace_back(buf);
    }
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::fputs(events[i].c_str(), f);
    std::fputs(i + 1 < events.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace chaosbench
