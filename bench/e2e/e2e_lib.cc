#include "e2e_lib.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace wsie::e2e {

// ------------------------------------------------------------ percentiles

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailLevel(size_t n) {
  double level = 0.5;
  for (const double candidate : {0.75, 0.9, 0.95, 0.99}) {
    // The epsilon absorbs rounding: 100 * (1 - 0.9) is 9.999...
    if (static_cast<double>(n) * (1.0 - candidate) >= 10.0 - 1e-9) level = candidate;
  }
  return level;
}

Timing Summarize(const std::vector<double>& values) {
  Timing timing;
  timing.n = values.size();
  timing.tail_level = TailLevel(values.size());
  timing.p50 = Quantile(values, 0.5);
  timing.tail = Quantile(values, timing.tail_level);
  return timing;
}

// ----------------------------------------------------------------- digest

void Fnv::U64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv::Str(std::string_view s) {
  U64(s.size());
  for (const char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv::F64(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void DigestResponse(const serve::QueryEngine::Response& response, Fnv* fnv) {
  using Kind = serve::QueryEngine::Request::Kind;
  fnv->U64(static_cast<uint64_t>(response.kind));
  switch (response.kind) {
    case Kind::kLookup: {
      const auto& r = response.lookup;
      fnv->U64(r.found ? 1 : 0);
      fnv->U64(r.count);
      fnv->U64(r.docs);
      for (const uint64_t n : r.per_corpus) fnv->U64(n);
      for (const store::Posting& p : r.postings) {
        fnv->U64(p.doc_id);
        fnv->U64(p.sentence);
        fnv->U64(p.begin);
        fnv->U64(p.end);
      }
      break;
    }
    case Kind::kPrefix:
      for (const std::string& name : response.names) fnv->Str(name);
      break;
    case Kind::kFrequency:
      fnv->U64(response.frequency.distinct_names);
      fnv->U64(response.frequency.annotations);
      fnv->U64(response.frequency.sentences);
      fnv->F64(response.frequency.per_1000_sentences);
      break;
    case Kind::kTopK:
      for (const auto& entry : response.topk) {
        fnv->Str(entry.name);
        fnv->U64(entry.count);
      }
      break;
    case Kind::kCoOccurrence:
      fnv->U64(response.cooccurrence.docs);
      fnv->U64(response.cooccurrence.sentences);
      break;
    case Kind::kSimilar:
      fnv->U64(response.similar.index_available ? 1 : 0);
      fnv->U64(response.similar.found ? 1 : 0);
      for (const auto& hit : response.similar.neighbors) {
        fnv->Str(hit.name);
        fnv->F64(hit.distance);
      }
      break;
  }
}

std::string FormatResponseBody(const serve::QueryEngine::Response& response) {
  std::ostringstream body;
  using Kind = serve::QueryEngine::Request::Kind;
  switch (response.kind) {
    case Kind::kLookup: {
      const auto& r = response.lookup;
      body << "found=" << (r.found ? 1 : 0) << " count=" << r.count
           << " docs=" << r.docs << " per_corpus=";
      for (size_t c = 0; c < r.per_corpus.size(); ++c) {
        body << (c == 0 ? "" : ",") << r.per_corpus[c];
      }
      body << "\n";
      for (const store::Posting& p : r.postings) {
        body << "posting doc=" << p.doc_id << " sentence=" << p.sentence
             << " begin=" << p.begin << " end=" << p.end << "\n";
      }
      break;
    }
    case Kind::kPrefix:
      for (const std::string& name : response.names) body << name << "\n";
      break;
    case Kind::kFrequency: {
      const auto& r = response.frequency;
      body << "distinct_names=" << r.distinct_names
           << " annotations=" << r.annotations << " sentences=" << r.sentences
           << " per_1000_sentences=" << r.per_1000_sentences << "\n";
      break;
    }
    case Kind::kTopK:
      for (const auto& entry : response.topk) {
        body << entry.name << " " << entry.count << "\n";
      }
      break;
    case Kind::kCoOccurrence:
      body << "docs=" << response.cooccurrence.docs
           << " sentences=" << response.cooccurrence.sentences << "\n";
      break;
    case Kind::kSimilar: {
      const auto& r = response.similar;
      body << "index_available=" << (r.index_available ? 1 : 0)
           << " found=" << (r.found ? 1 : 0) << " hops=" << r.hops << "\n";
      for (const auto& hit : r.neighbors) {
        body << hit.name << " " << hit.distance << "\n";
      }
      break;
    }
  }
  return body.str();
}

namespace {

std::string UrlEncode(std::string_view in) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (const char c : in) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

std::string FilterParams(const serve::QueryFilter& filter) {
  std::string out;
  if (filter.corpus != serve::kAny) out += "&corpus=" + std::to_string(filter.corpus);
  if (filter.type != serve::kAny) out += "&type=" + std::to_string(filter.type);
  if (filter.method != serve::kAny) out += "&method=" + std::to_string(filter.method);
  return out;
}

}  // namespace

std::string HttpTarget(const serve::QueryEngine::Request& request) {
  using Kind = serve::QueryEngine::Request::Kind;
  switch (request.kind) {
    case Kind::kLookup:
      return "/lookup?name=" + UrlEncode(request.name) +
             FilterParams(request.filter) +
             "&max=" + std::to_string(request.limit);
    case Kind::kPrefix:
      return "/prefix?p=" + UrlEncode(request.name) +
             "&limit=" + std::to_string(request.limit);
    case Kind::kTopK:
      return "/topk?k=" + std::to_string(request.limit) +
             FilterParams(request.filter);
    case Kind::kFrequency:
      return "/freq?corpus=" + std::to_string(request.corpus) +
             "&type=" + std::to_string(request.type) +
             "&method=" + std::to_string(request.method);
    case Kind::kCoOccurrence:
      return "/cooc?a=" + UrlEncode(request.name) +
             "&b=" + UrlEncode(request.name_b) + FilterParams(request.filter);
    case Kind::kSimilar:
      return "/similar?q=" + UrlEncode(request.name) +
             "&k=" + std::to_string(request.limit);
  }
  return "/";
}

// ---------------------------------------------------------------- process

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();  // never destroyed
  return *recorder;
}

void SpanRecorder::Enable(size_t capacity_per_thread) {
  capacity_ = capacity_per_thread;
  enabled_.store(true, std::memory_order_relaxed);
}

SpanRecorder::ThreadSpans* SpanRecorder::ThisThread() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto spans = std::make_unique<ThreadSpans>();
    spans->spans.resize(capacity_);
    spans->open.reserve(64);
    std::lock_guard<std::mutex> lock(mu_);
    spans->thread = static_cast<uint32_t>(threads_.size());
    mine = spans.get();
    threads_.push_back(std::move(spans));
  }
  return mine;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  SpanRecorder::ThreadSpans* thread = recorder.ThisThread();
  const size_t index = thread->size.load(std::memory_order_relaxed);
  if (index >= thread->spans.size()) {
    recorder.dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int64_t parent = thread->open.empty() ? -1 : thread->open.back();
  thread->spans[index] = SpanRecorder::Span{name, NowNs(), 0, parent, request};
  thread->size.store(index + 1, std::memory_order_release);
  thread->open.push_back(static_cast<int64_t>(index));
  thread_ = thread;
  index_ = static_cast<int64_t>(index);
}

ScopedSpan::~ScopedSpan() {
  if (thread_ == nullptr) return;
  thread_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  thread_->open.pop_back();
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::SelfTimes(
    int64_t begin_ns, int64_t end_ns) const {
  std::map<std::string, NameTotals> totals;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& thread : threads_) {
    const size_t n = thread->size.load(std::memory_order_acquire);
    std::vector<int64_t> self(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const Span& span = thread->spans[i];
      const int64_t duration = std::max<int64_t>(0, span.end_ns - span.start_ns);
      self[i] += duration;
      if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= duration;
    }
    for (size_t i = 0; i < n; ++i) {
      const Span& span = thread->spans[i];
      if (span.start_ns < begin_ns || span.start_ns >= end_ns) continue;
      NameTotals& entry = totals[span.name];
      entry.self_s += static_cast<double>(self[i]) / 1e9;
      entry.count += 1;
    }
  }
  return totals;
}

double SpanRecorder::TopLevelSecondsOnThisThread(int64_t begin_ns,
                                                 int64_t end_ns) {
  if (!enabled()) return 0.0;
  const ThreadSpans* thread = ThisThread();
  const size_t n = thread->size.load(std::memory_order_acquire);
  int64_t covered = 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = thread->spans[i];
    if (span.parent >= 0) continue;
    const int64_t lo = std::max(begin_ns, span.start_ns);
    const int64_t hi = std::min(end_ns, span.end_ns);
    covered += std::max<int64_t>(0, hi - lo);
  }
  return static_cast<double>(covered) / 1e9;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& thread : threads_) {
    const size_t n = thread->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      origin = std::min(origin, thread->spans[i].start_ns);
    }
  }
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const auto& thread : threads_) {
    const size_t n = thread->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const Span& span = thread->spans[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld,\"request\":%llu}}",
                    first ? "" : ",", span.name, thread->thread,
                    static_cast<double>(span.start_ns - origin) / 1e3,
                    static_cast<double>(std::max<int64_t>(
                        0, span.end_ns - span.start_ns)) / 1e3,
                    i, static_cast<long long>(span.parent),
                    static_cast<unsigned long long>(span.request));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- metrics

obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      std::string_view name) {
  obs::HistogramSnapshot delta;
  const obs::HistogramSnapshot* end = after.FindHistogram(name);
  if (end == nullptr) return delta;
  delta = *end;
  const obs::HistogramSnapshot* start = before.FindHistogram(name);
  if (start == nullptr || start->bucket_counts.size() != delta.bucket_counts.size()) {
    return delta;
  }
  for (size_t i = 0; i < delta.bucket_counts.size(); ++i) {
    delta.bucket_counts[i] -= start->bucket_counts[i];
  }
  delta.count -= start->count;
  delta.sum -= start->sum;
  return delta;
}

// -------------------------------------------------------------- query mix

QueryMix::QueryMix(std::vector<std::string> ranked_names, int corpus)
    : names_(std::move(ranked_names)), corpus_(corpus) {}

serve::QueryEngine::Request QueryMix::Next(Rng& rng) const {
  using Kind = serve::QueryEngine::Request::Kind;
  serve::QueryEngine::Request request;
  const uint64_t roll = rng.Uniform(100);
  const std::string& name = names_[rng.Zipf(names_.size(), 1.1)];
  if (roll < 55) {
    request.kind = Kind::kLookup;
    request.name = name;
  } else if (roll < 73) {
    request.kind = Kind::kCoOccurrence;
    request.name = name;
    request.name_b = names_[rng.Zipf(names_.size(), 1.1)];
  } else if (roll < 83) {
    request.kind = Kind::kPrefix;
    request.name = name.substr(0, 3);
    request.limit = 20;
  } else if (roll < 93) {
    request.kind = Kind::kTopK;
    request.limit = 10;
    if (roll < 88) request.filter.type = static_cast<int>(rng.Uniform(3));
  } else if (roll < 98) {
    request.kind = Kind::kFrequency;
    request.corpus = corpus_;
    request.type = static_cast<int>(rng.Uniform(3));
    request.method = static_cast<int>(rng.Uniform(3)) - 1;
  } else {
    request.kind = Kind::kSimilar;
    request.name = name;
    request.limit = 10;
  }
  return request;
}

std::vector<serve::QueryEngine::Request> QueryMix::Stream(uint64_t seed,
                                                          size_t n) const {
  Rng rng(seed);
  std::vector<serve::QueryEngine::Request> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) requests.push_back(Next(rng));
  return requests;
}

// ------------------------------------------------------------------ HTTP

namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int HttpGet(uint16_t port, const std::string& target, std::string* body) {
  const int fd = Connect(port);
  if (fd < 0) return -1;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd, request)) {
    ::close(fd);
    return -1;
  }
  // The reply ends where the server closes the connection.
  std::string reply;
  char chunk[16384];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = reply.find("\r\n\r\n");
  if (n < 0 || header_end == std::string::npos || reply.rfind("HTTP/1.1 ", 0) != 0) {
    return -1;
  }
  body->assign(reply, header_end + 4);
  return std::atoi(reply.c_str() + 9);
}

}  // namespace wsie::e2e
