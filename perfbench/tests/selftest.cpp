// Unit checks for perfbench's helpers: digest, percentiles, span log and
// the per-layer fold. Build and run through ctest in the perfbench build
// tree (see perfbench/CMakeLists.txt). Exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_fnv1a() {
  using perfbench::Fnv1a;
  // Published FNV-1a 64 test vectors.
  Fnv1a empty;
  expect(empty.digest() == 0xcbf29ce484222325ull, "fnv1a of nothing");
  Fnv1a a;
  a.text("a");
  expect(a.digest() == 0xaf63dc4c8601ec8cull, "fnv1a(\"a\")");
  Fnv1a foobar;
  foobar.text("foobar");
  expect(foobar.digest() == 0x85944171f73967e8ull, "fnv1a(\"foobar\")");
  expect(foobar.hex() == "85944171f73967e8", "hex rendering");
  // Feeding in pieces equals feeding at once.
  Fnv1a pieces;
  pieces.text("foo");
  pieces.text("bar");
  expect(pieces.digest() == foobar.digest(), "fnv1a is incremental");
  Fnv1a v1, v2;
  v1.value(std::uint64_t{42});
  v2.value(std::uint64_t{43});
  expect(v1.digest() != v2.digest(), "values hash by their bytes");
}

void test_percentile() {
  using perfbench::percentile;
  expect(std::isnan(percentile({}, 0.5)), "empty sample is NaN");
  expect(near(percentile({7.0}, 0.9), 7.0), "single sample");
  expect(near(percentile({3.0, 1.0, 2.0}, 0.5), 2.0), "odd median, unsorted");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5), "even median");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.9), 91.0), "p90 of 1..101");
  expect(near(percentile(hundred, 0.0), 1.0), "p0 is the minimum");
  expect(near(percentile(hundred, 1.0), 101.0), "p100 is the maximum");
  expect(near(percentile({0.0, 10.0}, 0.25), 2.5), "linear interpolation");
  expect(near(perfbench::median({5.0, 1.0, 3.0, 9.0}), 4.0), "median");
}

void test_span_log() {
  perfbench::SpanLog off(false);
  expect(off.begin("x") == -1, "disabled log returns -1");
  expect(off.spans().empty(), "disabled log records nothing");

  perfbench::SpanLog log(true);
  const int root = log.begin("workload");
  for (std::uint64_t r = 1; r <= 3; ++r) {
    const perfbench::ScopedSpan round(log, "round", r);
    const perfbench::ScopedSpan child(log, "snapshot");
  }
  log.end(root, "\"k\":1");
  const auto& spans = log.spans();
  expect(spans.size() == 7, "seven spans recorded");
  expect(spans[1].parent == root && spans[2].parent == 1, "parents nest");
  expect(spans[2].id == 1 && spans[6].id == 3, "children inherit the id");
  bool contained = true;
  for (const auto& s : spans) {
    contained &= s.end_us >= s.start_us;
    if (s.parent >= 0) {
      contained &= s.start_us >= spans[s.parent].start_us &&
                   s.end_us <= spans[s.parent].end_us;
    }
  }
  expect(contained, "children lie within their parents");

  const auto rows = perfbench::layer_rows(spans);
  expect(rows.size() == 3, "three call paths");
  expect(rows[1].path == "workload/round" && rows[1].calls == 3,
         "round path folded");
  expect(rows[2].path == "workload/round/snapshot" && rows[2].depth == 2,
         "child path and depth");
  expect(near(rows[1].total_ms, rows[1].self_ms + rows[2].total_ms),
         "self time excludes child time");

  const std::string json = log.chrome_json("{}");
  expect(json.find("\"traceEvents\":[") != std::string::npos,
         "chrome trace has traceEvents");
  expect(json.find("\"ph\":\"X\"") != std::string::npos, "complete events");
  expect(json.find("\"k\":1") != std::string::npos, "span args written");
}

}  // namespace

int main() {
  test_fnv1a();
  test_percentile();
  test_span_log();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
