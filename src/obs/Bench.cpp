//===- obs/Bench.cpp - Machine-readable benchmark baselines ---------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Bench.h"

#include "obs/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace depflow;
using namespace depflow::obs;

BenchClaim depflow::obs::fitClaim(
    std::string Id, std::string Counter,
    const std::vector<std::pair<double, double>> &Points, double Bound,
    double Tolerance, bool UpperBound) {
  BenchClaim C;
  C.Id = std::move(Id);
  C.Counter = std::move(Counter);
  C.Bound = Bound;
  C.Tolerance = Tolerance;
  C.UpperBound = UpperBound;

  double SumX = 0, SumY = 0, SumXX = 0, SumXY = 0;
  unsigned N = 0;
  for (auto [Size, Work] : Points) {
    if (Size <= 0 || Work <= 0)
      continue;
    double X = std::log(Size), Y = std::log(Work);
    SumX += X;
    SumY += Y;
    SumXX += X * X;
    SumXY += X * Y;
    ++N;
  }
  C.Samples = N;
  double Denom = N * SumXX - SumX * SumX;
  if (N < 2 || Denom == 0) {
    C.Pass = false;
    return C;
  }
  C.Exponent = (N * SumXY - SumX * SumY) / Denom;
  C.Pass = UpperBound ? C.Exponent <= Bound + Tolerance
                      : C.Exponent >= Bound - Tolerance;
  return C;
}

std::string BenchReport::renderJson() const {
  std::string S;
  JsonWriter W(S);
  W.beginObject();
  W.keyValue("schema", "depflow-bench");
  W.keyValue("schema_version", BenchSchemaVersion);
  W.keyValue("bench", BenchName);
  W.key("entries");
  W.beginArray();
  for (const Entry &E : Entries) {
    W.beginObject();
    W.keyValue("name", E.Name);
    W.key("metrics");
    W.beginObject();
    for (const auto &[Key, Value] : E.Metrics)
      W.keyValue(Key, Value);
    W.endObject();
    W.keyValue("time_unit", E.TimeUnit);
    W.keyValue("iterations", E.Iterations);
    W.endObject();
  }
  W.endArray();
  if (!Claims.empty()) {
    W.key("claims");
    W.beginArray();
    for (const BenchClaim &C : Claims) {
      W.beginObject();
      W.keyValue("id", C.Id);
      W.keyValue("counter", C.Counter);
      W.keyValue("exponent", C.Exponent);
      W.keyValue("bound", C.Bound);
      W.keyValue("tolerance", C.Tolerance);
      W.keyValue("direction", C.UpperBound ? "le" : "ge");
      W.keyValue("samples", C.Samples);
      W.keyValue("pass", C.Pass);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  S += '\n';
  return S;
}

Status BenchReport::write(const std::string &Dir) const {
  std::string Path = Dir;
  if (!Path.empty() && Path.back() != '/')
    Path += '/';
  Path += "BENCH_" + BenchName + ".json";
  if (Status S = writeArtifact(Path, renderJson(), "bench"); !S.ok())
    return S;
  std::fprintf(stderr, "bench: wrote %s\n", Path.c_str());
  return Status::success();
}

Status BenchReport::writeIfRequested() const {
  const char *Dir = std::getenv("DEPFLOW_BENCH_JSON");
  if (!Dir || !*Dir)
    return Status::success();
  return write(Dir);
}
