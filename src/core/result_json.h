#ifndef OPINEDB_CORE_RESULT_JSON_H_
#define OPINEDB_CORE_RESULT_JSON_H_

#include <string>

#include "core/engine.h"

namespace opinedb::core {

/// Controls which sections ResultToJson renders. The default keeps the
/// document fully deterministic: a query executed twice (or embedded vs
/// over HTTP) renders byte-identical JSON, which is the serving layer's
/// bit-identity contract (tests/server_test.cc). Traces (span timings)
/// vary run to run, so they are opt-in.
struct ResultJsonOptions {
  /// Per-condition interpretations (method, confidence, A.m atoms;
  /// null for an objective condition).
  bool include_interpretations = true;
  /// The per-query span tree (requires trace_level == kFull; silently
  /// omitted when QueryResult::trace is null). Nondeterministic.
  bool include_trace = false;
};

/// Name of an InterpretMethod ("word2vec", "cooccurrence",
/// "text_fallback") — matches the trace cascade stage names.
const char* InterpretMethodName(InterpretMethod method);

/// Renders a QueryResult as one JSON object:
///
///   {
///     "results": [{"entity": 3, "name": "...", "score": 0.625}, ...],
///     "partial": false,
///     "degraded": false,
///     "watermark": 120,
///     "plan": "dense_scan",
///     "plan_text": "...",          // EXPLAIN statements only
///     "interpretations": [...],    // optional
///     "trace": [...]               // optional, nondeterministic
///   }
///
/// `watermark` is QueryResult::watermark, the number of entities
/// actually scored — for a partial result it is the exact prefix the
/// ranking is consistent over. Scores and confidences render with
/// %.17g, so parsing the document recovers every double bit-exactly.
std::string ResultToJson(const QueryResult& result,
                         const ResultJsonOptions& options =
                             ResultJsonOptions());

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_RESULT_JSON_H_
