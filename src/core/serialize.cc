#include "core/serialize.h"

#include <limits>
#include <string>
#include <unordered_set>

#include "common/bytes.h"

namespace opinedb::core {

namespace {

constexpr char kSchemaMagic[] = "opinedb-schema";
constexpr char kSummariesMagic[] = "opinedb-summaries";
constexpr int kSchemaVersion = 1;
/// v2: every summary row is prefixed with its entity id, so duplicate
/// or missing rows are detectable instead of silently shifting every
/// later entity's summaries by one slot.
constexpr int kSummariesVersion = 2;

/// Plausibility bounds on deserialized sizes. A corrupt or truncated
/// stream must produce a ParseError, not a multi-gigabyte allocation:
/// every count below is read from untrusted bytes and used to size a
/// container, so each gets a ceiling far above anything a real file
/// contains (markers and phrases are short; embedding dims are small).
constexpr size_t kMaxStringLength = 1u << 20;     // 1 MiB per string.
constexpr size_t kMaxCentroidDim = 1u << 16;      // 65536 dims.
constexpr size_t kMaxProvenance = 1u << 26;       // 67M review ids.
constexpr size_t kMaxEntities = 1u << 26;         // 67M entities.

}  // namespace

Status SaveSchema(const SubjectiveSchema& schema, std::ostream* out) {
  *out << kSchemaMagic << ' ' << kSchemaVersion << '\n';
  WriteString(schema.objective_table, out);
  *out << ' ';
  WriteString(schema.key_column, out);
  *out << '\n' << schema.attributes.size() << '\n';
  for (const auto& attribute : schema.attributes) {
    WriteString(attribute.name, out);
    *out << ' '
         << (attribute.summary_type.kind == SummaryKind::kLinearlyOrdered
                 ? 'L'
                 : 'C')
         << ' ' << attribute.summary_type.markers.size() << ' '
         << attribute.linguistic_domain.size() << ' '
         << attribute.seeds.aspect_terms.size() << ' '
         << attribute.seeds.opinion_terms.size() << '\n';
    for (const auto& marker : attribute.summary_type.markers) {
      WriteString(marker, out);
      *out << '\n';
    }
    for (const auto& phrase : attribute.linguistic_domain) {
      WriteString(phrase, out);
      *out << '\n';
    }
    for (const auto& seed : attribute.seeds.aspect_terms) {
      WriteString(seed, out);
      *out << '\n';
    }
    for (const auto& seed : attribute.seeds.opinion_terms) {
      WriteString(seed, out);
      *out << '\n';
    }
  }
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Result<SubjectiveSchema> LoadSchema(std::istream* in) {
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kSchemaMagic) {
    return Status::ParseError("not an opinedb schema file");
  }
  if (version != kSchemaVersion) {
    return Status::NotSupported("schema version " +
                                std::to_string(version));
  }
  SubjectiveSchema schema;
  auto table = ReadString(in, kMaxStringLength);
  if (!table.ok()) return table.status();
  schema.objective_table = *table;
  in->get();  // Separator.
  auto key = ReadString(in, kMaxStringLength);
  if (!key.ok()) return key.status();
  schema.key_column = *key;
  size_t num_attributes = 0;
  if (!(*in >> num_attributes)) {
    return Status::ParseError("bad attribute count");
  }
  std::unordered_set<std::string> seen_names;
  for (size_t a = 0; a < num_attributes; ++a) {
    SubjectiveAttribute attribute;
    auto name = ReadString(in, kMaxStringLength);
    if (!name.ok()) return name.status();
    // Attribute names are the schema's keys (AttributeIndex resolves by
    // name); a duplicate would make every later lookup silently bind to
    // the first occurrence and shadow the second.
    if (!seen_names.insert(*name).second) {
      return Status::InvalidArgument("duplicate attribute \"" + *name +
                                     "\" in schema");
    }
    attribute.name = *name;
    attribute.summary_type.name = *name;
    char kind = 0;
    size_t markers = 0, domain = 0, aspects = 0, opinions = 0;
    if (!(*in >> kind >> markers >> domain >> aspects >> opinions)) {
      return Status::ParseError("bad attribute header: " + attribute.name);
    }
    attribute.summary_type.kind = kind == 'L'
                                      ? SummaryKind::kLinearlyOrdered
                                      : SummaryKind::kCategorical;
    auto read_many = [in](size_t n,
                          std::vector<std::string>* out) -> Status {
      for (size_t i = 0; i < n; ++i) {
        auto s = ReadString(in, kMaxStringLength);
        if (!s.ok()) return s.status();
        out->push_back(*s);
      }
      return Status::OK();
    };
    Status status = read_many(markers, &attribute.summary_type.markers);
    if (!status.ok()) return status;
    status = read_many(domain, &attribute.linguistic_domain);
    if (!status.ok()) return status;
    status = read_many(aspects, &attribute.seeds.aspect_terms);
    if (!status.ok()) return status;
    status = read_many(opinions, &attribute.seeds.opinion_terms);
    if (!status.ok()) return status;
    schema.attributes.push_back(std::move(attribute));
  }
  return schema;
}

Status SaveSummaries(const SubjectiveTables& tables, std::ostream* out) {
  // Full double precision so reload is bit-exact.
  out->precision(std::numeric_limits<double>::max_digits10);
  *out << kSummariesMagic << ' ' << kSummariesVersion << '\n';
  *out << tables.summaries.size() << ' '
       << (tables.summaries.empty() ? 0 : tables.summaries[0].size())
       << '\n';
  for (const auto& per_entity : tables.summaries) {
    for (size_t entity = 0; entity < per_entity.size(); ++entity) {
      const auto& summary = per_entity[entity];
      // Each row names its entity (v2): the loader can then reject
      // duplicated or out-of-range rows instead of letting one slip
      // shift every later summary onto the wrong entity.
      *out << entity << ' ' << summary.num_markers() << ' '
           << summary.unmatched_count();
      const size_t dim =
          summary.num_markers() > 0 ? summary.cell(0).centroid.size() : 0;
      *out << ' ' << dim << '\n';
      for (size_t m = 0; m < summary.num_markers(); ++m) {
        const MarkerCell& cell = summary.cell(m);
        *out << cell.count << ' ' << cell.mean_sentiment;
        for (float x : cell.centroid) *out << ' ' << x;
        *out << ' ' << cell.provenance.size();
        for (auto review : cell.provenance) *out << ' ' << review;
        *out << '\n';
      }
    }
  }
  // End-of-stream sentinel: the numeric tail of a truncated text stream
  // would otherwise still parse (e.g. "123" cut to "12"); losing the
  // sentinel makes any truncation detectable.
  *out << "end\n";
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Result<SubjectiveTables> LoadSummaries(const SubjectiveSchema& schema,
                                       std::istream* in) {
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kSummariesMagic) {
    return Status::ParseError("not an opinedb summaries file");
  }
  if (version != kSummariesVersion) {
    return Status::NotSupported("summaries version " +
                                std::to_string(version));
  }
  size_t num_attributes = 0;
  size_t num_entities = 0;
  if (!(*in >> num_attributes >> num_entities)) {
    return Status::ParseError("bad summaries header");
  }
  if (num_attributes != schema.num_attributes()) {
    return Status::InvalidArgument(
        "schema has " + std::to_string(schema.num_attributes()) +
        " attributes, file has " + std::to_string(num_attributes));
  }
  // The loader preallocates per-entity slots; cap the count before a
  // corrupt header turns into a multi-gigabyte allocation.
  if (num_entities > kMaxEntities) {
    return Status::ParseError("implausible entity count " +
                              std::to_string(num_entities));
  }
  SubjectiveTables tables;
  tables.summaries.resize(num_attributes);
  for (size_t a = 0; a < num_attributes; ++a) {
    // Rows carry explicit entity ids; track which slots have been
    // filled so a duplicated row is an error, not a last-wins
    // overwrite (and, by pigeonhole over num_entities rows, a
    // duplicate is also the only way a slot could stay empty).
    std::vector<MarkerSummary> loaded(num_entities);
    std::vector<char> seen(num_entities, 0);
    for (size_t e = 0; e < num_entities; ++e) {
      size_t entity = 0;
      size_t markers = 0;
      double unmatched = 0.0;
      size_t dim = 0;
      if (!(*in >> entity >> markers >> unmatched >> dim)) {
        return Status::ParseError("bad summary header");
      }
      if (entity >= num_entities) {
        return Status::ParseError(
            "entity row " + std::to_string(entity) + " out of range in " +
            schema.attributes[a].name);
      }
      if (seen[entity]) {
        return Status::InvalidArgument(
            "duplicate entity row " + std::to_string(entity) + " in " +
            schema.attributes[a].name);
      }
      seen[entity] = 1;
      if (dim > kMaxCentroidDim) {
        return Status::ParseError("implausible centroid dimension " +
                                  std::to_string(dim));
      }
      if (markers != schema.attributes[a].summary_type.num_markers()) {
        return Status::InvalidArgument("marker count mismatch in " +
                                       schema.attributes[a].name);
      }
      MarkerSummary summary(&schema.attributes[a].summary_type, dim);
      for (size_t m = 0; m < markers; ++m) {
        MarkerCell cell;
        if (!(*in >> cell.count >> cell.mean_sentiment)) {
          return Status::ParseError("bad marker cell");
        }
        cell.centroid.resize(dim);
        for (size_t d = 0; d < dim; ++d) {
          if (!(*in >> cell.centroid[d])) {
            return Status::ParseError("bad centroid");
          }
        }
        size_t provenance = 0;
        if (!(*in >> provenance)) {
          return Status::ParseError("bad provenance count");
        }
        if (provenance > kMaxProvenance) {
          return Status::ParseError("implausible provenance count " +
                                    std::to_string(provenance));
        }
        cell.provenance.resize(provenance);
        for (size_t r = 0; r < provenance; ++r) {
          if (!(*in >> cell.provenance[r])) {
            return Status::ParseError("bad provenance entry");
          }
        }
        summary.RestoreCell(m, std::move(cell));
      }
      summary.SetUnmatchedCount(unmatched);
      loaded[entity] = std::move(summary);
    }
    tables.summaries[a] = std::move(loaded);
  }
  std::string sentinel;
  if (!(*in >> sentinel) || sentinel != "end") {
    return Status::ParseError("truncated summaries stream (missing sentinel)");
  }
  return tables;
}

}  // namespace opinedb::core
