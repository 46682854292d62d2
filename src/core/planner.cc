#include "core/planner.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "core/degree_cache.h"

namespace opinedb::core {

namespace {

/// Collects objective leaves reachable from `node` through AND nodes
/// only. OR and NOT stop the walk: below them a failing objective leaf
/// no longer forces the root to zero.
void CollectHardObjective(const fuzzy::Expr* node,
                          const std::vector<Condition>& conditions,
                          std::vector<size_t>* hard) {
  switch (node->kind()) {
    case fuzzy::Expr::Kind::kLeaf: {
      const size_t c = node->leaf_index();
      if (c < conditions.size() &&
          conditions[c].kind == Condition::Kind::kObjective) {
        hard->push_back(c);
      }
      return;
    }
    case fuzzy::Expr::Kind::kAnd:
      for (const auto& child : node->children()) {
        CollectHardObjective(child.get(), conditions, hard);
      }
      return;
    case fuzzy::Expr::Kind::kOr:
    case fuzzy::Expr::Kind::kNot:
      return;
  }
}

const char* VariantName(fuzzy::Variant variant) {
  return variant == fuzzy::Variant::kProduct ? "product" : "godel";
}

std::string RenderObjective(const storage::ColumnPredicate& predicate) {
  std::string text = predicate.column;
  text += ' ';
  text += storage::CompareOpSymbol(predicate.op);
  text += ' ';
  if (predicate.literal.type() == storage::ValueType::kString) {
    text += '\'';
    text += predicate.literal.ToString();
    text += '\'';
  } else {
    text += predicate.literal.ToString();
  }
  return text;
}

}  // namespace

LogicalPlan AnalyzeQuery(const SubjectiveQuery& query) {
  LogicalPlan plan;
  for (size_t c = 0; c < query.conditions.size(); ++c) {
    if (query.conditions[c].kind == Condition::Kind::kObjective) {
      plan.objective_leaves.push_back(c);
    } else {
      plan.subjective_leaves.push_back(c);
    }
  }
  if (query.where == nullptr) return plan;
  CollectHardObjective(query.where.get(), query.conditions,
                       &plan.hard_objective);
  return plan;
}

PhysicalPlan SelectPlan(const SubjectiveQuery& /*query*/,
                        const LogicalPlan& logical,
                        const PlannerContext& context) {
  PhysicalPlan plan;
  plan.filtered_eligible = !logical.hard_objective.empty();
  const PlanKind auto_kind = plan.filtered_eligible ? PlanKind::kFilteredScan
                                                    : PlanKind::kDenseScan;
  switch (context.force) {
    case PlanForce::kAuto:
      plan.kind = auto_kind;
      break;
    case PlanForce::kDenseScan:
      plan.kind = PlanKind::kDenseScan;  // Always eligible.
      break;
    case PlanForce::kFilteredScan:
      if (plan.filtered_eligible) {
        plan.kind = PlanKind::kFilteredScan;
      } else {
        plan.kind = auto_kind;
        plan.forced_fallback = true;
      }
      break;
  }
  return plan;
}

namespace {

/// Length-prefixed text: "<length>:<bytes>". Keeps the key grammar
/// unambiguous no matter what bytes a column name, string literal or
/// predicate contains.
void AppendSized(std::string_view s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

void AppendCanonicalCondition(const Condition& condition, std::string* out) {
  if (condition.kind == Condition::Kind::kObjective) {
    const storage::ColumnPredicate& predicate = condition.objective;
    out->append("o(");
    AppendSized(predicate.column, out);
    out->append(storage::CompareOpSymbol(predicate.op));
    switch (predicate.literal.type()) {
      case storage::ValueType::kNull:
        out->append("null");
        break;
      case storage::ValueType::kInt:
      case storage::ValueType::kDouble: {
        // Through the numeric view, with round-trip precision: `150`
        // and `150.0` compare equal in the executor (Value::Compare is
        // numeric across int/double), so they must share a key.
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "n%.17g",
                      predicate.literal.AsNumber());
        out->append(buffer);
        break;
      }
      case storage::ValueType::kString:
        out->push_back('v');
        AppendSized(predicate.literal.AsString(), out);
        break;
    }
    out->push_back(')');
  } else {
    out->append("s(");
    AppendSized(NormalizePredicate(condition.subjective), out);
    out->push_back(')');
  }
}

/// Renders the WHERE tree preserving structure and child order exactly
/// (see the fold-order note on CanonicalQueryKey), with each leaf
/// expanded to its canonical condition.
void AppendCanonicalExpr(const fuzzy::Expr* node,
                         const std::vector<Condition>& conditions,
                         std::string* out) {
  switch (node->kind()) {
    case fuzzy::Expr::Kind::kLeaf: {
      const size_t c = node->leaf_index();
      out->push_back('[');
      if (c < conditions.size()) {
        AppendCanonicalCondition(conditions[c], out);
      }
      out->push_back(']');
      return;
    }
    case fuzzy::Expr::Kind::kAnd:
    case fuzzy::Expr::Kind::kOr:
      out->push_back('(');
      out->push_back(node->kind() == fuzzy::Expr::Kind::kAnd ? '&' : '|');
      for (const auto& child : node->children()) {
        AppendCanonicalExpr(child.get(), conditions, out);
      }
      out->push_back(')');
      return;
    case fuzzy::Expr::Kind::kNot:
      out->append("(!");
      for (const auto& child : node->children()) {
        AppendCanonicalExpr(child.get(), conditions, out);
      }
      out->push_back(')');
      return;
  }
}

}  // namespace

std::string CanonicalQueryKey(const SubjectiveQuery& query) {
  std::string key = "q1;t=";
  AppendSized(query.table, &key);
  key.append(";l=");
  key.append(std::to_string(query.limit));
  key.append(";w=");
  if (query.where == nullptr) {
    key.push_back('-');
  } else {
    AppendCanonicalExpr(query.where.get(), query.conditions, &key);
  }
  return key;
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kDenseScan:
      return "dense_scan";
    case PlanKind::kFilteredScan:
      return "filtered_scan";
  }
  return "unknown";
}

std::string ExplainPlan(const SubjectiveQuery& query,
                        const LogicalPlan& logical,
                        const PhysicalPlan& physical,
                        const PlannerContext& context) {
  std::string out = "plan: ";
  out += PlanKindName(physical.kind);
  if (physical.forced_fallback) out += " (forced plan ineligible, fell back)";
  out += '\n';
  out += "table: " + query.table +
         "  limit: " + std::to_string(query.limit) + "  variant: " +
         VariantName(context.variant) + '\n';
  out += "where: ";
  out += query.where != nullptr ? query.where->ToString() : "(none)";
  out += '\n';
  if (query.conditions.empty()) {
    out += "conditions: (none)\n";
  } else {
    out += "conditions:\n";
    for (size_t c = 0; c < query.conditions.size(); ++c) {
      const Condition& condition = query.conditions[c];
      out += "  [" + std::to_string(c) + "] ";
      if (condition.kind == Condition::Kind::kObjective) {
        out += "objective  " + RenderObjective(condition.objective);
        if (std::find(logical.hard_objective.begin(),
                      logical.hard_objective.end(),
                      c) != logical.hard_objective.end()) {
          out += " [hard]";
        }
      } else {
        out += "subjective \"" + condition.subjective + "\"";
        if (context.cache != nullptr) {
          out += context.cache->Contains(condition.subjective)
                     ? " [cached]"
                     : " [uncached]";
        }
      }
      out += '\n';
    }
  }
  out += "operators:\n";
  switch (physical.kind) {
    case PlanKind::kDenseScan:
      out += "  SubjectiveScore(" +
             std::to_string(query.conditions.size()) +
             " condition lists over all entities)\n";
      out += "  Rank(top " + std::to_string(query.limit) +
             ", partial_sort)\n";
      break;
    case PlanKind::kFilteredScan:
      out += "  ObjectiveFilter(" +
             std::to_string(logical.hard_objective.size()) +
             " hard predicates)\n";
      out += "  SubjectiveScore(" +
             std::to_string(query.conditions.size()) +
             " condition lists over survivors)\n";
      out += "  Rank(top " + std::to_string(query.limit) +
             ", partial_sort)\n";
      break;
  }
  return out;
}

}  // namespace opinedb::core
