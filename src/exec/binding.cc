#include "exec/binding.h"

namespace unistore {
namespace exec {

std::string BindingToString(const Binding& binding) {
  std::string out = "{";
  bool first = true;
  for (const auto& [var, value] : binding) {
    if (!first) out += ", ";
    first = false;
    out += "?" + var + "=" + value.ToDisplayString();
  }
  out += "}";
  return out;
}

bool Compatible(const Binding& a, const Binding& b) {
  // Iterate the smaller map.
  const Binding& small = a.size() <= b.size() ? a : b;
  const Binding& big = a.size() <= b.size() ? b : a;
  for (const auto& [var, value] : small) {
    auto it = big.find(var);
    if (it != big.end() && it->second != value) return false;
  }
  return true;
}

Binding Merge(const Binding& a, const Binding& b) {
  Binding out = a;
  out.insert(b.begin(), b.end());
  return out;
}

namespace {

// True when `term` may take `actual` under `base`: a literal equal to it,
// a variable `base` binds to it, or a variable `base` leaves free.
bool Admits(const vql::Term& term, const triple::Value& actual,
            const Binding& base) {
  if (!term.is_variable) return term.literal == actual;
  auto it = base.find(term.variable);
  return it == base.end() || it->second == actual;
}

}  // namespace

std::optional<Binding> MatchPattern(const vql::TriplePattern& pattern,
                                    const std::string& oid,
                                    const std::string& attribute,
                                    const triple::Value& value,
                                    const Binding& base) {
  const triple::Value subject = triple::Value::String(oid);
  const triple::Value predicate = triple::Value::String(attribute);
  const vql::Term* terms[] = {&pattern.subject, &pattern.predicate,
                              &pattern.object};
  const triple::Value* actual[] = {&subject, &predicate, &value};
  // Every check runs before `base` is copied: most triples a scan hands
  // over fail a literal or a bound variable.
  for (int i = 0; i < 3; ++i) {
    if (!Admits(*terms[i], *actual[i], base)) return std::nullopt;
    // A variable repeated across positions must take equal values.
    for (int j = 0; j < i; ++j) {
      if (terms[i]->is_variable && terms[j]->is_variable &&
          terms[i]->variable == terms[j]->variable &&
          *actual[i] != *actual[j]) {
        return std::nullopt;
      }
    }
  }
  Binding binding = base;
  // emplace keeps the first position's value of a repeated variable.
  for (int i = 0; i < 3; ++i) {
    if (terms[i]->is_variable) binding.emplace(terms[i]->variable, *actual[i]);
  }
  return binding;
}

void EncodeBinding(const Binding& binding, BufferWriter* w) {
  w->PutVarint(binding.size());
  for (const auto& [var, value] : binding) {
    w->PutString(var);
    value.Encode(w);
  }
}

Result<Binding> DecodeBinding(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 100000) return Status::Corruption("oversized binding");
  Binding binding;
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(std::string var, r->GetString());
    UNISTORE_ASSIGN_OR_RETURN(triple::Value value,
                              triple::Value::Decode(r));
    binding.emplace(std::move(var), std::move(value));
  }
  return binding;
}

void EncodeBindings(const std::vector<Binding>& bindings, BufferWriter* w) {
  w->PutVarint(bindings.size());
  for (const auto& b : bindings) EncodeBinding(b, w);
}

Result<std::vector<Binding>> DecodeBindings(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  std::vector<Binding> out;
  out.reserve(std::min<uint64_t>(n, 4096));
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(Binding b, DecodeBinding(r));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace exec
}  // namespace unistore
